// A fresh Data's deferred signature read from two threads at once: both
// see the eager signature and it is computed once (ndn::Signature signs
// under std::call_once). Lives in ndnp_concurrency_tests so the
// ThreadSanitizer CI job race-checks it.
#include <gtest/gtest.h>

#include <latch>
#include <string>
#include <thread>

#include "crypto/hmac.hpp"
#include "ndn/packet.hpp"

namespace ndnp::ndn {
namespace {

TEST(SignatureConcurrency, TwoThreadsReadOneFreshSignature) {
  constexpr int kRounds = 100;
  for (int round = 0; round < kRounds; ++round) {
    const Name name = Name("/web/dom1").append_number(static_cast<std::uint64_t>(round));
    const Data data = make_data(name, std::string(8192, 'x'), "dom1", "origin-key");
    const Data copy = data;
    crypto::Sha256Digest seen_a{};
    crypto::Sha256Digest seen_b{};
    const std::uint64_t before = crypto::signatures_computed();
    std::latch start(2);
    std::thread a([&] {
      start.arrive_and_wait();
      seen_a = data.signature.value();
    });
    std::thread b([&] {
      start.arrive_and_wait();
      seen_b = copy.signature.value();
    });
    a.join();
    b.join();
    ASSERT_EQ(crypto::signatures_computed() - before, 1u) << "round " << round;
    const crypto::Sha256Digest expected =
        crypto::sign_content("origin-key", data.name.to_uri(), data.payload);
    ASSERT_EQ(seen_a, expected) << "round " << round;
    ASSERT_EQ(seen_b, expected) << "round " << round;
  }
}

}  // namespace
}  // namespace ndnp::ndn
