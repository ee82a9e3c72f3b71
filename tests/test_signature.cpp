// The deferred Data signature (ndn::Signature): it equals eager signing,
// is computed only when read and then at most once across every copy, is
// frozen against later changes to the Data, and encodes to the TLV bytes
// make_data produced when it signed up front.
#include "ndn/packet.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "crypto/hmac.hpp"
#include "ndn/tlv.hpp"
#include "sim/apps.hpp"
#include "trace/network_replay.hpp"
#include "util/rng.hpp"

namespace ndnp::ndn {
namespace {

/// `n` bytes drawn from all 256 values, '%' over-weighted; a name
/// component must not hold '/', so one drawn there becomes '%'.
std::string random_bytes(util::Rng& rng, std::size_t n, bool component) {
  std::string out(n, '\0');
  for (char& ch : out) {
    ch = rng.bernoulli(0.1) ? '%' : static_cast<char>(rng.uniform_u64(256));
    if (component && ch == '/') ch = '%';
  }
  return out;
}

/// One to six short components, which fit a Name's 52 inline bytes; with
/// `spill`, a last component of 53 to 80 bytes pushes it to the heap.
Name random_name(util::Rng& rng, bool spill) {
  Name name;
  const std::size_t depth = 1 + rng.uniform_u64(6);
  for (std::size_t i = 0; i < depth; ++i)
    name = name.append(random_bytes(rng, 1 + rng.uniform_u64(6), /*component=*/true));
  if (spill) name = name.append(random_bytes(rng, 53 + rng.uniform_u64(28), true));
  return name;
}

crypto::Sha256Digest eager(std::string_view key, const Name& name, std::string_view payload) {
  return crypto::sign_content(key, name.to_uri(), payload);
}

TEST(DeferredSignature, MatchesEagerSigningOverRandomInputs) {
  constexpr std::size_t kPayloadSizes[] = {0, 1, 63, 64, 8192};
  util::Rng rng(2013);
  for (int i = 0; i < 400; ++i) {
    const Name name = random_name(rng, /*spill=*/i % 3 == 0);
    const std::string payload = random_bytes(rng, kPayloadSizes[i % 5], /*component=*/false);
    // Keys up to 200 bytes: HMAC hashes keys past its 64-byte block first.
    const std::string key =
        random_bytes(rng, 1 + rng.uniform_u64(i % 2 == 0 ? 64 : 200), /*component=*/false);
    const Data data = make_data(name, payload, "p", key);
    EXPECT_EQ(data.signature.value(), eager(key, name, payload))
        << "name " << name.to_uri() << ", payload " << payload.size() << " B, key "
        << key.size() << " B";
  }
}

/// What a sim::Producer holding `key` answers for `uris`, fetched over one
/// link. The producer, its key string and its scheduler are gone on return.
std::vector<Data> produced(std::string key, std::size_t payload_size,
                           std::initializer_list<const char*> uris) {
  std::vector<Data> out;
  sim::Scheduler sched;
  sim::Consumer consumer(sched, "C", 1);
  sim::ProducerConfig config;
  config.payload_size = payload_size;
  sim::Producer producer(sched, "P", Name("/p"), std::move(key), config, 2);
  sim::LinkConfig link;
  link.latency = util::millis_f(1.0);
  sim::connect(consumer, producer, link);
  for (const char* uri : uris) {
    consumer.fetch(Name(uri),
                   [&](const Data& data, util::SimDuration) { out.push_back(data); });
  }
  sched.run();
  return out;
}

TEST(DeferredSignature, CopiesOutliveTheirProducer) {
  const std::string key(100, 'k');
  // The last name spills past a Name's inline storage.
  const std::vector<Data> copies =
      produced(key, 8192, {"/p/a", "/p/%25b", "/p/long-enough-to-leave-inline-storage"});
  ASSERT_EQ(copies.size(), 3u);
  for (const Data& data : copies) {
    const Data copy = data;
    EXPECT_EQ(copy.signature.value(), eager(key, data.name, data.payload))
        << data.name.to_uri();
    EXPECT_EQ(data.signature, copy.signature);
  }
}

TEST(DeferredSignature, FrozenAgainstTampering) {
  for (const bool read_first : {false, true}) {
    Data data = make_data(Name("/bank/statement/7"), "balance=100", "bank", "bank-key");
    if (read_first) (void)data.signature.value();
    data.payload = "balance=1000000";
    data.name = Name("/bank/statement/8");
    EXPECT_FALSE(
        crypto::verify_content("bank-key", data.name.to_uri(), data.payload, data.signature))
        << "read first: " << read_first;
    EXPECT_TRUE(
        crypto::verify_content("bank-key", "/bank/statement/7", "balance=100", data.signature))
        << "read first: " << read_first;
  }
}

TEST(DeferredSignature, DefaultReadsAsZeroBytes) {
  const std::uint64_t before = crypto::signatures_computed();
  const Data data;
  EXPECT_EQ(data.signature.value(), crypto::Sha256Digest{});
  EXPECT_EQ(data.signature, Signature());
  EXPECT_EQ(crypto::signatures_computed(), before);
}

TEST(DeferredSignature, EncodedBytesArePinned) {
  // Hex of encode() for Data that make_data signed eagerly, before the
  // signature was deferred: the wire bytes must not move.
  const Data plain =
      make_data(Name("/web/dom1/obj1"), std::string(64, 'x'), "dom1", "origin-key");
  EXPECT_EQ(crypto::to_hex(encode(plain)),
            "067d071108037765620804646f6d3108046f626a3115407878787878787878787878787878787878"
            "78787878787878787878787878787878787878787878787878787878787878787878787878787878"
            "787878787878788104646f6d3117208ac8197694dc8e8273663cfac1a374387f0a752cd3e9ef7058"
            "b23274f828097a");

  Data rich = make_data(Name("/cnn/news/private"), "the-payload-bytes", "cnn", "cnn-key",
                        /*producer_private=*/true);
  rich.exact_match_only = true;
  rich.group_id = "album-9";
  rich.freshness_period = 30'000'000'000;
  EXPECT_EQ(crypto::to_hex(encode(rich)),
            "066707140803636e6e08046e65777308077072697661746515117468652d7061796c6f61642d6279"
            "7465738103636e6e1720314d3aa4e92dec84b3e5912e1f929eb3d0b0a8a4de2a6cf5a52c320b0338"
            "2756830084008507616c62756d2d39190800000006fc23ac00");

  // Escaped bytes in the name and a key longer than one HMAC block.
  const Name escaped{std::string_view("a%b"), std::string_view("\x00\xff ~", 4)};
  EXPECT_EQ(crypto::to_hex(encode(make_data(escaped, "p", "prod", std::string(100, 'k')))),
            "0638070b0803612562080400ff207e150170810470726f6417202faa2355c1a759e8ed6b93294014"
            "a90570f784344385ff47f76f1033cab3ba8d");

  // A response from a network producer.
  const std::vector<Data> response = produced("key", 16, {"/p/obj1"});
  ASSERT_EQ(response.size(), 1u);
  EXPECT_EQ(crypto::to_hex(encode(response[0])),
            "0642070908017008046f626a311510787878787878787878787878787878788101501720d4343150"
            "bc2eece8bf4eb6b69df8e67c2e22a309c6aee021cb5cb78f2f3be451");
}

TEST(DeferredSignature, DecodedDataCarriesItsBytes) {
  const Buffer wire = encode(make_data(Name("/a/b"), "payload", "prod", "key"));
  const std::uint64_t before = crypto::signatures_computed();
  const Data decoded = decode_data(wire);
  const Data copy = decoded;
  EXPECT_EQ(decoded.signature.value(), copy.signature.value());
  EXPECT_EQ(crypto::signatures_computed(), before) << "reading a decoded signature signed";
  EXPECT_TRUE(crypto::verify_content("key", "/a/b", "payload", decoded.signature));
}

TEST(SignCount, MakeDataSignsNothingAndEncodeSignsOnce) {
  const std::uint64_t before = crypto::signatures_computed();
  const auto signed_since = [before] { return crypto::signatures_computed() - before; };
  const Data data =
      make_data(Name("/web/dom1/obj1"), std::string(8192, 'x'), "dom1", "origin-key");
  const Data early_copy = data;
  EXPECT_EQ(signed_since(), 0u);
  (void)encode(data);
  EXPECT_EQ(signed_since(), 1u);
  (void)encode(data);
  EXPECT_EQ(signed_since(), 1u) << "a second encode signed again";
  (void)encode(early_copy);
  const Data late_copy = data;
  (void)encode(late_copy);
  EXPECT_EQ(signed_since(), 1u) << "a copy's encode signed again";
}

TEST(SignCount, NetworkReplaySignsNothing) {
  trace::TraceGenConfig gen;
  gen.num_users = 24;
  gen.num_objects = 500;
  gen.num_requests = 2'000;
  gen.num_domains = 10;
  gen.duration_s = 600.0;
  gen.seed = 17;
  const trace::Trace tr = trace::generate_trace(gen);
  trace::NetworkReplayConfig config;
  config.edge_routers = 3;
  config.edge_cache = 100;
  config.core_cache = 400;
  const std::uint64_t before = crypto::signatures_computed();
  const trace::NetworkReplayResult result = trace::replay_over_network(tr, config);
  EXPECT_EQ(result.completed, 2'000u);
  EXPECT_GT(result.producer_fetches, 0u);
  EXPECT_EQ(crypto::signatures_computed() - before, 0u);
}

}  // namespace
}  // namespace ndnp::ndn
