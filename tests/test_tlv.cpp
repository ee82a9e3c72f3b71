#include "ndn/tlv.hpp"

#include <gtest/gtest.h>

#include "crypto/hmac.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace ndnp::ndn {
namespace {

// ---------------------------------------------------------------------------
// Varnum primitives

TEST(TlvVarnum, OneByteEncoding) {
  Buffer out;
  append_varnum(out, 0);
  append_varnum(out, 252);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 252);
}

TEST(TlvVarnum, EscapeWidths) {
  Buffer out;
  append_varnum(out, 253);          // 2-byte escape
  append_varnum(out, 0xffff);       // still 2-byte
  append_varnum(out, 0x10000);      // 4-byte
  append_varnum(out, 0x100000000);  // 8-byte
  EXPECT_EQ(out.size(), 3u + 3u + 5u + 9u);
  EXPECT_EQ(out[0], 253);
  EXPECT_EQ(out[6], 254);
  EXPECT_EQ(out[11], 255);
}

TEST(TlvVarnum, RoundTripSweep) {
  util::Rng rng(1);
  std::vector<std::uint64_t> values{0,      1,          252,        253,
                                    254,    0xffff,     0x10000,    0xffffffff,
                                    1ULL << 32,         1ULL << 63, ~0ULL};
  for (int i = 0; i < 100; ++i) values.push_back(rng.next_u64());
  for (const std::uint64_t value : values) {
    Buffer out;
    append_varnum(out, value);
    std::size_t offset = 0;
    EXPECT_EQ(read_varnum(out, offset), value);
    EXPECT_EQ(offset, out.size());
  }
}

TEST(TlvVarnum, TruncatedThrows) {
  const Buffer empty;
  std::size_t offset = 0;
  EXPECT_THROW((void)read_varnum(empty, offset), TlvError);
  Buffer partial{253, 0x01};  // promises 2 bytes, has 1
  offset = 0;
  EXPECT_THROW((void)read_varnum(partial, offset), TlvError);
}

TEST(TlvNumber, MinimalWidths) {
  Buffer out;
  append_tlv_number(out, TlvType::kNonce, 0x7f);
  EXPECT_EQ(out.size(), 3u);  // type(1) + len(1) + 1
  out.clear();
  append_tlv_number(out, TlvType::kNonce, 0x1ff);
  EXPECT_EQ(out.size(), 4u);
  out.clear();
  append_tlv_number(out, TlvType::kNonce, 0x1ffff);
  EXPECT_EQ(out.size(), 6u);
  out.clear();
  append_tlv_number(out, TlvType::kNonce, 0x1ffffffff);
  EXPECT_EQ(out.size(), 10u);
}

TEST(TlvNumber, DecodeRejectsOddWidths) {
  const std::uint8_t three[3] = {1, 2, 3};
  EXPECT_THROW((void)decode_number(three), TlvError);
}

// ---------------------------------------------------------------------------
// Name codec

TEST(TlvName, RoundTrip) {
  for (const char* uri : {"/", "/a", "/cnn/news/2013may20", "/x/y/z/w/v"}) {
    const Name name(uri);
    const Buffer wire = encode(name);
    EXPECT_EQ(decode_name(wire), name) << uri;
  }
}

TEST(TlvName, BinarySafeComponents) {
  // Components may hold arbitrary bytes except '/'.
  const Name name{std::string("\x01\x02\xff\x00", 4), "b"};
  EXPECT_EQ(decode_name(encode(name)), name);
}

TEST(TlvName, RejectsWrongOuterType) {
  const Buffer wire = encode([]{ Interest i; i.name = Name("/a"); return i; }());
  EXPECT_THROW((void)decode_name(wire), TlvError);
}

// ---------------------------------------------------------------------------
// Interest codec

TEST(TlvInterest, MinimalRoundTrip) {
  Interest interest;
  interest.name = Name("/p/file/1");
  interest.nonce = 0xdeadbeefcafeULL;
  const Interest decoded = decode_interest(encode(interest));
  EXPECT_EQ(decoded.name, interest.name);
  EXPECT_EQ(decoded.nonce, interest.nonce);
  EXPECT_FALSE(decoded.scope.has_value());
  EXPECT_FALSE(decoded.lifetime.has_value());
  EXPECT_FALSE(decoded.must_be_fresh);
  EXPECT_FALSE(decoded.private_req);
}

TEST(TlvInterest, AllFieldsRoundTrip) {
  Interest interest;
  interest.name = Name("/alice/skype/0/rand77");
  interest.nonce = 42;
  interest.scope = 2;
  interest.lifetime = util::millis(250);
  interest.must_be_fresh = true;
  interest.private_req = true;
  const Interest decoded = decode_interest(encode(interest));
  EXPECT_EQ(decoded.name, interest.name);
  EXPECT_EQ(decoded.nonce, interest.nonce);
  EXPECT_EQ(decoded.scope, interest.scope);
  EXPECT_EQ(decoded.lifetime, interest.lifetime);
  EXPECT_TRUE(decoded.must_be_fresh);
  EXPECT_TRUE(decoded.private_req);
}

TEST(TlvInterest, MissingNameRejected) {
  Buffer inner;
  append_tlv_number(inner, TlvType::kNonce, 7);
  Buffer wire;
  append_tlv(wire, TlvType::kInterest, inner);
  EXPECT_THROW((void)decode_interest(wire), TlvError);
}

TEST(TlvInterest, UnknownFieldSkipped) {
  Interest interest;
  interest.name = Name("/a");
  Buffer wire = encode(interest);
  // Splice an unknown TLV (type 200) into the payload: re-encode manually.
  Buffer inner = encode(interest.name);
  append_tlv_number(inner, TlvType::kNonce, interest.nonce);
  Buffer unknown_payload{0xab};
  append_tlv(inner, static_cast<TlvType>(200), unknown_payload);
  Buffer spliced;
  append_tlv(spliced, TlvType::kInterest, inner);
  const Interest decoded = decode_interest(spliced);
  EXPECT_EQ(decoded.name, interest.name);
}

TEST(TlvInterest, TruncationRejected) {
  const Buffer wire = encode([]{ Interest i; i.name = Name("/a/b/c"); return i; }());
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(wire.data(), cut);
    EXPECT_THROW((void)decode_interest(prefix), TlvError) << "cut=" << cut;
  }
}

// ---------------------------------------------------------------------------
// Data codec

TEST(TlvData, FullRoundTrip) {
  Data data = make_data(Name("/cnn/news/private"), "the-payload-bytes", "cnn", "cnn-key",
                        /*producer_private=*/true);
  data.exact_match_only = true;
  data.group_id = "album-9";
  data.freshness_period = util::seconds(30);
  const Data decoded = decode_data(encode(data));
  EXPECT_EQ(decoded.name, data.name);
  EXPECT_EQ(decoded.payload, data.payload);
  EXPECT_EQ(decoded.producer, data.producer);
  EXPECT_EQ(decoded.signature, data.signature);
  EXPECT_TRUE(decoded.producer_private);
  EXPECT_TRUE(decoded.exact_match_only);
  EXPECT_EQ(decoded.group_id, "album-9");
  EXPECT_EQ(decoded.freshness_period, data.freshness_period);
}

TEST(TlvData, DefaultsRoundTrip) {
  const Data data = make_data(Name("/a"), "", "p", "k");
  const Data decoded = decode_data(encode(data));
  EXPECT_FALSE(decoded.producer_private);
  EXPECT_FALSE(decoded.exact_match_only);
  EXPECT_TRUE(decoded.group_id.empty());
  EXPECT_FALSE(decoded.freshness_period.has_value());
  EXPECT_EQ(decoded.signature, data.signature);
}

TEST(TlvData, SignatureSurvivesVerbatim) {
  const Data data = make_data(Name("/a/b"), "payload", "prod", "key");
  const Data decoded = decode_data(encode(data));
  EXPECT_TRUE(crypto::verify_content("key", "/a/b", "payload", decoded.signature));
}

TEST(TlvData, BadSignatureLengthRejected) {
  Buffer inner = encode(Name("/a"));
  Buffer short_sig{1, 2, 3};
  append_tlv(inner, TlvType::kSignatureValue, short_sig);
  Buffer wire;
  append_tlv(wire, TlvType::kData, inner);
  EXPECT_THROW((void)decode_data(wire), TlvError);
}

TEST(TlvData, InterestAndDataNotConfusable) {
  const Data data = make_data(Name("/a"), "x", "p", "k");
  EXPECT_THROW((void)decode_interest(encode(data)), TlvError);
  EXPECT_THROW((void)decode_data(encode([]{ Interest i; i.name = Name("/a"); return i; }())), TlvError);
}

// Property sweep: random packets round-trip bit-exactly.
class TlvFuzzRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TlvFuzzRoundTrip, RandomPacketsRoundTrip) {
  util::Rng rng(GetParam());
  for (int iteration = 0; iteration < 200; ++iteration) {
    Name name;
    const std::size_t depth = 1 + rng.uniform_u64(5);
    for (std::size_t i = 0; i < depth; ++i)
      name = name.append(std::string("c").append(std::to_string(rng.uniform_u64(1000))));

    Interest interest;
    interest.name = name;
    interest.nonce = rng.next_u64();
    if (rng.bernoulli(0.5)) interest.scope = static_cast<int>(1 + rng.uniform_u64(4));
    if (rng.bernoulli(0.5))
      interest.lifetime = static_cast<std::int64_t>(rng.uniform_u64(1'000'000'000));
    interest.must_be_fresh = rng.bernoulli(0.3);
    interest.private_req = rng.bernoulli(0.3);
    const Interest decoded_interest = decode_interest(encode(interest));
    EXPECT_EQ(decoded_interest.name, interest.name);
    EXPECT_EQ(decoded_interest.nonce, interest.nonce);
    EXPECT_EQ(decoded_interest.scope, interest.scope);
    EXPECT_EQ(decoded_interest.lifetime, interest.lifetime);
    EXPECT_EQ(decoded_interest.must_be_fresh, interest.must_be_fresh);
    EXPECT_EQ(decoded_interest.private_req, interest.private_req);

    Data data = make_data(name, std::string(rng.uniform_u64(300), 'q'),
                          std::string("p").append(std::to_string(rng.uniform_u64(10))), "key",
                          rng.bernoulli(0.3));
    data.exact_match_only = rng.bernoulli(0.3);
    if (rng.bernoulli(0.4))
      data.group_id = std::string("g").append(std::to_string(rng.uniform_u64(50)));
    if (rng.bernoulli(0.4))
      data.freshness_period = static_cast<std::int64_t>(rng.uniform_u64(1'000'000'000));
    const Data decoded_data = decode_data(encode(data));
    EXPECT_EQ(decoded_data.name, data.name);
    EXPECT_EQ(decoded_data.payload, data.payload);
    EXPECT_EQ(decoded_data.producer, data.producer);
    EXPECT_EQ(decoded_data.signature, data.signature);
    EXPECT_EQ(decoded_data.producer_private, data.producer_private);
    EXPECT_EQ(decoded_data.exact_match_only, data.exact_match_only);
    EXPECT_EQ(decoded_data.group_id, data.group_id);
    EXPECT_EQ(decoded_data.freshness_period, data.freshness_period);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TlvFuzzRoundTrip, ::testing::Values(11, 22, 33, 44),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Random byte strings must never crash the decoder (throw TlvError or
// decode cleanly, nothing else).
class TlvFuzzDecode : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TlvFuzzDecode, GarbageNeverCrashes) {
  util::Rng rng(GetParam());
  for (int iteration = 0; iteration < 2000; ++iteration) {
    Buffer garbage(rng.uniform_u64(64));
    for (auto& byte : garbage) byte = static_cast<std::uint8_t>(rng.uniform_u64(256));
    try {
      (void)decode_interest(garbage);
    } catch (const TlvError&) {
    } catch (const std::invalid_argument&) {
      // Name validation may reject components containing '/'.
    }
    try {
      (void)decode_data(garbage);
    } catch (const TlvError&) {
    } catch (const std::invalid_argument&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TlvFuzzDecode, ::testing::Values(7, 8),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(TlvWireSize, EncodingSizeTracksEstimate) {
  // Interest::wire_size() is a model, not the codec; they should agree
  // within a small factor so link transmission delays are realistic.
  Interest interest;
  interest.name = Name("/youtube/alice/video-749.avi/137");
  interest.nonce = 123456789;
  const double actual = static_cast<double>(encode(interest).size());
  const double estimate = static_cast<double>(interest.wire_size());
  EXPECT_GT(actual / estimate, 0.5);
  EXPECT_LT(actual / estimate, 2.0);
}

}  // namespace
}  // namespace ndnp::ndn
