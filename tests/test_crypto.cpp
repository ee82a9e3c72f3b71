#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_compress.hpp"
#include "ndn/packet.hpp"
#include "util/rng.hpp"

namespace ndnp::crypto {
namespace {

std::string hex(const Sha256Digest& digest) { return to_hex(digest); }

// FIPS 180-4 / NIST CAVP test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex(Sha256::hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, ExactlyOneBlock) {
  // 64 bytes: padding spills into a second block.
  const std::string msg(64, 'a');
  EXPECT_EQ(hex(Sha256::hash(msg)),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(Sha256, FiftyFiveAndFiftySixBytes) {
  // 55 bytes: length fits in the same block as the terminator; 56: it
  // does not. Both straddle the padding boundary logic.
  EXPECT_EQ(hex(Sha256::hash(std::string(55, 'a'))),
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
  EXPECT_EQ(hex(Sha256::hash(std::string(56, 'a'))),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog, repeatedly";
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(std::string_view(msg).substr(0, split));
    h.update(std::string_view(msg).substr(split));
    EXPECT_EQ(h.finish(), Sha256::hash(msg)) << "split at " << split;
  }
}

TEST(Sha256, DigestPrefixHex) {
  const Sha256Digest d = Sha256::hash("abc");
  EXPECT_EQ(digest_prefix_hex(d, 8), "ba7816bf");
  EXPECT_EQ(digest_prefix_hex(d, 64), hex(d));
  EXPECT_THROW((void)digest_prefix_hex(d, 65), std::invalid_argument);
}

TEST(ToHex, Basic) {
  const std::vector<std::uint8_t> bytes{0x00, 0x0f, 0xa5, 0xff};
  EXPECT_EQ(to_hex(bytes), "000fa5ff");
}

// RFC 4231 HMAC-SHA-256 test cases.
TEST(HmacSha256, Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, std::span<const std::uint8_t>(
                                        reinterpret_cast<const std::uint8_t*>("Hi There"), 8))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256("Jefe", "what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  const std::vector<std::uint8_t> key(20, 0xaa);
  const std::vector<std::uint8_t> data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, Rfc4231Case6LongKey) {
  // Key longer than the block size must be hashed first.
  const std::vector<std::uint8_t> key(131, 0xaa);
  const std::string data = "Test Using Larger Than Block-Size Key - Hash Key First";
  EXPECT_EQ(to_hex(hmac_sha256(key, std::span<const std::uint8_t>(
                                        reinterpret_cast<const std::uint8_t*>(data.data()),
                                        data.size()))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, DifferentKeysDifferentMacs) {
  EXPECT_NE(hmac_sha256("key1", "message"), hmac_sha256("key2", "message"));
}

TEST(Prf, Deterministic) {
  const Prf a("shared-secret");
  const Prf b("shared-secret");
  EXPECT_EQ(a.derive("audio", 7), b.derive("audio", 7));
  EXPECT_EQ(a.derive_token("audio", 7), b.derive_token("audio", 7));
}

TEST(Prf, LabelAndCounterSeparate) {
  const Prf prf("secret");
  EXPECT_NE(prf.derive("audio", 1), prf.derive("audio", 2));
  EXPECT_NE(prf.derive("audio", 1), prf.derive("video", 1));
}

TEST(Prf, DomainSeparatorPreventsLabelCounterAmbiguity) {
  const Prf prf("secret");
  // "ab" + counter 0x63... vs "abc" + shifted counter must not collide:
  // the 0x00 separator guarantees injective encoding.
  EXPECT_NE(prf.derive("ab", 0x6300000000000000ULL), prf.derive("abc", 0));
}

TEST(Prf, TokenLengthControlsOutput) {
  const Prf prf("secret");
  EXPECT_EQ(prf.derive_token("l", 0, 16).size(), 16u);
  EXPECT_EQ(prf.derive_token("l", 0, 64).size(), 64u);
}

TEST(Prf, DifferentSecretsDiverge) {
  const Prf a("secret-a");
  const Prf b("secret-b");
  EXPECT_NE(a.derive_token("l", 0), b.derive_token("l", 0));
}

TEST(ContentSignature, SignAndVerify) {
  const auto sig = sign_content("producer-key", "/alice/photo/1", "payload-bytes");
  EXPECT_TRUE(verify_content("producer-key", "/alice/photo/1", "payload-bytes", sig));
}

TEST(ContentSignature, RejectsTamperedPayload) {
  const auto sig = sign_content("producer-key", "/alice/photo/1", "payload-bytes");
  EXPECT_FALSE(verify_content("producer-key", "/alice/photo/1", "tampered", sig));
}

TEST(ContentSignature, RejectsWrongKey) {
  const auto sig = sign_content("producer-key", "/alice/photo/1", "payload");
  EXPECT_FALSE(verify_content("other-key", "/alice/photo/1", "payload", sig));
}

TEST(ContentSignature, NameLengthPrefixPreventsSplicing) {
  // (name="/a", payload="b/c") must not collide with (name="/a/b", "/c").
  EXPECT_NE(sign_content("k", "/a", "b/c"), sign_content("k", "/a/b", "/c"));
}

TEST(ContentSignature, PinnedSignatures) {
  // Signature bytes of make_data, pinned: the signing path's output must
  // not move with its implementation.
  const auto sig = [](std::size_t payload_size) {
    return to_hex(ndn::make_data(ndn::Name("/web/dom1/obj1"), std::string(payload_size, 'x'),
                                 "dom1", "origin-key")
                      .signature);
  };
  EXPECT_EQ(sig(0), "eca1e2e09bba5b6f3b29b52722cd3d6a4248ece56dcbb3a6c909c8eb80c51341");
  EXPECT_EQ(sig(64), "8ac8197694dc8e8273663cfac1a374387f0a752cd3e9ef7058b23274f828097a");
  EXPECT_EQ(sig(8192), "b075fe7c8ffe0e24c8dd0b2096f9ea401d0859dd2108b62ea80be422973a7c0a");
}

TEST(HmacSha256, StreamedMatchesOneShot) {
  const std::string key = "producer-key";
  const std::string msg(300, 'm');
  for (const std::size_t split : {0, 1, 55, 64, 65, 128, 299, 300}) {
    HmacSha256 mac(key);
    mac.update(std::string_view(msg).substr(0, split));
    mac.update(std::string_view(msg).substr(split));
    EXPECT_EQ(mac.finish(), hmac_sha256(key, msg)) << "split at " << split;
  }
}

TEST(HmacSha256, KeyedCopyIsReusable) {
  const HmacSha256 keyed("Jefe");
  for (int i = 0; i < 2; ++i) {
    HmacSha256 mac = keyed;
    mac.update("what do ya want for nothing?");
    EXPECT_EQ(hex(mac.finish()),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  }
}

// --- Each compression function, explicitly --------------------------------
// The dispatched compression exercises only one of them on a given host, so
// the vectors run through each by name. The SHA-NI cases skip on CPUs (or
// architectures) without the SHA extensions.

class Sha256Compression : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() != "shani") return;
#if defined(__x86_64__)
    if (!cpu_has_sha_extensions()) GTEST_SKIP() << "CPU lacks the SHA extensions";
    compress_ = compress_shani;
#else
    GTEST_SKIP() << "the SHA extensions are x86-64 only";
#endif
  }

  [[nodiscard]] std::string hash(std::string_view msg) const {
    Sha256 h(compress_);
    h.update(msg);
    return hex(h.finish());
  }

  /// HMAC written out from its definition over this compression.
  [[nodiscard]] std::string hmac(std::string_view key, std::string_view msg) const {
    std::string block_key(kSha256BlockSize, '\0');
    if (key.size() > kSha256BlockSize) {
      Sha256 h(compress_);
      h.update(key);
      const Sha256Digest d = h.finish();
      std::copy(d.begin(), d.end(), block_key.begin());
    } else {
      std::copy(key.begin(), key.end(), block_key.begin());
    }
    std::string ipad = block_key;
    std::string opad = block_key;
    for (std::size_t i = 0; i < kSha256BlockSize; ++i) {
      ipad[i] = static_cast<char>(ipad[i] ^ 0x36);
      opad[i] = static_cast<char>(opad[i] ^ 0x5c);
    }
    Sha256 inner(compress_);
    inner.update(ipad);
    inner.update(msg);
    const Sha256Digest inner_digest = inner.finish();
    Sha256 outer(compress_);
    outer.update(opad);
    outer.update(inner_digest);
    return hex(outer.finish());
  }

  Sha256Compress compress_ = compress_portable;
};

TEST_P(Sha256Compression, NistVectors) {
  EXPECT_EQ(hash(""), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hash("abc"), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(hash("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
                 "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  EXPECT_EQ(hash(std::string(55, 'a')),
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
  EXPECT_EQ(hash(std::string(56, 'a')),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
  EXPECT_EQ(hash(std::string(64, 'a')),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
  EXPECT_EQ(hash(std::string(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256Compression, Rfc4231Vectors) {
  EXPECT_EQ(hmac(std::string(20, '\x0b'), "Hi There"),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  EXPECT_EQ(hmac("Jefe", "what do ya want for nothing?"),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  EXPECT_EQ(hmac(std::string(20, '\xaa'), std::string(50, '\xdd')),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
  std::string key4;
  for (char c = 0x01; c <= 0x19; ++c) key4.push_back(c);
  EXPECT_EQ(hmac(key4, std::string(50, '\xcd')),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
  EXPECT_EQ(hmac(std::string(131, '\xaa'), "Test Using Larger Than Block-Size Key - Hash Key First"),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
  EXPECT_EQ(hmac(std::string(131, '\xaa'),
                 "This is a test using a larger than block-size key and a larger than "
                 "block-size data. The key needs to be hashed before being used by the HMAC "
                 "algorithm."),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST_P(Sha256Compression, MatchesLibraryHmac) {
  // The library's HmacSha256 runs over the dispatched compression.
  for (const std::size_t n : {0, 1, 63, 64, 65, 1000}) {
    const std::string msg(n, 'q');
    EXPECT_EQ(hmac("origin-key", msg), hex(hmac_sha256("origin-key", msg))) << n << " bytes";
  }
}

INSTANTIATE_TEST_SUITE_P(Implementations, Sha256Compression,
                         ::testing::Values("portable", "shani"),
                         [](const ::testing::TestParamInfo<std::string>& param_info) {
                           return param_info.param;
                         });

TEST(Sha256Dispatch, PicksShaniExactlyWhenTheCpuHasIt) {
#if defined(__x86_64__)
  EXPECT_EQ(dispatched_compress() == &compress_shani, cpu_has_sha_extensions());
#endif
  EXPECT_EQ(dispatched_compress() == &compress_portable, !cpu_has_sha_extensions());
}

TEST(Sha256Dispatch, PortableAndShaniAgreeOnRandomSplits) {
#if defined(__x86_64__)
  if (!cpu_has_sha_extensions()) GTEST_SKIP() << "CPU lacks the SHA extensions";
  // Every length 0..1100 (all padding positions, up to 17 blocks) plus
  // 8 KiB, each fed to both in the same random chunks.
  util::Rng rng(1804);
  std::vector<std::size_t> lengths(1101);
  for (std::size_t n = 0; n < lengths.size(); ++n) lengths[n] = n;
  lengths.push_back(8192);
  for (const std::size_t n : lengths) {
    std::vector<std::uint8_t> msg(n);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u64());
    Sha256 portable(compress_portable);
    Sha256 shani(compress_shani);
    for (std::size_t at = 0; at < n;) {
      const std::size_t take =
          std::min<std::size_t>(n - at, 1 + rng.uniform_u64(rng.bernoulli(0.5) ? 8 : 300));
      const std::span<const std::uint8_t> chunk(msg.data() + at, take);
      portable.update(chunk);
      shani.update(chunk);
      at += take;
    }
    const Sha256Digest expected = portable.finish();
    ASSERT_EQ(hex(shani.finish()), hex(expected)) << n << " bytes";
    ASSERT_EQ(hex(Sha256::hash(msg)), hex(expected)) << n << " bytes, one shot";
  }
#else
  GTEST_SKIP() << "the SHA extensions are x86-64 only";
#endif
}

}  // namespace
}  // namespace ndnp::crypto
