// NDN packet types: Interest and Data.
//
// These mirror the two packet types of the NDN architecture (Section II)
// plus the privacy-relevant fields this paper introduces or exploits:
//  - Interest.scope        — hop limit the timing attacker abuses (scope=2
//                            confines the interest to the first-hop router);
//  - Interest.private_req  — the consumer-driven privacy bit (Section V);
//  - Data.producer_private — the producer-driven privacy marking;
//  - Data.exact_match_only — set for content whose name ends in an
//                            unpredictable `rand` component: such content
//                            must never satisfy a shorter-prefix interest
//                            (footnote 5 of the paper);
//  - Data.group_id         — producer-assigned correlation-group id used by
//                            the grouped Random-Cache variant (Section VI,
//                            "Addressing Content Correlation").
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "crypto/sha256.hpp"
#include "ndn/name.hpp"

namespace ndnp::ndn {

/// Marker component for producer-driven privacy marking by name
/// ("/private" as the last component, Section V).
inline constexpr std::string_view kPrivateNameComponent = "private";

/// True if the name carries the reserved producer privacy marker as its
/// last component.
[[nodiscard]] bool name_marked_private(const Name& name) noexcept;

struct Interest {
  Name name;
  /// Random per-interest value; routers use it to suppress forwarding
  /// loops (a PIT entry remembers seen nonces).
  std::uint64_t nonce = 0;
  /// NDN scope: maximum number of NDN entities the interest may traverse,
  /// *source included*. nullopt = unlimited. scope=2 means "first-hop
  /// router only" — the cache-probing primitive of Section III.
  std::optional<int> scope = std::nullopt;
  /// Consumer-driven privacy bit (Section V): request this content as
  /// private regardless of producer marking.
  bool private_req = false;
  /// Only fresh content may satisfy this interest (stale cached entries
  /// are skipped as if absent).
  bool must_be_fresh = false;
  /// Requested PIT lifetime in nanoseconds; nullopt = router default.
  std::optional<std::int64_t> lifetime = std::nullopt;

  /// Approximate wire size in bytes (type/length framing + name + fields);
  /// used by links that model transmission delay.
  [[nodiscard]] std::size_t wire_size() const noexcept;
};

/// Immutable bytes shared by every copy: copying adds a reference instead
/// of copying the bytes. An empty value owns no buffer.
class SharedBytes {
 public:
  SharedBytes() noexcept = default;
  // Implicit conversions both ways, so `data.payload = "bytes"` and
  // passing a payload where bytes are read stay plain.
  SharedBytes(std::string bytes)  // NOLINT(google-explicit-constructor)
      : bytes_(bytes.empty() ? nullptr
                             : std::make_shared<const std::string>(std::move(bytes))) {}
  SharedBytes(const char* bytes)  // NOLINT(google-explicit-constructor)
      : SharedBytes(std::string(bytes)) {}
  operator std::string_view() const noexcept {  // NOLINT(google-explicit-constructor)
    return view();
  }

  [[nodiscard]] std::string_view view() const noexcept {
    return bytes_ ? std::string_view(*bytes_) : std::string_view();
  }
  [[nodiscard]] std::size_t size() const noexcept { return bytes_ ? bytes_->size() : 0; }

  /// Content equality: two values are equal when their bytes are.
  friend bool operator==(const SharedBytes& a, const SharedBytes& b) noexcept {
    return a.view() == b.view();
  }

 private:
  std::shared_ptr<const std::string> bytes_;
};

/// Data content bytes. A Data forwarded over k hops and cached at every
/// tier holds its producer's buffer exactly once, as routers caching whole
/// signed packets would.
using Payload = SharedBytes;

/// A producer's signing key. A producer builds it once and every Data it
/// makes shares it, so a Data's deferred signature holds no key copy.
using SigningKey = SharedBytes;

/// A Data's simulated signature: HMAC-SHA-256 over (name URI, payload)
/// under the producer's key (crypto::sign_content).
///
/// A produced signature is computed on first read, exactly once, from
/// copies of the inputs frozen when the Data was made; every copy of the
/// Data shares that state and its result, so a Data no one verifies or
/// encodes is never signed. Changing a Data's name or payload afterwards
/// leaves its signature over the original bytes, so tampering stays
/// detectable. A default signature reads as 32 zero bytes and owns
/// nothing; a decoded one carries the bytes it was decoded from.
class Signature {
 public:
  Signature() noexcept = default;
  /// Bytes read off the wire.
  explicit Signature(const crypto::Sha256Digest& bytes);
  /// Deferred: signs (name, payload) with `key` on first read.
  Signature(Name name, Payload payload, SigningKey key);

  /// The signature bytes; the first read of a produced signature signs.
  /// Safe to call from several threads at once.
  [[nodiscard]] const crypto::Sha256Digest& value() const;

  operator const crypto::Sha256Digest&() const {  // NOLINT(google-explicit-constructor)
    return value();
  }
  operator std::span<const std::uint8_t>() const {  // NOLINT(google-explicit-constructor)
    return value();
  }
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const { return value()[i]; }
  [[nodiscard]] static constexpr std::size_t size() noexcept {
    return crypto::kSha256DigestSize;
  }

  friend bool operator==(const Signature& a, const Signature& b) {
    return a.value() == b.value();
  }

 private:
  struct State;
  /// Null for the default (all-zero) signature.
  std::shared_ptr<State> state_;
};

struct Data {
  Name name;
  /// Payload is carried verbatim and shared between copies; experiments
  /// that only need sizes use a buffer of that length.
  Payload payload;
  /// Producer identity — NDN content is signed, which is precisely why the
  /// paper notes producers are identifiable from cached content.
  std::string producer;
  /// Simulated signature over (name, payload) with the producer's key,
  /// computed when first read (see Signature).
  Signature signature;

  /// Producer-driven privacy bit in the content header (Section V).
  bool producer_private = false;
  /// Content must only match interests for its exact full name (set for
  /// unpredictable-name content; footnote 5).
  bool exact_match_only = false;
  /// Correlation group for the grouped Random-Cache variant; empty = none.
  std::string group_id;
  /// Freshness period in nanoseconds: how long after arrival a cached copy
  /// may satisfy MustBeFresh interests. nullopt = always fresh. The paper
  /// notes interactive content goes stale immediately — producers of such
  /// traffic set this to 0.
  std::optional<std::int64_t> freshness_period;

  /// True if this content is private by *producer* decision: header bit or
  /// reserved name component.
  [[nodiscard]] bool producer_marked_private() const noexcept {
    return producer_private || name_marked_private(name);
  }

  /// True if `interest` may be answered by this Data: prefix match, except
  /// exact-match-only content requires full-name equality.
  [[nodiscard]] bool satisfies(const Interest& interest) const noexcept;

  [[nodiscard]] std::size_t wire_size() const noexcept;
};

/// Build a signed Data packet: its signature over (name, payload) with the
/// producer's key is computed when something first reads it, which on the
/// simulated network path is never. The Data shares `payload`'s buffer and
/// `producer_key`, so a producer that answers every request with the same
/// bytes builds them and its key once.
[[nodiscard]] Data make_data(Name name, Payload payload, std::string producer,
                             SigningKey producer_key, bool producer_private = false);

/// Why a network element refused to satisfy an interest.
enum class NackReason {
  kNoRoute,      // no FIB entry toward the content
  kPitOverflow,  // router out of PIT capacity
  kDuplicate,    // looping interest (nonce already seen)
};

[[nodiscard]] std::string_view to_string(NackReason reason) noexcept;

/// Negative acknowledgment: returned downstream instead of Data so
/// consumers can fail fast instead of waiting out their interest lifetime.
struct Nack {
  Interest interest;
  NackReason reason = NackReason::kNoRoute;

  [[nodiscard]] std::size_t wire_size() const noexcept { return interest.wire_size() + 4; }
};

}  // namespace ndnp::ndn
