// NDN hierarchical names.
//
// An NDN name is a sequence of variable-length components that are opaque
// to the network; "/cnn/news/2013may20" has components {"cnn", "news",
// "2013may20"}. Matching is by prefix: content named X satisfies an
// interest for N iff N is a prefix of X (Section II, footnote 2). Names
// are the key type of the CS/PIT/FIB, so Name is cheap to copy (shared
// ownership of the component vector would be overkill at our scale; the
// components themselves use SSO for typical short components).
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace ndnp::ndn {

class Name {
 public:
  /// Empty name ("/"), the root prefix — it is a prefix of every name.
  Name() = default;

  /// Parse a URI like "/cnn/news/2013may20". A leading '/' is required for
  /// non-empty names; empty components ("//") are rejected; "%XX" escapes
  /// decode to raw bytes. Throws std::invalid_argument on malformed input.
  explicit Name(std::string_view uri);

  Name(std::initializer_list<std::string> components);
  explicit Name(std::vector<std::string> components);

  /// Replace every component, reusing this name's storage: no allocation
  /// when the new components fit the old ones' capacity. Throws like the
  /// constructors on an invalid component, leaving the name unchanged.
  void assign(std::initializer_list<std::string_view> components);

  [[nodiscard]] std::size_t size() const noexcept { return components_.size(); }
  [[nodiscard]] bool empty() const noexcept { return components_.empty(); }

  /// Component access; throws std::out_of_range on bad index.
  [[nodiscard]] const std::string& at(std::size_t i) const { return components_.at(i); }
  [[nodiscard]] const std::string& last() const { return components_.at(components_.size() - 1); }
  [[nodiscard]] const std::vector<std::string>& components() const noexcept { return components_; }

  /// Returns a copy with `component` appended. Throws on invalid component
  /// (empty, or containing '/').
  [[nodiscard]] Name append(std::string_view component) const;

  /// Returns a copy with a numeric component appended (e.g. segment ids).
  [[nodiscard]] Name append_number(std::uint64_t n) const;

  /// First `n` components (n clamped to size()).
  [[nodiscard]] Name prefix(std::size_t n) const;

  /// Name without its last component; root stays root.
  [[nodiscard]] Name parent() const;

  /// True iff *this is a (non-strict) prefix of `other` — the NDN content
  /// match relation: an interest for *this is satisfied by content `other`.
  [[nodiscard]] bool is_prefix_of(const Name& other) const noexcept;

  /// Canonical URI form; the empty name prints as "/". Bytes outside
  /// printable ASCII (and '%' itself) are percent-escaped, so any valid
  /// component round-trips through Name(to_uri()).
  [[nodiscard]] std::string to_uri() const;

  /// Stable 64-bit hash (FNV-1a over length-delimited components), for use
  /// as a deterministic key independent of libstdc++'s std::hash.
  [[nodiscard]] std::uint64_t hash64() const noexcept;

  /// All prefix hashes in one pass: out[d] == prefix(d).hash64() for every
  /// depth d in [0, size()], so out.back() == hash64(). FNV-1a is
  /// prefix-incremental, so this costs the same as one hash64() call; the
  /// CS/PIT hash indices use it to register an entry under every prefix
  /// depth without rehashing (hashes are then cached per entry).
  [[nodiscard]] std::vector<std::uint64_t> prefix_hashes() const;

  /// Allocation-free form of prefix_hashes(): calls fn(h) once per depth
  /// d = 0..size() with h == prefix(d).hash64(), in increasing depth
  /// order. Inline so hot paths fold hashing into their own fill loop.
  template <typename Fn>
  void visit_prefix_hashes(Fn&& fn) const {
    std::uint64_t h = kFnvOffsetBasis;
    fn(h);
    for (const auto& component : components_) {
      // FNV-1a over length-delimited components; the delimiter byte keeps
      // {"ab","c"} distinct from {"a","bc"}.
      for (const char ch : component) {
        h ^= static_cast<std::uint8_t>(ch);
        h *= kFnvPrime;
      }
      h ^= 0xffULL;  // boundary marker (components never contain 0xff in practice)
      h *= kFnvPrime;
      fn(h);
    }
  }

  friend bool operator==(const Name&, const Name&) = default;
  friend std::strong_ordering operator<=>(const Name& a, const Name& b) noexcept {
    return a.components_ <=> b.components_;
  }

 private:
  static constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

  static void validate_component(std::string_view component);

  std::vector<std::string> components_;
};

}  // namespace ndnp::ndn

template <>
struct std::hash<ndnp::ndn::Name> {
  std::size_t operator()(const ndnp::ndn::Name& name) const noexcept {
    return static_cast<std::size_t>(name.hash64());
  }
};
