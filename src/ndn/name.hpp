// NDN hierarchical names.
//
// An NDN name is a sequence of variable-length components that are opaque
// to the network; "/cnn/news/2013may20" has components {"cnn", "news",
// "2013may20"}. Matching is by prefix: content named X satisfies an
// interest for N iff N is a prefix of X (Section II, footnote 2).
//
// Names are the key type of the CS/PIT/FIB and travel in every packet, so
// a Name is flat: one array of 16-bit words holding the component end
// offsets followed by the component bytes. The array lives inline (52
// bytes: e.g. six components of 40 bytes in total) and spills to one owned
// heap buffer only for longer names, so copying, slicing (prefix) and
// comparing a typical name never allocates. A name holds at most
// kMaxBytes bytes; every constructor throws past that rather than wrap an
// offset.
#pragma once

#include <compare>
#include <cstdint>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <memory>
#include <ranges>
#include <string>
#include <string_view>
#include <vector>

namespace ndnp::ndn {

class Name {
 public:
  /// Largest total component byte length (and so component count, as a
  /// component is never empty) a name can hold: its offsets are 16-bit.
  static constexpr std::size_t kMaxBytes = 0xffff;

  /// Empty name ("/"), the root prefix — it is a prefix of every name.
  Name() noexcept {}

  /// Parse a URI like "/cnn/news/2013may20". A leading '/' is required for
  /// non-empty names; empty components ("//") are rejected; "%XX" escapes
  /// decode to raw bytes. Throws std::invalid_argument on malformed input
  /// or a name longer than kMaxBytes.
  explicit Name(std::string_view uri);

  Name(std::initializer_list<std::string_view> components);
  explicit Name(const std::vector<std::string>& components);

  Name(const Name& other) : size_(other.size_), bytes_(other.bytes_) {
    if (other.heap_)
      heap_ = std::make_unique_for_overwrite<std::uint16_t[]>(words_for(size_, bytes_));
    std::memcpy(words(), other.words(), other.storage_bytes());
  }

  Name(Name&& other) noexcept
      : heap_(std::move(other.heap_)), size_(other.size_), bytes_(other.bytes_) {
    if (!heap_) std::memcpy(inline_, other.inline_, storage_bytes());
    other.size_ = other.bytes_ = 0;
  }

  Name& operator=(const Name& other) {
    if (this != &other) {
      std::unique_ptr<std::uint16_t[]> heap;
      if (other.heap_) {
        heap = std::make_unique_for_overwrite<std::uint16_t[]>(
            words_for(other.size_, other.bytes_));
      }
      heap_ = std::move(heap);
      size_ = other.size_;
      bytes_ = other.bytes_;
      std::memcpy(words(), other.words(), storage_bytes());
    }
    return *this;
  }

  Name& operator=(Name&& other) noexcept {
    if (this != &other) {
      heap_ = std::move(other.heap_);
      size_ = other.size_;
      bytes_ = other.bytes_;
      if (!heap_) std::memcpy(inline_, other.inline_, storage_bytes());
      other.size_ = other.bytes_ = 0;
    }
    return *this;
  }

  ~Name() = default;

  /// Replace every component. No allocation when the new name fits the
  /// inline storage. Throws like the constructors on an invalid component
  /// or length, leaving the name unchanged.
  void assign(std::initializer_list<std::string_view> components);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Component access; throws std::out_of_range on bad index. The view
  /// points into this name and is invalidated by any change to it.
  [[nodiscard]] std::string_view at(std::size_t i) const;
  [[nodiscard]] std::string_view last() const { return at(size() - 1); }

  /// A view range of every component, as std::string_view, in order.
  [[nodiscard]] auto components() const noexcept {
    return std::views::iota(std::size_t{0}, size()) |
           std::views::transform([this](std::size_t i) { return component(i); });
  }

  /// Returns a copy with `component` appended. Throws on invalid component
  /// (empty, or containing '/') or when the result exceeds kMaxBytes.
  [[nodiscard]] Name append(std::string_view component) const;

  /// Returns a copy with a numeric component appended (e.g. segment ids).
  [[nodiscard]] Name append_number(std::uint64_t n) const;

  /// First `n` components (n clamped to size()).
  [[nodiscard]] Name prefix(std::size_t n) const;

  /// Name without its last component; root stays root.
  [[nodiscard]] Name parent() const;

  /// True iff *this is a (non-strict) prefix of `other` — the NDN content
  /// match relation: an interest for *this is satisfied by content `other`.
  [[nodiscard]] bool is_prefix_of(const Name& other) const noexcept {
    if (size_ > other.size_) return false;
    if (size_ == 0) return true;
    return std::memcmp(ends(), other.ends(), size_ * sizeof(std::uint16_t)) == 0 &&
           std::memcmp(bytes(), other.bytes(), ends()[size_ - 1]) == 0;
  }

  /// Canonical URI form; the empty name prints as "/". Bytes outside
  /// printable ASCII (and '%' itself) are percent-escaped, so any valid
  /// component round-trips through Name(to_uri()).
  [[nodiscard]] std::string to_uri() const;

  /// Stable 64-bit hash (FNV-1a over length-delimited components), for use
  /// as a deterministic key independent of libstdc++'s std::hash.
  [[nodiscard]] std::uint64_t hash64() const noexcept;

  /// All prefix hashes in one pass: calls fn(h) once per depth
  /// d = 0..size() with h == prefix(d).hash64(), in increasing depth
  /// order, so the last call carries hash64(). FNV-1a is
  /// prefix-incremental, so this costs the same as one hash64() call; the
  /// CS/PIT hash indices use it to probe or register an entry under every
  /// prefix depth without rehashing.
  template <typename Fn>
  void visit_prefix_hashes(Fn&& fn) const {
    std::uint64_t h = kFnvOffsetBasis;
    fn(h);
    const std::uint16_t* end = ends();
    const char* const data = bytes();
    std::size_t pos = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      // FNV-1a over length-delimited components; the delimiter byte keeps
      // {"ab","c"} distinct from {"a","bc"}.
      for (; pos < end[i]; ++pos) {
        h ^= static_cast<std::uint8_t>(data[pos]);
        h *= kFnvPrime;
      }
      h ^= 0xffULL;  // boundary marker (components never contain 0xff in practice)
      h *= kFnvPrime;
      fn(h);
    }
  }

  friend bool operator==(const Name& a, const Name& b) noexcept {
    return a.size_ == b.size_ && a.bytes_ == b.bytes_ &&
           std::memcmp(a.words(), b.words(), a.storage_bytes()) == 0;
  }
  /// Component by component, each compared as unsigned bytes (the order of
  /// the std::vector<std::string> this replaced): {"a","b"} < {"ab"}, and
  /// a name sorts right before every name it is a strict prefix of.
  friend std::strong_ordering operator<=>(const Name& a, const Name& b) noexcept;

 private:
  static constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
  static constexpr std::size_t kInlineWords = 26;

  static void validate_component(std::string_view component);

  /// Size a fresh (empty, inline) name's storage for `count` components of
  /// `bytes` bytes in total and return it for the caller to fill: `count`
  /// end offsets, then the bytes. Throws std::invalid_argument past
  /// kMaxBytes before touching *this.
  std::uint16_t* storage_for(std::size_t count, std::size_t bytes);
  /// Construction from components: validate all of them, then copy.
  template <typename Range>
  void fill(const Range& parts);

  [[nodiscard]] std::uint16_t* words() noexcept { return heap_ ? heap_.get() : inline_; }
  [[nodiscard]] const std::uint16_t* words() const noexcept {
    return heap_ ? heap_.get() : inline_;
  }
  [[nodiscard]] const std::uint16_t* ends() const noexcept { return words(); }
  [[nodiscard]] const char* bytes() const noexcept {
    return reinterpret_cast<const char*>(words() + size_);
  }
  [[nodiscard]] std::size_t storage_bytes() const noexcept {
    return size_ * sizeof(std::uint16_t) + bytes_;
  }
  /// Words that hold `count` end offsets and `bytes` bytes.
  [[nodiscard]] static std::size_t words_for(std::size_t count, std::size_t bytes) noexcept {
    return count + (bytes + 1) / 2;
  }
  /// Component i, unchecked.
  [[nodiscard]] std::string_view component(std::size_t i) const noexcept {
    const std::size_t begin = i == 0 ? 0 : ends()[i - 1];
    return {bytes() + begin, ends()[i] - begin};
  }

  /// Null while the name fits inline_.
  std::unique_ptr<std::uint16_t[]> heap_;
  std::uint16_t size_ = 0;   // component count
  std::uint16_t bytes_ = 0;  // total component bytes
  std::uint16_t inline_[kInlineWords]{};
};

static_assert(sizeof(Name) <= 64, "a Name must stay small enough to copy cheaply");

}  // namespace ndnp::ndn

template <>
struct std::hash<ndnp::ndn::Name> {
  std::size_t operator()(const ndnp::ndn::Name& name) const noexcept {
    return static_cast<std::size_t>(name.hash64());
  }
};
