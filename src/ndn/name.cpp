#include "ndn/name.hpp"

#include <algorithm>
#include <stdexcept>

namespace ndnp::ndn {

namespace {

[[nodiscard]] bool needs_escape(unsigned char c) noexcept {
  return c < 0x21 || c > 0x7e || c == '%';
}

[[nodiscard]] int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("Name: bad hex digit in percent escape");
}

/// Decode the %XX escapes of one component; writes the decoded bytes to
/// `out` unless it is null, and returns how many there are.
std::size_t unescape_component(std::string_view raw, char* out) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < raw.size(); ++i, ++n) {
    char decoded = raw[i];
    if (decoded == '%') {
      if (i + 3 > raw.size())
        throw std::invalid_argument("Name: truncated percent escape");
      decoded = static_cast<char>(hex_value(raw[i + 1]) * 16 + hex_value(raw[i + 2]));
      // Keep the library-wide invariant: components never contain '/', not
      // even smuggled through an escape.
      if (decoded == '/')
        throw std::invalid_argument("Name: escaped '/' not allowed in components");
      i += 2;
    }
    if (out != nullptr) out[n] = decoded;
  }
  return n;
}

/// Calls fn(raw) on every still-escaped component of `uri`, in order.
template <typename Fn>
void for_each_uri_component(std::string_view uri, Fn&& fn) {
  if (uri.empty() || uri == "/") return;  // root
  if (uri.front() != '/')
    throw std::invalid_argument("Name: URI must start with '/': " + std::string(uri));
  std::size_t start = 1;
  while (start <= uri.size()) {
    const std::size_t slash = uri.find('/', start);
    const std::size_t end = (slash == std::string_view::npos) ? uri.size() : slash;
    const std::string_view component = uri.substr(start, end - start);
    // A single trailing '/' is tolerated ("/a/b/" == "/a/b"); interior
    // empty components are malformed.
    if (component.empty()) {
      if (end == uri.size()) break;
      throw std::invalid_argument("Name: empty component in URI: " + std::string(uri));
    }
    fn(component);
    if (slash == std::string_view::npos) break;
    start = slash + 1;
  }
}

}  // namespace

Name::Name(std::string_view uri) {
  // Two passes: validate and size, then decode straight into the storage.
  std::size_t count = 0;
  std::size_t total = 0;
  for_each_uri_component(uri, [&](std::string_view raw) {
    ++count;
    total += unescape_component(raw, nullptr);
  });
  std::uint16_t* const end = storage_for(count, total);
  char* const out = reinterpret_cast<char*>(end + count);
  std::size_t pos = 0;
  std::size_t i = 0;
  for_each_uri_component(uri, [&](std::string_view raw) {
    pos += unescape_component(raw, out + pos);
    end[i++] = static_cast<std::uint16_t>(pos);
  });
}

Name::Name(std::initializer_list<std::string_view> components) { fill(components); }

Name::Name(const std::vector<std::string>& components) { fill(components); }

void Name::assign(std::initializer_list<std::string_view> components) {
  // Built aside first: the components may view into this very name.
  *this = Name(components);
}

template <typename Range>
void Name::fill(const Range& parts) {
  std::size_t total = 0;
  for (const std::string_view part : parts) {
    validate_component(part);
    total += part.size();
  }
  std::uint16_t* end = storage_for(std::size(parts), total);
  char* const out = reinterpret_cast<char*>(end + size_);
  std::size_t pos = 0;
  for (const std::string_view part : parts) {
    std::memcpy(out + pos, part.data(), part.size());
    pos += part.size();
    *end++ = static_cast<std::uint16_t>(pos);
  }
}

std::uint16_t* Name::storage_for(std::size_t count, std::size_t bytes) {
  if (bytes > kMaxBytes || count > kMaxBytes)
    throw std::invalid_argument("Name: longer than 65535 bytes");
  const std::size_t words = words_for(count, bytes);
  if (words > kInlineWords) heap_ = std::make_unique_for_overwrite<std::uint16_t[]>(words);
  size_ = static_cast<std::uint16_t>(count);
  bytes_ = static_cast<std::uint16_t>(bytes);
  return this->words();
}

std::string_view Name::at(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("Name::at: component index out of range");
  return component(i);
}

Name Name::append(std::string_view component) const {
  validate_component(component);
  Name out;
  std::uint16_t* const end = out.storage_for(size_ + 1u, bytes_ + component.size());
  std::memcpy(end, ends(), size_ * sizeof(std::uint16_t));
  end[size_] = out.bytes_;
  char* const data = reinterpret_cast<char*>(end + out.size_);
  std::memcpy(data, bytes(), bytes_);
  std::memcpy(data + bytes_, component.data(), component.size());
  return out;
}

Name Name::append_number(std::uint64_t n) const { return append(std::to_string(n)); }

Name Name::prefix(std::size_t n) const {
  const std::size_t take = std::min<std::size_t>(n, size_);
  const std::size_t length = take == 0 ? 0 : ends()[take - 1];
  Name out;
  std::uint16_t* const end = out.storage_for(take, length);
  std::memcpy(end, ends(), take * sizeof(std::uint16_t));
  std::memcpy(end + take, bytes(), length);
  return out;
}

Name Name::parent() const { return empty() ? Name() : prefix(size() - 1); }

std::strong_ordering operator<=>(const Name& a, const Name& b) noexcept {
  const std::size_t common = std::min(a.size_, b.size_);
  const std::uint16_t* const a_end = a.ends();
  const std::uint16_t* const b_end = b.ends();
  std::size_t a_begin = 0;
  std::size_t b_begin = 0;
  for (std::size_t i = 0; i < common; ++i) {
    const std::size_t a_len = a_end[i] - a_begin;
    const std::size_t b_len = b_end[i] - b_begin;
    const int cmp =
        std::memcmp(a.bytes() + a_begin, b.bytes() + b_begin, std::min(a_len, b_len));
    if (cmp != 0) return cmp <=> 0;
    if (a_len != b_len) return a_len <=> b_len;
    a_begin = a_end[i];
    b_begin = b_end[i];
  }
  return a.size_ <=> b.size_;
}

std::string Name::to_uri() const {
  static constexpr char kHex[] = "0123456789ABCDEF";
  if (empty()) return "/";
  std::string out;
  out.reserve(size_ + bytes_);
  for (const std::string_view component : components()) {
    out.push_back('/');
    for (const char ch : component) {
      const auto byte = static_cast<unsigned char>(ch);
      if (needs_escape(byte)) {
        out.push_back('%');
        out.push_back(kHex[byte >> 4]);
        out.push_back(kHex[byte & 0x0f]);
      } else {
        out.push_back(ch);
      }
    }
  }
  return out;
}

std::uint64_t Name::hash64() const noexcept {
  std::uint64_t out = kFnvOffsetBasis;
  visit_prefix_hashes([&out](std::uint64_t h) { out = h; });
  return out;
}

void Name::validate_component(std::string_view component) {
  if (component.empty()) throw std::invalid_argument("Name: components must be non-empty");
  if (component.find('/') != std::string_view::npos)
    throw std::invalid_argument("Name: components must not contain '/'");
}

}  // namespace ndnp::ndn
