#include "ndn/name.hpp"

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

/// Decode %XX escapes within one component.
[[nodiscard]] std::string unescape_component(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != '%') {
      out.push_back(raw[i]);
      continue;
    }
    if (i + 3 > raw.size())
      throw std::invalid_argument("Name: truncated percent escape");
    const char decoded = static_cast<char>(hex_value(raw[i + 1]) * 16 + hex_value(raw[i + 2]));
    // Keep the library-wide invariant: components never contain '/', not
    // even smuggled through an escape.
    if (decoded == '/')
      throw std::invalid_argument("Name: escaped '/' not allowed in components");
    out.push_back(decoded);
    i += 2;
  }
  return out;
}

}  // namespace

Name::Name(std::string_view uri) {
  if (uri.empty() || uri == "/") return;  // root
  if (uri.front() != '/')
    throw std::invalid_argument("Name: URI must start with '/': " + std::string(uri));
  std::size_t start = 1;
  while (start <= uri.size()) {
    const std::size_t slash = uri.find('/', start);
    const std::size_t end = (slash == std::string_view::npos) ? uri.size() : slash;
    std::string_view component = uri.substr(start, end - start);
    // A single trailing '/' is tolerated ("/a/b/" == "/a/b"); interior
    // empty components are malformed.
    if (component.empty()) {
      if (end == uri.size()) break;
      throw std::invalid_argument("Name: empty component in URI: " + std::string(uri));
    }
    components_.push_back(unescape_component(component));
    if (slash == std::string_view::npos) break;
    start = slash + 1;
  }
}

Name::Name(std::initializer_list<std::string> components) {
  components_.reserve(components.size());
  for (const auto& c : components) {
    validate_component(c);
    components_.push_back(c);
  }
}

Name::Name(std::vector<std::string> components) : components_(std::move(components)) {
  for (const auto& c : components_) validate_component(c);
}

void Name::assign(std::initializer_list<std::string_view> components) {
  for (const std::string_view c : components) validate_component(c);
  components_.resize(components.size());
  auto slot = components_.begin();
  for (const std::string_view c : components) (slot++)->assign(c);
}

Name Name::append(std::string_view component) const {
  validate_component(component);
  Name out = *this;
  out.components_.emplace_back(component);
  return out;
}

Name Name::append_number(std::uint64_t n) const { return append(std::to_string(n)); }

Name Name::prefix(std::size_t n) const {
  Name out;
  const std::size_t take = std::min(n, components_.size());
  out.components_.assign(components_.begin(),
                         components_.begin() + static_cast<std::ptrdiff_t>(take));
  return out;
}

Name Name::parent() const { return empty() ? Name() : prefix(size() - 1); }

bool Name::is_prefix_of(const Name& other) const noexcept {
  if (size() > other.size()) return false;
  for (std::size_t i = 0; i < size(); ++i)
    if (components_[i] != other.components_[i]) return false;
  return true;
}

std::string Name::to_uri() const {
  static constexpr char kHex[] = "0123456789ABCDEF";
  if (empty()) return "/";
  std::string out;
  for (const auto& component : components_) {
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

std::vector<std::uint64_t> Name::prefix_hashes() const {
  std::vector<std::uint64_t> out;
  out.reserve(components_.size() + 1);
  visit_prefix_hashes([&out](std::uint64_t h) { out.push_back(h); });
  return out;
}

void Name::validate_component(std::string_view component) {
  if (component.empty()) throw std::invalid_argument("Name: components must be non-empty");
  if (component.find('/') != std::string_view::npos)
    throw std::invalid_argument("Name: components must not contain '/'");
}

}  // namespace ndnp::ndn
