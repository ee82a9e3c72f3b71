#include "lint/rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>

namespace ndnp::lint {

namespace {

[[nodiscard]] bool is_ident_char(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

[[nodiscard]] bool is_space(char c) noexcept {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

/// All code lines of a file joined by '\n', with an offset -> line map, so
/// rules can match constructs that span physical lines (declarations,
/// macro argument lists) and still report 1-based line numbers.
struct JoinedCode {
  std::string text;
  std::vector<std::size_t> line_starts;  // offset of each line's first char
  std::vector<bool> preprocessor;        // per line

  explicit JoinedCode(const LexedFile& lexed) {
    for (const LexedLine& line : lexed.lines) {
      line_starts.push_back(text.size());
      preprocessor.push_back(line.preprocessor);
      text += line.code;
      text += '\n';
    }
  }

  /// 1-based line number containing `offset`.
  [[nodiscard]] std::size_t line_of(std::size_t offset) const {
    const auto it = std::upper_bound(line_starts.begin(), line_starts.end(), offset);
    return static_cast<std::size_t>(it - line_starts.begin());
  }

  [[nodiscard]] bool on_preprocessor_line(std::size_t offset) const {
    return preprocessor[line_of(offset) - 1];
  }
};

[[nodiscard]] std::string trimmed(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return std::string(s.substr(b, e - b));
}

/// Trimmed code view of 1-based line `line` — the finding excerpt.
[[nodiscard]] std::string excerpt_of(const SourceFile& file, std::size_t line) {
  if (line == 0 || line > file.lexed.lines.size()) return {};
  return trimmed(file.lexed.lines[line - 1].code);
}

void add_finding(const SourceFile& file, std::vector<Finding>& out, std::string_view rule,
                 std::size_t line, std::string message) {
  out.push_back(Finding{.rule = std::string(rule),
                        .file = file.path,
                        .line = line,
                        .message = std::move(message),
                        .excerpt = excerpt_of(file, line)});
}

/// Last non-whitespace character strictly before `pos`, or '\0'.
[[nodiscard]] char prev_nonspace(const std::string& text, std::size_t pos) noexcept {
  while (pos > 0) {
    const char c = text[--pos];
    if (!is_space(c)) return c;
  }
  return '\0';
}

/// First non-whitespace character at or after `pos`, or '\0'.
[[nodiscard]] char next_nonspace(const std::string& text, std::size_t pos) noexcept {
  while (pos < text.size()) {
    const char c = text[pos++];
    if (!is_space(c)) return c;
  }
  return '\0';
}

/// Calls `fn(token, offset)` for every identifier token in `text`.
template <typename Fn>
void for_each_identifier(const std::string& text, Fn&& fn) {
  const std::size_t n = text.size();
  std::size_t i = 0;
  while (i < n) {
    if (is_ident_char(text[i])) {
      const std::size_t start = i;
      while (i < n && (is_ident_char(text[i]) || text[i] == '\'')) ++i;
      // Numeric literals (and their suffixes) are not identifiers.
      if (std::isdigit(static_cast<unsigned char>(text[start])) == 0)
        fn(std::string_view(text).substr(start, i - start), start);
    } else {
      ++i;
    }
  }
}

/// True when the identifier at `offset` is member access (`x.f`, `x->f`)
/// rather than a free or qualified name.
[[nodiscard]] bool is_member_access(const std::string& text, std::size_t offset) noexcept {
  std::size_t pos = offset;
  while (pos > 0 && is_space(text[pos - 1])) --pos;
  if (pos == 0) return false;
  if (text[pos - 1] == '.') return true;
  return pos >= 2 && text[pos - 2] == '-' && text[pos - 1] == '>';
}

/// True when `text` contains `word` as a whole identifier token.
[[nodiscard]] bool contains_word(std::string_view text, std::string_view word) noexcept {
  std::size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(text[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= text.size() || !is_ident_char(text[end]);
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

/// Offset one past the parenthesized group opening at `open` (which must
/// point at '('), honouring nesting; npos when unbalanced.
[[nodiscard]] std::size_t matching_paren(const std::string& text, std::size_t open) noexcept {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')' && --depth == 0) return i;
  }
  return std::string::npos;
}

// ---------------------------------------------------------------------------
// determinism-rand

class DeterminismRandRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const noexcept override { return "determinism-rand"; }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "libc/<random> entropy sources on simulation paths; draw through util::Rng";
  }
  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    static constexpr std::array<std::string_view, 14> kBannedAlways = {
        "srand",       "rand_r",        "drand48",      "lrand48",
        "mrand48",     "random_device", "mt19937",      "mt19937_64",
        "minstd_rand", "minstd_rand0",  "knuth_b",      "ranlux24_base",
        "ranlux48_base", "default_random_engine",
    };
    const JoinedCode joined(file.lexed);
    for_each_identifier(joined.text, [&](std::string_view token, std::size_t offset) {
      const bool always = std::find(kBannedAlways.begin(), kBannedAlways.end(), token) !=
                          kBannedAlways.end();
      // `rand` / `random` only as direct calls: members named e.g.
      // `x.rand()` would be our own seeded helpers.
      const bool call_only = (token == "rand" || token == "random") &&
                             next_nonspace(joined.text, offset + token.size()) == '(' &&
                             !is_member_access(joined.text, offset);
      if (always || call_only)
        add_finding(file, out, id(), joined.line_of(offset),
                    "nondeterministic random primitive '" + std::string(token) +
                        "' — draw through util::Rng seeded from the run seed");
    });
  }
};

// ---------------------------------------------------------------------------
// determinism-wallclock

class DeterminismWallclockRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const noexcept override { return "determinism-wallclock"; }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "wall-clock reads on simulation paths; simulated time is util::SimTime";
  }
  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    static constexpr std::array<std::string_view, 12> kBannedAlways = {
        "system_clock", "high_resolution_clock", "steady_clock", "gettimeofday",
        "clock_gettime", "timespec_get",         "localtime",    "localtime_r",
        "gmtime",        "gmtime_r",             "mktime",       "ftime",
    };
    const JoinedCode joined(file.lexed);
    for_each_identifier(joined.text, [&](std::string_view token, std::size_t offset) {
      const bool always = std::find(kBannedAlways.begin(), kBannedAlways.end(), token) !=
                          kBannedAlways.end();
      // `time(...)` / `clock(...)` as free or std-qualified calls; member
      // calls (`scheduler.clock()`) are simulation accessors, not libc.
      const bool call_only = (token == "time" || token == "clock") &&
                             next_nonspace(joined.text, offset + token.size()) == '(' &&
                             !is_member_access(joined.text, offset);
      if (always || call_only)
        add_finding(file, out, id(), joined.line_of(offset),
                    "wall-clock primitive '" + std::string(token) +
                        "' on a simulation path — use util::SimTime from the scheduler");
    });
  }
};

// ---------------------------------------------------------------------------
// determinism-unordered-iteration

class UnorderedIterationRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const noexcept override {
    return "determinism-unordered-iteration";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "iteration over std::unordered_* observes implementation-defined order";
  }
  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    static constexpr std::array<std::string_view, 4> kUnordered = {
        "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};
    const JoinedCode joined(file.lexed);
    const std::string& text = joined.text;

    // Pass 1: collect names of variables/members declared with an
    // unordered container type (template argument list skipped by <>
    // depth). Members are typically declared in the companion header and
    // iterated in the .cpp, so both code views contribute declarations.
    std::vector<std::string> tracked;
    const auto collect_declarations = [&tracked](const std::string& code) {
      for_each_identifier(code, [&](std::string_view token, std::size_t offset) {
        if (std::find(kUnordered.begin(), kUnordered.end(), token) == kUnordered.end()) return;
        std::size_t i = offset + token.size();
        while (i < code.size() && is_space(code[i])) ++i;
        if (i >= code.size() || code[i] != '<') return;  // e.g. an #include token
        int depth = 0;
        for (; i < code.size(); ++i) {
          if (code[i] == '<') ++depth;
          if (code[i] == '>' && --depth == 0) {
            ++i;
            break;
          }
        }
        // Skip declarator decorations, then read the declared name.
        while (i < code.size() && (is_space(code[i]) || code[i] == '&' || code[i] == '*')) ++i;
        std::size_t name_start = i;
        while (i < code.size() && is_ident_char(code[i])) ++i;
        if (i > name_start) tracked.emplace_back(code.substr(name_start, i - name_start));
      });
    };
    collect_declarations(text);
    const JoinedCode companion(file.companion);
    collect_declarations(companion.text);

    // Pass 2a: explicit iterator acquisition on a tracked name.
    static constexpr std::array<std::string_view, 4> kIterFns = {"begin", "cbegin", "rbegin",
                                                                 "crbegin"};
    for_each_identifier(text, [&](std::string_view token, std::size_t offset) {
      if (std::find(kIterFns.begin(), kIterFns.end(), token) == kIterFns.end()) return;
      if (!is_member_access(text, offset)) return;
      // Identifier immediately before the `.` / `->`.
      std::size_t pos = offset;
      while (pos > 0 && is_space(text[pos - 1])) --pos;
      if (pos >= 2 && text[pos - 2] == '-' && text[pos - 1] == '>')
        pos -= 2;
      else if (pos >= 1 && text[pos - 1] == '.')
        pos -= 1;
      std::size_t name_end = pos;
      while (pos > 0 && is_ident_char(text[pos - 1])) --pos;
      const std::string name = text.substr(pos, name_end - pos);
      if (std::find(tracked.begin(), tracked.end(), name) != tracked.end())
        add_finding(file, out, id(), joined.line_of(offset),
                    "iterator over unordered container '" + name +
                        "' — order is implementation-defined; use an ordered container or "
                        "sort the results");
    });

    // Pass 2b: range-for whose range expression names a tracked container.
    for_each_identifier(text, [&](std::string_view token, std::size_t offset) {
      if (token != "for") return;
      std::size_t open = offset + token.size();
      while (open < text.size() && is_space(text[open])) ++open;
      if (open >= text.size() || text[open] != '(') return;
      const std::size_t close = matching_paren(text, open);
      if (close == std::string::npos) return;
      const std::string_view head = std::string_view(text).substr(open + 1, close - open - 1);
      // Top-level ':' (range-for separator), skipping '::' qualifiers and
      // one ':' per pending '?' (ternaries in an init-statement).
      std::size_t colon = std::string_view::npos;
      int depth = 0;
      int pending_ternary = 0;
      for (std::size_t k = 0; k < head.size(); ++k) {
        const char c = head[k];
        if (c == '(' || c == '[' || c == '{') ++depth;
        if (c == ')' || c == ']' || c == '}') --depth;
        if (c == '?' && depth == 0) ++pending_ternary;
        if (c == ':' && depth == 0) {
          if ((k + 1 < head.size() && head[k + 1] == ':') || (k > 0 && head[k - 1] == ':'))
            continue;
          if (pending_ternary > 0) {
            --pending_ternary;
            continue;
          }
          colon = k;
          break;
        }
      }
      if (colon == std::string_view::npos) return;
      const std::string_view range = head.substr(colon + 1);
      for (const std::string& name : tracked) {
        if (contains_word(range, name)) {
          add_finding(file, out, id(), joined.line_of(offset),
                      "range-for over unordered container '" + name +
                          "' — order is implementation-defined; use an ordered container or "
                          "sort the results");
          break;
        }
      }
    });
  }
};

// ---------------------------------------------------------------------------
// alloc-naked-new

class AllocNakedNewRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const noexcept override { return "alloc-naked-new"; }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "naked new/delete/malloc on simulation paths; use util::Slab / ObjectPool";
  }
  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    static constexpr std::array<std::string_view, 6> kCallBanned = {
        "malloc", "calloc", "realloc", "aligned_alloc", "posix_memalign", "strdup"};
    const JoinedCode joined(file.lexed);
    const std::string& text = joined.text;
    for_each_identifier(text, [&](std::string_view token, std::size_t offset) {
      // Preprocessor lines never allocate: `#include <new>` is not a call,
      // and a #define with an allocation expands at (scanned) use sites.
      if (joined.on_preprocessor_line(offset)) return;
      const char prev = prev_nonspace(text, offset);
      if (token == "new" || token == "delete") {
        // `= delete` declarations and operator new/delete definitions
        // (that is what an allocator layer is) are fine; `p = new X` is not.
        if (token == "delete" && prev == '=') return;
        const std::size_t before = offset >= 16 ? offset - 16 : 0;
        if (std::string_view(text).substr(before, offset - before).find("operator") !=
            std::string_view::npos)
          return;
        add_finding(file, out, id(), joined.line_of(offset),
                    "naked '" + std::string(token) +
                        "' on a simulation path — allocate from util::Slab / util::ObjectPool "
                        "or an owning container");
        return;
      }
      const bool banned_call = std::find(kCallBanned.begin(), kCallBanned.end(), token) !=
                               kCallBanned.end();
      const bool is_free_call = token == "free" && !is_member_access(text, offset);
      if ((banned_call || is_free_call) &&
          next_nonspace(text, offset + token.size()) == '(') {
        add_finding(file, out, id(), joined.line_of(offset),
                    "libc heap call '" + std::string(token) +
                        "' on a simulation path — allocate from util::Slab / util::ObjectPool");
      }
    });
  }
};

// ---------------------------------------------------------------------------
// macro-side-effect

class MacroSideEffectRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const noexcept override { return "macro-side-effect"; }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "side effects inside NDNP_INVARIANT_CHECK / NDNP_TRACE_EVENT argument lists";
  }
  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    static constexpr std::array<std::string_view, 3> kMacros = {
        "NDNP_INVARIANT_CHECK", "NDNP_TRACE_EVENT", "NDNP_TRACE_SCOPE"};
    const JoinedCode joined(file.lexed);
    const std::string& text = joined.text;
    for_each_identifier(text, [&](std::string_view token, std::size_t offset) {
      if (std::find(kMacros.begin(), kMacros.end(), token) == kMacros.end()) return;
      if (joined.on_preprocessor_line(offset)) return;  // the #define itself
      std::size_t open = offset + token.size();
      while (open < text.size() && is_space(text[open])) ++open;
      if (open >= text.size() || text[open] != '(') return;
      const std::size_t close = matching_paren(text, open);
      if (close == std::string::npos) return;
      const std::string_view args = std::string_view(text).substr(open + 1, close - open - 1);
      std::size_t bad = std::string_view::npos;
      std::string what;
      for (std::size_t k = 0; k + 1 <= args.size() && bad == std::string_view::npos; ++k) {
        const char c = args[k];
        const char next = k + 1 < args.size() ? args[k + 1] : '\0';
        if ((c == '+' && next == '+') || (c == '-' && next == '-')) {
          bad = k;
          what = c == '+' ? "'++'" : "'--'";
        } else if (c == '=' && next != '=') {
          const char before = k > 0 ? args[k - 1] : '\0';
          if (before == '=' || before == '<' || before == '>' || before == '!') continue;
          bad = k;
          if (before == '+' || before == '-' || before == '*' || before == '/' ||
              before == '%' || before == '&' || before == '|' || before == '^') {
            what = std::string("'") + before + "='";
          } else {
            what = "assignment";
          }
        }
      }
      if (bad != std::string_view::npos)
        add_finding(file, out, id(), joined.line_of(open + 1 + bad),
                    std::string(token) + " argument contains " + what +
                        " — trace arguments run only while a tracer is bound and "
                        "invariant messages only on failure, so side effects there "
                        "make runs differ or hide inside an assertion");
    });
  }
};

// ---------------------------------------------------------------------------
// header-pragma-once

class HeaderPragmaOnceRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const noexcept override { return "header-pragma-once"; }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "headers must carry #pragma once";
  }
  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    if (!file.is_header) return;
    for (const LexedLine& line : file.lexed.lines) {
      if (!line.preprocessor) continue;
      const std::string t = trimmed(line.code);
      if (t.rfind("#", 0) == 0 && t.find("pragma") != std::string::npos &&
          contains_word(t, "once"))
        return;
    }
    add_finding(file, out, id(), 1, "header is missing '#pragma once'");
  }
};

// ---------------------------------------------------------------------------
// header-using-namespace

class HeaderUsingNamespaceRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const noexcept override { return "header-using-namespace"; }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "using-namespace directives in headers leak into every includer";
  }
  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    if (!file.is_header) return;
    const JoinedCode joined(file.lexed);
    const std::string& text = joined.text;
    for_each_identifier(text, [&](std::string_view token, std::size_t offset) {
      if (token != "using") return;
      std::size_t i = offset + token.size();
      while (i < text.size() && is_space(text[i])) ++i;
      const std::size_t ns_start = i;
      while (i < text.size() && is_ident_char(text[i])) ++i;
      if (std::string_view(text).substr(ns_start, i - ns_start) == "namespace")
        add_finding(file, out, id(), joined.line_of(offset),
                    "'using namespace' in a header — qualify names or alias instead");
    });
  }
};

}  // namespace

std::vector<std::shared_ptr<const Rule>> make_default_rules() {
  std::vector<std::shared_ptr<const Rule>> rules;
  rules.push_back(std::make_shared<AllocNakedNewRule>());
  rules.push_back(std::make_shared<DeterminismRandRule>());
  rules.push_back(std::make_shared<UnorderedIterationRule>());
  rules.push_back(std::make_shared<DeterminismWallclockRule>());
  rules.push_back(std::make_shared<HeaderPragmaOnceRule>());
  rules.push_back(std::make_shared<HeaderUsingNamespaceRule>());
  rules.push_back(std::make_shared<MacroSideEffectRule>());
  return rules;
}

}  // namespace ndnp::lint
