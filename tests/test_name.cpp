#include "ndn/name.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace ndnp::ndn {
namespace {

TEST(Name, DefaultIsRoot) {
  const Name root;
  EXPECT_TRUE(root.empty());
  EXPECT_EQ(root.size(), 0u);
  EXPECT_EQ(root.to_uri(), "/");
}

TEST(Name, ParsesUri) {
  const Name name("/cnn/news/2013may20");
  ASSERT_EQ(name.size(), 3u);
  EXPECT_EQ(name.at(0), "cnn");
  EXPECT_EQ(name.at(1), "news");
  EXPECT_EQ(name.at(2), "2013may20");
  EXPECT_EQ(name.last(), "2013may20");
}

TEST(Name, RootUriFormsParse) {
  EXPECT_TRUE(Name("/").empty());
  EXPECT_TRUE(Name("").empty());
}

TEST(Name, TrailingSlashTolerated) {
  EXPECT_EQ(Name("/a/b/"), Name("/a/b"));
}

TEST(Name, RejectsMalformedUris) {
  EXPECT_THROW(Name("no-leading-slash"), std::invalid_argument);
  EXPECT_THROW(Name("/a//b"), std::invalid_argument);
}

TEST(Name, RoundTripsThroughUri) {
  for (const char* uri : {"/a", "/a/b/c", "/youtube/alice/video-749.avi/137"}) {
    EXPECT_EQ(Name(uri).to_uri(), uri);
  }
}

TEST(Name, InitializerListAndVectorConstruction) {
  const Name a{"a", "b"};
  EXPECT_EQ(a.to_uri(), "/a/b");
  const Name b(std::vector<std::string>{"x", "y", "z"});
  EXPECT_EQ(b.to_uri(), "/x/y/z");
}

TEST(Name, ConstructionValidatesComponents) {
  EXPECT_THROW(Name({"ok", ""}), std::invalid_argument);
  EXPECT_THROW(Name({"with/slash"}), std::invalid_argument);
  EXPECT_THROW(Name(std::vector<std::string>{""}), std::invalid_argument);
}

TEST(Name, AssignReplacesComponentsAndValidates) {
  Name name{"a", "b", "c"};
  name.assign({"web", "dom7", "obj42"});
  EXPECT_EQ(name, Name("/web/dom7/obj42"));
  name.assign({"x"});
  EXPECT_EQ(name, Name("/x"));
  // A bad component leaves the name as it was.
  EXPECT_THROW(name.assign({"ok", "with/slash"}), std::invalid_argument);
  EXPECT_THROW(name.assign({""}), std::invalid_argument);
  EXPECT_EQ(name, Name("/x"));
}

TEST(Name, AppendReturnsNewName) {
  const Name base("/a");
  const Name extended = base.append("b");
  EXPECT_EQ(base.to_uri(), "/a");
  EXPECT_EQ(extended.to_uri(), "/a/b");
  EXPECT_THROW((void)base.append("x/y"), std::invalid_argument);
  EXPECT_THROW((void)base.append(""), std::invalid_argument);
}

TEST(Name, AppendNumber) {
  EXPECT_EQ(Name("/seg").append_number(0).to_uri(), "/seg/0");
  EXPECT_EQ(Name("/seg").append_number(137).to_uri(), "/seg/137");
}

TEST(Name, PrefixAndParent) {
  const Name name("/a/b/c");
  EXPECT_EQ(name.prefix(0), Name());
  EXPECT_EQ(name.prefix(2).to_uri(), "/a/b");
  EXPECT_EQ(name.prefix(99), name);  // clamped
  EXPECT_EQ(name.parent().to_uri(), "/a/b");
  EXPECT_EQ(Name().parent(), Name());
}

TEST(Name, IsPrefixOfSemantics) {
  const Name root;
  const Name ab("/a/b");
  const Name abc("/a/b/c");
  EXPECT_TRUE(root.is_prefix_of(abc));
  EXPECT_TRUE(ab.is_prefix_of(abc));
  EXPECT_TRUE(ab.is_prefix_of(ab));  // non-strict
  EXPECT_FALSE(abc.is_prefix_of(ab));
  EXPECT_FALSE(Name("/a/x").is_prefix_of(abc));
}

TEST(Name, PrefixRequiresComponentBoundaries) {
  // "/cnn/new" is NOT a prefix of "/cnn/news": components are atomic.
  EXPECT_FALSE(Name("/cnn/new").is_prefix_of(Name("/cnn/news")));
}

TEST(Name, EqualityAndOrdering) {
  EXPECT_EQ(Name("/a/b"), Name({"a", "b"}));
  EXPECT_NE(Name("/a/b"), Name("/a/c"));
  EXPECT_LT(Name("/a"), Name("/a/b"));  // prefix sorts first
  EXPECT_LT(Name("/a/b"), Name("/a/c"));
}

TEST(Name, PrefixRangeIsContiguousUnderOrdering) {
  // The ContentStore relies on: all names with prefix P sort contiguously
  // starting at lower_bound(P).
  std::map<Name, int> names;
  for (const char* uri : {"/a", "/a/b", "/a/b/c", "/a/c", "/ab", "/b", "/a/b/d"})
    names[Name(uri)] = 1;
  const Name prefix("/a/b");
  auto it = names.lower_bound(prefix);
  std::size_t matched = 0;
  for (; it != names.end() && prefix.is_prefix_of(it->first); ++it) ++matched;
  EXPECT_EQ(matched, 3u);  // /a/b, /a/b/c, /a/b/d
  // And nothing after the contiguous block matches.
  for (; it != names.end(); ++it) EXPECT_FALSE(prefix.is_prefix_of(it->first));
}

TEST(Name, Hash64IsStableAndBoundarySensitive) {
  EXPECT_EQ(Name("/a/b").hash64(), Name("/a/b").hash64());
  EXPECT_NE(Name({"ab", "c"}).hash64(), Name({"a", "bc"}).hash64());
  EXPECT_NE(Name("/a").hash64(), Name("/a/a").hash64());
}

TEST(Name, StdHashUsable) {
  std::unordered_set<Name> set;
  set.insert(Name("/a/b"));
  set.insert(Name("/a/b"));
  set.insert(Name("/a/c"));
  EXPECT_EQ(set.size(), 2u);
}

TEST(Name, HashHasNoEasyCollisions) {
  std::unordered_set<std::uint64_t> hashes;
  for (int i = 0; i < 10'000; ++i)
    hashes.insert(Name("/test").append_number(static_cast<std::uint64_t>(i)).hash64());
  EXPECT_EQ(hashes.size(), 10'000u);
}

}  // namespace
}  // namespace ndnp::ndn

namespace ndnp::ndn {
namespace {

TEST(NameEscaping, BinaryComponentsRoundTripThroughUri) {
  const Name name{std::string("\x01 \xff%q", 5), "plain"};
  const Name parsed(name.to_uri());
  EXPECT_EQ(parsed, name);
}

TEST(NameEscaping, EscapesControlSpacePercentAndHighBytes) {
  const Name name{std::string("a b", 3)};
  EXPECT_EQ(name.to_uri(), "/a%20b");
  const Name pct{std::string("50%", 3)};
  EXPECT_EQ(pct.to_uri(), "/50%25");
  const Name high{std::string("\xff", 1)};
  EXPECT_EQ(high.to_uri(), "/%FF");
}

TEST(NameEscaping, PlainComponentsUnchanged) {
  EXPECT_EQ(Name("/cnn/news/2013may20").to_uri(), "/cnn/news/2013may20");
  EXPECT_EQ(Name({"video-749.avi", "137"}).to_uri(), "/video-749.avi/137");
}

TEST(NameEscaping, DecodesBothHexCases) {
  EXPECT_EQ(Name("/%2a").at(0), "*");
  EXPECT_EQ(Name("/%2A").at(0), "*");
}

TEST(NameEscaping, RejectsMalformedEscapes) {
  EXPECT_THROW(Name("/a%2"), std::invalid_argument);   // truncated
  EXPECT_THROW(Name("/a%zz"), std::invalid_argument);  // bad hex
  EXPECT_THROW(Name("/%"), std::invalid_argument);
}

TEST(NameEscaping, EscapedSlashRejected) {
  // Components never contain '/': the constructors enforce it, and the
  // URI parser refuses to smuggle one in through %2F.
  EXPECT_THROW(Name("/a%2Fb"), std::invalid_argument);
  EXPECT_THROW(Name("/a%2fb"), std::invalid_argument);
}

}  // namespace
}  // namespace ndnp::ndn

// Differential check of Name against the std::vector<std::string> it is
// modelled on: the model below lives only here and spells out the
// behaviour the flat layout must keep (component-wise unsigned ordering,
// FNV-1a with a 0xff boundary byte, percent-escaped URIs).
namespace ndnp::ndn {
namespace {

using Model = std::vector<std::string>;

constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::vector<std::uint64_t> model_prefix_hashes(const Model& m) {
  std::vector<std::uint64_t> out{kFnvOffsetBasis};
  std::uint64_t h = kFnvOffsetBasis;
  for (const std::string& component : m) {
    for (const char ch : component) {
      h ^= static_cast<std::uint8_t>(ch);
      h *= kFnvPrime;
    }
    h ^= 0xffULL;
    h *= kFnvPrime;
    out.push_back(h);
  }
  return out;
}

std::string model_uri(const Model& m) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  if (m.empty()) return "/";
  std::string out;
  for (const std::string& component : m) {
    out.push_back('/');
    for (const char ch : component) {
      const auto byte = static_cast<unsigned char>(ch);
      if (byte < 0x21 || byte > 0x7e || byte == '%') {
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

bool model_is_prefix(const Model& a, const Model& b) {
  return a.size() <= b.size() && std::equal(a.begin(), a.end(), b.begin());
}

Model model_prefix(const Model& m, std::size_t n) {
  return Model(m.begin(), m.begin() + static_cast<std::ptrdiff_t>(std::min(n, m.size())));
}

/// Bytes that exercise escaping, unsigned ordering and the boundary byte.
constexpr char kAlphabet[] = {'a', 'b', 'c', '0', '%', ' ', '~', '\x01', '\x7f', '\x80', '\xfe',
                              '\xff'};

std::string random_component(util::Rng& rng) {
  // Mostly short; sometimes long enough to spill past the inline storage.
  const std::size_t length =
      rng.uniform_u64(8) == 0 ? 20 + rng.uniform_u64(80) : 1 + rng.uniform_u64(6);
  std::string out;
  for (std::size_t i = 0; i < length; ++i)
    out.push_back(kAlphabet[rng.uniform_u64(sizeof(kAlphabet))]);
  return out;
}

Model random_model(util::Rng& rng) {
  // Up to 24 components: past ~17 one-byte components a name spills too.
  Model m(rng.uniform_u64(4) == 0 ? rng.uniform_u64(25) : rng.uniform_u64(6));
  for (std::string& component : m) component = random_component(rng);
  return m;
}

/// A name related to `a` the ways that stress comparison: equal, a prefix,
/// an extension, one component changed, or one component split in two.
Model related_model(const Model& a, util::Rng& rng) {
  Model b = a;
  switch (rng.uniform_u64(6)) {
    case 0: return random_model(rng);
    case 1: return b;
    case 2: return model_prefix(a, rng.uniform_u64(a.size() + 1));
    case 3:
      for (std::uint64_t k = 1 + rng.uniform_u64(3); k > 0; --k)
        b.push_back(random_component(rng));
      return b;
    case 4:
      if (!b.empty()) {
        std::string& c = b[rng.uniform_u64(b.size())];
        const std::size_t at = rng.uniform_u64(c.size());
        switch (rng.uniform_u64(3)) {
          case 0: c[at] = kAlphabet[rng.uniform_u64(sizeof(kAlphabet))]; break;
          case 1: c.resize(at + 1); break;
          default: c.push_back(kAlphabet[rng.uniform_u64(sizeof(kAlphabet))]); break;
        }
      }
      return b;
    default:
      for (std::size_t i = 0; i < b.size(); ++i) {
        if (b[i].size() < 2) continue;
        const std::size_t cut = 1 + rng.uniform_u64(b[i].size() - 1);
        std::string tail = b[i].substr(cut);
        b[i].resize(cut);
        b.insert(b.begin() + static_cast<std::ptrdiff_t>(i + 1), std::move(tail));
        break;
      }
      return b;
  }
}

void expect_matches_model(const Name& name, const Model& m) {
  ASSERT_EQ(name.size(), m.size());
  EXPECT_EQ(name.empty(), m.empty());
  std::size_t i = 0;
  for (const std::string_view component : name.components()) {
    EXPECT_EQ(component, m[i]);
    EXPECT_EQ(name.at(i), m[i]);
    ++i;
  }
  EXPECT_EQ(i, m.size());
  if (!m.empty()) {
    EXPECT_EQ(name.last(), m.back());
  }
  EXPECT_THROW((void)name.at(m.size()), std::out_of_range);

  const std::string uri = name.to_uri();
  EXPECT_EQ(uri, model_uri(m));
  EXPECT_EQ(Name(uri), name);

  const std::vector<std::uint64_t> expected = model_prefix_hashes(m);
  std::vector<std::uint64_t> visited;
  name.visit_prefix_hashes([&visited](std::uint64_t h) { visited.push_back(h); });
  EXPECT_EQ(visited, expected);
  EXPECT_EQ(name.hash64(), expected.back());

  for (std::size_t n = 0; n <= m.size() + 1; ++n) {
    const Name prefix = name.prefix(n);
    EXPECT_EQ(prefix, Name(model_prefix(m, n)));
    EXPECT_EQ(prefix.hash64(), expected[std::min(n, m.size())]);
    EXPECT_TRUE(prefix.is_prefix_of(name));
  }
  EXPECT_EQ(name.parent(), Name(model_prefix(m, m.empty() ? 0 : m.size() - 1)));
}

TEST(NameModel, RandomNamesAgreeWithTheVectorModel) {
  util::Rng rng(2013);
  for (int round = 0; round < 1500; ++round) {
    SCOPED_TRACE(round);
    const Model a = random_model(rng);
    const Model b = related_model(a, rng);
    const Name name_a(a);
    const Name name_b(b);
    expect_matches_model(name_a, a);
    expect_matches_model(name_b, b);

    EXPECT_EQ(name_a == name_b, a == b);
    EXPECT_EQ(name_a <=> name_b, a <=> b);
    EXPECT_EQ(name_b <=> name_a, b <=> a);
    EXPECT_EQ(name_a.is_prefix_of(name_b), model_is_prefix(a, b));
    EXPECT_EQ(name_b.is_prefix_of(name_a), model_is_prefix(b, a));

    const std::string extra = random_component(rng);
    Model appended = a;
    appended.push_back(extra);
    expect_matches_model(name_a.append(extra), appended);

    if (b.size() >= 3) {
      Name assigned = name_a;
      assigned.assign({b[0], b[1], b[2]});
      expect_matches_model(assigned, model_prefix(b, 3));
    }

    // Copies and moves, across the inline and spilled representations.
    Name copy(name_a);
    EXPECT_EQ(copy, name_a);
    Name moved(std::move(copy));
    EXPECT_EQ(moved, name_a);
    copy = name_b;  // a moved-from name is reusable
    EXPECT_EQ(copy, name_b);
    copy = moved;
    EXPECT_EQ(copy, name_a);
    moved = std::move(copy);
    EXPECT_EQ(moved, name_a);
    moved = name_b;
    EXPECT_EQ(moved, name_b);
  }
}

TEST(NameModel, OrderIsComponentWiseNotFlat) {
  // A flat byte compare would put "/ab" first ('b' < 0xff boundary) or
  // treat {"a","b"} and {"ab"} alike; component order does neither.
  EXPECT_LT(Name({"a", "b"}), Name({"ab"}));
  EXPECT_NE(Name({"a", "b"}), Name({"ab"}));
  EXPECT_FALSE(Name({"a"}).is_prefix_of(Name({"ab"})));
  EXPECT_LT(Name({"a"}), Name({std::string("\x80", 1)}));  // unsigned bytes
  EXPECT_LT(Name({std::string("\x7f", 1)}), Name({std::string("\xff", 1)}));
  EXPECT_LT(Name({"ab", "z"}), Name({"abc"}));
}

TEST(NameModel, SpilledNamesCopyMoveAndSlice) {
  const std::string long_component(300, 'z');
  const Name spilled{"p", long_component, "q"};
  const Name copy = spilled;
  EXPECT_EQ(copy, spilled);
  EXPECT_EQ(copy.at(1), long_component);
  Name moved = Name(copy);
  EXPECT_EQ(moved, spilled);
  EXPECT_EQ(moved.prefix(1), Name("/p"));  // a short slice of a spilled name
  EXPECT_TRUE(moved.prefix(2).is_prefix_of(spilled));
  moved = Name("/short");
  EXPECT_EQ(moved, Name("/short"));
  moved = spilled;
  EXPECT_EQ(moved.last(), "q");
}

TEST(NameModel, Hash64LiteralsArePinned) {
  // Values of the vector-of-strings Name this layout replaced: table
  // order, eviction order and every golden depend on them.
  EXPECT_EQ(Name().hash64(), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Name("/web/dom3/obj42").hash64(), 0x220be52155fcb514ULL);
  EXPECT_EQ(Name("/a/b").hash64(), 0xd2b371819297f98aULL);
  EXPECT_EQ(Name({"ab"}).hash64(), 0xe7202e190542452fULL);
  EXPECT_EQ(Name("/%00%FF/%80x").hash64(), 0x1374eb565567db66ULL);
  EXPECT_EQ(Name("/cnn/news/2013may20").hash64(), 0xb2266ce347fe70afULL);
  EXPECT_EQ(Name({"p", std::string(300, 'z'), "q"}).hash64(), 0x4d1b309aae6a1cb9ULL);
}

TEST(NameModel, AssignMayReadItsOwnComponents) {
  Name name("/a/bb/ccc");
  name.assign({name.at(2), name.at(0)});
  EXPECT_EQ(name, Name("/ccc/a"));
  const std::string long_component(100, 'x');
  Name spilled{long_component, "y"};
  spilled.assign({spilled.at(1), spilled.at(0)});
  EXPECT_EQ(spilled, Name({"y", long_component}));
}

TEST(NameWidth, ByteLengthPastTheOffsetWidthThrowsFromEveryConstructor) {
  const std::string most(Name::kMaxBytes, 'x');
  const Name full{most};
  EXPECT_EQ(full.at(0).size(), Name::kMaxBytes);
  EXPECT_EQ(Name("/" + most), full);
  const std::string over = most + "y";
  EXPECT_THROW(Name{over}, std::invalid_argument);
  EXPECT_THROW(Name({most, "y"}), std::invalid_argument);
  EXPECT_THROW(Name(std::vector<std::string>{most, "y"}), std::invalid_argument);
  EXPECT_THROW(Name("/" + over), std::invalid_argument);
  EXPECT_THROW(Name("/" + most + "/y"), std::invalid_argument);
  EXPECT_THROW((void)full.append("y"), std::invalid_argument);
  EXPECT_THROW((void)full.append_number(7), std::invalid_argument);
  Name small("/a");
  EXPECT_THROW(small.assign({most, "y"}), std::invalid_argument);
  EXPECT_EQ(small, Name("/a"));  // unchanged
}

TEST(NameWidth, ComponentCountPastTheOffsetWidthThrows) {
  std::vector<std::string> ones(Name::kMaxBytes + 1, "x");
  EXPECT_THROW(Name{ones}, std::invalid_argument);
  std::string uri;
  for (std::size_t i = 0; i < ones.size(); ++i) uri += "/x";
  EXPECT_THROW((void)Name(uri), std::invalid_argument);
  ones.pop_back();
  const Name most(ones);
  EXPECT_EQ(most.size(), Name::kMaxBytes);
  EXPECT_EQ(most.last(), "x");
  EXPECT_EQ(most.prefix(3), Name("/x/x/x"));
  EXPECT_THROW((void)most.append("x"), std::invalid_argument);
}

TEST(NameWidth, UriLimitCountsDecodedBytes) {
  // 90,000 URI characters that decode to 30,000 bytes fit.
  std::string uri = "/";
  for (int i = 0; i < 30'000; ++i) uri += "%41";
  const Name name(uri);
  EXPECT_EQ(name.at(0), std::string(30'000, 'A'));
}

}  // namespace
}  // namespace ndnp::ndn
