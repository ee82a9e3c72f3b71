#include "ndn/name.hpp"

#include <gtest/gtest.h>

#include <map>
#include <unordered_set>

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
