#include "cache/content_store.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "util/rng.hpp"

namespace ndnp::cache {
namespace {

ndn::Data make_content(const std::string& uri) {
  ndn::Data data;
  data.name = ndn::Name(uri);
  data.payload = "payload";
  return data;
}

ndn::Interest interest_for(const std::string& uri) {
  ndn::Interest interest;
  interest.name = ndn::Name(uri);
  return interest;
}

EntryMeta meta_at(util::SimTime t) {
  EntryMeta meta;
  meta.inserted_at = t;
  meta.last_access = t;
  return meta;
}

TEST(ContentStore, InsertAndExactFind) {
  ContentStore cs(10);
  cs.insert(make_content("/a/b"), meta_at(1));
  ASSERT_NE(cs.find_exact(ndn::Name("/a/b")), nullptr);
  EXPECT_EQ(cs.find_exact(ndn::Name("/a/c")), nullptr);
  EXPECT_EQ(cs.size(), 1u);
  EXPECT_TRUE(cs.contains(ndn::Name("/a/b")));
}

TEST(ContentStore, PrefixLookupFindsLongerName) {
  ContentStore cs(10);
  cs.insert(make_content("/a/b/c"), meta_at(1));
  EXPECT_NE(cs.find(interest_for("/a/b")), nullptr);
  EXPECT_NE(cs.find(interest_for("/a/b/c")), nullptr);
  EXPECT_EQ(cs.find(interest_for("/a/b/c/d")), nullptr);
  EXPECT_EQ(cs.find(interest_for("/a/x")), nullptr);
}

TEST(ContentStore, PrefixLookupReturnsCanonicalSmallest) {
  ContentStore cs(10);
  cs.insert(make_content("/a/b/z"), meta_at(1));
  cs.insert(make_content("/a/b/c"), meta_at(2));
  const Entry* found = cs.find(interest_for("/a/b"));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->data.name.to_uri(), "/a/b/c");
}

TEST(ContentStore, ExactMatchOnlyEntriesSkippedInPrefixScan) {
  ContentStore cs(10);
  ndn::Data secret = make_content("/a/b/rand777");
  secret.exact_match_only = true;
  cs.insert(std::move(secret), meta_at(1));
  EXPECT_EQ(cs.find(interest_for("/a/b")), nullptr);
  EXPECT_NE(cs.find(interest_for("/a/b/rand777")), nullptr);
}

TEST(ContentStore, ExactOnlySiblingDoesNotShadowLaterMatch) {
  ContentStore cs(10);
  ndn::Data secret = make_content("/a/b/1rand");
  secret.exact_match_only = true;
  cs.insert(std::move(secret), meta_at(1));
  cs.insert(make_content("/a/b/2plain"), meta_at(2));
  const Entry* found = cs.find(interest_for("/a/b"));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->data.name.to_uri(), "/a/b/2plain");
}

TEST(ContentStore, OverwriteKeepsSize) {
  ContentStore cs(10);
  cs.insert(make_content("/a"), meta_at(1));
  ndn::Data updated = make_content("/a");
  updated.payload = "new";
  cs.insert(std::move(updated), meta_at(2));
  EXPECT_EQ(cs.size(), 1u);
  EXPECT_EQ(cs.find_exact(ndn::Name("/a"))->data.payload, "new");
}

TEST(ContentStore, EraseAndClear) {
  ContentStore cs(10);
  cs.insert(make_content("/a"), meta_at(1));
  cs.insert(make_content("/b"), meta_at(1));
  EXPECT_TRUE(cs.erase(ndn::Name("/a")));
  EXPECT_FALSE(cs.erase(ndn::Name("/a")));
  EXPECT_EQ(cs.size(), 1u);
  cs.clear();
  EXPECT_EQ(cs.size(), 0u);
}

TEST(ContentStore, UnlimitedCapacityNeverEvicts) {
  ContentStore cs(0);
  EXPECT_TRUE(cs.unbounded());
  for (int i = 0; i < 1000; ++i)
    cs.insert(make_content("/obj/" + std::to_string(i)), meta_at(i));
  EXPECT_EQ(cs.size(), 1000u);
  EXPECT_EQ(cs.stats().evictions, 0u);
}

TEST(ContentStore, LruEvictsLeastRecentlyUsed) {
  ContentStore cs(2, EvictionPolicy::kLru);
  cs.insert(make_content("/a"), meta_at(1));
  cs.insert(make_content("/b"), meta_at(2));
  // Touch /a so /b becomes the LRU victim.
  cs.touch(*cs.find_exact(ndn::Name("/a")), 3);
  cs.insert(make_content("/c"), meta_at(4));
  EXPECT_TRUE(cs.contains(ndn::Name("/a")));
  EXPECT_FALSE(cs.contains(ndn::Name("/b")));
  EXPECT_TRUE(cs.contains(ndn::Name("/c")));
  EXPECT_EQ(cs.stats().evictions, 1u);
}

TEST(ContentStore, FifoIgnoresAccessOrder) {
  ContentStore cs(2, EvictionPolicy::kFifo);
  cs.insert(make_content("/a"), meta_at(1));
  cs.insert(make_content("/b"), meta_at(2));
  cs.touch(*cs.find_exact(ndn::Name("/a")), 3);  // irrelevant for FIFO
  cs.insert(make_content("/c"), meta_at(4));
  EXPECT_FALSE(cs.contains(ndn::Name("/a")));  // oldest insertion evicted
  EXPECT_TRUE(cs.contains(ndn::Name("/b")));
}

TEST(ContentStore, LfuEvictsColdestEntry) {
  ContentStore cs(2, EvictionPolicy::kLfu);
  cs.insert(make_content("/hot"), meta_at(1));
  cs.insert(make_content("/cold"), meta_at(2));
  for (int i = 0; i < 5; ++i) cs.touch(*cs.find_exact(ndn::Name("/hot")), 3 + i);
  cs.insert(make_content("/new"), meta_at(10));
  EXPECT_TRUE(cs.contains(ndn::Name("/hot")));
  EXPECT_FALSE(cs.contains(ndn::Name("/cold")));
}

TEST(ContentStore, RandomEvictionKeepsCapacityBound) {
  ContentStore cs(16, EvictionPolicy::kRandom, /*seed=*/3);
  for (int i = 0; i < 200; ++i)
    cs.insert(make_content("/obj/" + std::to_string(i)), meta_at(i));
  EXPECT_EQ(cs.size(), 16u);
  EXPECT_EQ(cs.stats().evictions, 200u - 16u);
}

TEST(ContentStore, TouchUpdatesLastAccess) {
  ContentStore cs(4);
  cs.insert(make_content("/a"), meta_at(1));
  Entry* entry = cs.find_exact(ndn::Name("/a"));
  cs.touch(*entry, 42);
  EXPECT_EQ(entry->meta.last_access, 42);
}

TEST(ContentStore, StatsCountLookups) {
  ContentStore cs(4);
  cs.insert(make_content("/a"), meta_at(1));
  (void)cs.find(interest_for("/a"));
  (void)cs.find(interest_for("/zzz"));
  EXPECT_EQ(cs.stats().lookups, 2u);
  EXPECT_EQ(cs.stats().matches, 1u);
  EXPECT_EQ(cs.stats().inserts, 1u);
}

// Regression: pin the exact counter values for a scripted op sequence that
// walks every find() path — exact fast path, prefix fallback after a
// missing/stale exact entry, plain miss. In particular, a find that falls
// back from the exact index to the prefix index is ONE lookup and at most
// ONE match; the internal two-stage probe must never double-count.
TEST(ContentStore, StatsRegressionScriptedSequence) {
  ContentStore cs(3, EvictionPolicy::kLru);

  cs.insert(make_content("/a/b/c"), meta_at(1));  // inserts=1
  ndn::Data stale = make_content("/a/b");
  stale.freshness_period = 5;  // fresh until t=6 (inserted at t=2)
  cs.insert(std::move(stale), meta_at(2));        // inserts=2
  cs.insert(make_content("/z"), meta_at(3));      // inserts=3

  // 1. Exact fast-path hit.
  EXPECT_NE(cs.find(interest_for("/a/b/c")), nullptr);  // lookups=1 matches=1
  // 2. Prefix-then-exact fallback: no entry named "/a", but "/a/b" and
  //    "/a/b/c" both match; lexicographically smallest ("/a/b") wins.
  const Entry* prefix_hit = cs.find(interest_for("/a"));  // lookups=2 matches=2
  ASSERT_NE(prefix_hit, nullptr);
  EXPECT_EQ(prefix_hit->data.name, ndn::Name("/a/b"));
  // 3. Stale exact entry skipped under MustBeFresh, deeper fresh entry
  //    found by the prefix fallback — still one lookup, one match.
  ndn::Interest fresh_ab = interest_for("/a/b");
  fresh_ab.must_be_fresh = true;
  const Entry* fallback = cs.find(fresh_ab, /*now=*/10);  // lookups=3 matches=3
  ASSERT_NE(fallback, nullptr);
  EXPECT_EQ(fallback->data.name, ndn::Name("/a/b/c"));
  // 4. Same interest with no fresh match anywhere: one lookup, no match.
  ndn::Interest fresh_z = interest_for("/z");
  fresh_z.must_be_fresh = true;
  EXPECT_NE(cs.find(fresh_z, /*now=*/10), nullptr);  // lookups=4 matches=4 (no freshness set)
  ndn::Interest miss = interest_for("/nope");
  EXPECT_EQ(cs.find(miss), nullptr);  // lookups=5, matches stay 4
  // 5. find_exact / contains are NOT lookups (no stats side effects).
  EXPECT_NE(cs.find_exact(ndn::Name("/z")), nullptr);
  EXPECT_TRUE(cs.contains(ndn::Name("/z")));
  // 6. Overwrite counts as an insert but never evicts.
  cs.insert(make_content("/z"), meta_at(11));  // inserts=4 evictions=0
  // 7. Insert at capacity evicts exactly once.
  cs.insert(make_content("/w"), meta_at(12));  // inserts=5 evictions=1

  EXPECT_EQ(cs.stats().lookups, 5u);
  EXPECT_EQ(cs.stats().matches, 4u);
  EXPECT_EQ(cs.stats().inserts, 5u);
  EXPECT_EQ(cs.stats().evictions, 1u);

  // export_metrics publishes the same counters (plus size) untouched.
  util::MetricsSnapshot snap;
  cs.export_metrics(snap, "cs");
  EXPECT_EQ(snap.counters.at("cs.lookups"), 5u);
  EXPECT_EQ(snap.counters.at("cs.matches"), 4u);
  EXPECT_EQ(snap.counters.at("cs.inserts"), 5u);
  EXPECT_EQ(snap.counters.at("cs.evictions"), 1u);
  EXPECT_EQ(snap.counters.at("cs.size"), 3u);
}

TEST(ContentStore, PolicyToString) {
  EXPECT_EQ(to_string(EvictionPolicy::kLru), "LRU");
  EXPECT_EQ(to_string(EvictionPolicy::kFifo), "FIFO");
  EXPECT_EQ(to_string(EvictionPolicy::kLfu), "LFU");
  EXPECT_EQ(to_string(EvictionPolicy::kRandom), "Random");
}

TEST(ContentStore, PrepareNamesTheExactEntryWithoutCountingALookup) {
  ContentStore cs(4);
  cs.insert(make_content("/a/b"), meta_at(1));
  EXPECT_EQ(cs.prepare(ndn::Name("/a/b")).existing(), cs.find_exact(ndn::Name("/a/b")));
  EXPECT_EQ(cs.prepare(ndn::Name("/a")).existing(), nullptr);  // a prefix is not a match
  EXPECT_EQ(cs.prepare(ndn::Name("/a/c")).existing(), nullptr);
  EXPECT_EQ(cs.stats().lookups, 0u);
}

TEST(ContentStore, InsertThroughAHintOverwritesAnExistingName) {
  ContentStore cs(4);
  cs.insert(make_content("/a"), meta_at(1));
  ndn::Data fresh = make_content("/a");
  fresh.payload = "new";
  const InsertHint hint = cs.prepare(fresh.name);
  ASSERT_NE(hint.existing(), nullptr);
  Entry& entry = cs.insert(std::move(fresh), meta_at(2), hint);
  EXPECT_EQ(&entry, hint.existing());
  EXPECT_EQ(entry.data.payload, "new");
  EXPECT_EQ(cs.stats().overwrites, 1u);
  EXPECT_EQ(cs.size(), 1u);
  cs.check_integrity();
}

TEST(ContentStore, DroppedHintLeavesNothingBehind) {
  ContentStore cs(2);
  cs.insert(make_content("/a"), meta_at(1));
  cs.insert(make_content("/b"), meta_at(2));
  (void)cs.prepare(ndn::Name("/x"));  // e.g. the admission coin refused it
  cs.insert(make_content("/y"), meta_at(3));
  EXPECT_FALSE(cs.contains(ndn::Name("/x")));
  EXPECT_TRUE(cs.contains(ndn::Name("/y")));
  EXPECT_FALSE(cs.contains(ndn::Name("/a")));  // LRU victim
  EXPECT_EQ(cs.stats().inserts, 3u);
  cs.check_integrity();
}

TEST(ContentStore, UnboundedInsertsThroughHintsSurviveTableGrowth) {
  // Every hint is taken on a table about to grow or purge tombstones at
  // some point in this loop; the insert must land where find() looks.
  ContentStore cs(0);
  for (int i = 0; i < 300; ++i) {
    const ndn::Name name("/grow/" + std::to_string(i));
    const InsertHint hint = cs.prepare(name);
    ASSERT_EQ(hint.existing(), nullptr);
    cs.insert(make_content(name.to_uri()), meta_at(i), hint);
    if (i % 4 == 3) {
      ASSERT_TRUE(cs.erase(ndn::Name("/grow/" + std::to_string(i - 2))));
    }
  }
  for (int i = 0; i < 300; ++i) {
    const bool erased = i % 4 == 1 && i + 2 < 300;
    EXPECT_EQ(cs.contains(ndn::Name("/grow/" + std::to_string(i))), !erased) << i;
  }
  cs.check_integrity();
}

TEST(ContentStore, DeepNamesSpillTheirPrefixHashes) {
  std::string uri;
  for (int d = 0; d < 12; ++d) uri += "/c" + std::to_string(d);
  ContentStore cs(2);
  cs.insert(make_content(uri), meta_at(1));
  cs.insert(make_content("/c0/other"), meta_at(2));
  ASSERT_NE(cs.find_exact(ndn::Name(uri)), nullptr);
  const Entry* via_prefix = cs.find(interest_for("/c0/c1/c2/c3/c4/c5"));
  ASSERT_NE(via_prefix, nullptr);
  EXPECT_EQ(via_prefix->data.name, ndn::Name(uri));
  cs.insert(make_content("/z"), meta_at(3));  // evicts the deep name
  EXPECT_FALSE(cs.contains(ndn::Name(uri)));
  EXPECT_EQ(cs.find(interest_for("/c0/c1/c2/c3/c4/c5")), nullptr);
  cs.check_integrity();
}

// Property sweep: every policy must respect capacity, keep find() coherent
// with contains(), and evict exactly size-overflow entries.
class EvictionPolicyTest : public ::testing::TestWithParam<EvictionPolicy> {};

TEST_P(EvictionPolicyTest, CapacityAlwaysRespected) {
  ContentStore cs(8, GetParam(), /*seed=*/11);
  for (int i = 0; i < 100; ++i) {
    cs.insert(make_content("/obj/" + std::to_string(i)), meta_at(i));
    EXPECT_LE(cs.size(), 8u);
    if (i % 3 == 0) {
      if (Entry* e = cs.find(interest_for("/obj/" + std::to_string(i)))) cs.touch(*e, i);
    }
  }
  EXPECT_EQ(cs.size(), 8u);
  EXPECT_EQ(cs.stats().evictions, 92u);
}

TEST_P(EvictionPolicyTest, EraseKeepsIndexConsistent) {
  ContentStore cs(8, GetParam(), /*seed=*/13);
  for (int i = 0; i < 8; ++i) cs.insert(make_content("/obj/" + std::to_string(i)), meta_at(i));
  EXPECT_TRUE(cs.erase(ndn::Name("/obj/3")));
  EXPECT_TRUE(cs.erase(ndn::Name("/obj/7")));
  // Refill past capacity; no crash, bound respected.
  for (int i = 8; i < 40; ++i) cs.insert(make_content("/obj/" + std::to_string(i)), meta_at(i));
  EXPECT_EQ(cs.size(), 8u);
}

TEST_P(EvictionPolicyTest, MostRecentInsertSurvivesEviction) {
  ContentStore cs(4, GetParam(), /*seed=*/17);
  for (int i = 0; i < 50; ++i) {
    const std::string uri = "/obj/" + std::to_string(i);
    cs.insert(make_content(uri), meta_at(i));
    EXPECT_TRUE(cs.contains(ndn::Name(uri))) << "policy evicted the entry just inserted";
  }
}

TEST_P(EvictionPolicyTest, TouchAndHintedInsertsKeepIntegrity) {
  // touch() reaches an entry's index node without probing. Entries come
  // from every path that hands one out (insert, exact and prefix find,
  // prepare), mixed with erases and evictions, and every step must leave
  // the store consistent.
  ContentStore cs(16, GetParam(), /*seed=*/19);
  util::Rng rng(23);
  for (int step = 0; step < 2'000; ++step) {
    const std::string uri = "/d" + std::to_string(rng.uniform_u64(4)) + "/o" +
                            std::to_string(rng.uniform_u64(40));
    const util::SimTime now = step;
    switch (rng.uniform_u64(4)) {
      case 0: {
        const InsertHint hint = cs.prepare(ndn::Name(uri));
        if (hint.existing() != nullptr) {
          cs.touch(*hint.existing(), now);
        } else {
          cs.touch(cs.insert(make_content(uri), meta_at(now), hint), now);
        }
        break;
      }
      case 1:
        if (Entry* entry = cs.find(interest_for(uri))) cs.touch(*entry, now);
        break;
      case 2:
        if (Entry* entry = cs.find(interest_for(uri.substr(0, 3)))) cs.touch(*entry, now);
        break;
      default:
        if (Entry* entry = cs.find_exact(ndn::Name(uri))) {
          if (rng.bernoulli(0.5)) {
            EXPECT_TRUE(cs.erase(ndn::Name(uri)));
          } else {
            cs.touch(*entry, now);
            EXPECT_EQ(entry->meta.last_access, now);
          }
        }
        break;
    }
    ASSERT_NO_THROW(cs.check_integrity()) << "step " << step;
    ASSERT_LE(cs.size(), 16u);
  }
  std::size_t seen = 0;
  cs.for_each([&](const Entry& entry) {
    ++seen;
    EXPECT_EQ(cs.find_exact(entry.data.name), &entry);
  });
  EXPECT_EQ(seen, cs.size());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, EvictionPolicyTest,
                         ::testing::Values(EvictionPolicy::kLru, EvictionPolicy::kFifo,
                                           EvictionPolicy::kLfu, EvictionPolicy::kRandom),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace ndnp::cache
