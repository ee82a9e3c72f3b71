// Differential test: the hash-indexed ContentStore vs a deliberately naive
// reference model.
//
// ReferenceContentStore below is a line-for-line port of the original
// ordered-map implementation this repository shipped with (std::map keyed
// by Name for prefix ranges, std::list for LRU/FIFO order, std::multimap
// for LFU, std::vector for random eviction) — obviously correct, obviously
// slow. The driver replays >=100k seeded randomized operations per
// eviction policy against both stores and asserts identical externally
// observable behavior after every single op: hit/miss outcome, which name
// matched, victim choice (via contains()), size, and the CacheStats
// counters. Random eviction is aligned by construction: both stores are
// seeded identically and draw from util::Rng only when picking a victim.
//
// If the optimized store's open-addressing exact index, its prefix scan
// (taken only while a deeper name is cached), intrusive eviction lists or
// node recycling ever diverge from plain NDN cache semantics, some op in
// these streams will catch it.
#include "cache/content_store.hpp"

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ndn/packet.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace ndnp::cache {
namespace {

// --- the reference model ----------------------------------------------------

class ReferenceContentStore {
 public:
  explicit ReferenceContentStore(std::size_t capacity, EvictionPolicy policy,
                                 std::uint64_t seed)
      : capacity_(capacity), policy_(policy), rng_(seed) {}

  Entry& insert(ndn::Data data, EntryMeta meta) {
    ++stats_.inserts;
    last_victim_.reset();
    const ndn::Name name = data.name;

    if (auto it = entries_.find(name); it != entries_.end()) {
      it->second.entry.data = std::move(data);
      it->second.entry.meta = meta;
      return it->second.entry;
    }

    if (capacity_ != 0 && entries_.size() >= capacity_) {
      const ndn::Name victim = pick_victim();
      erase(victim);
      ++stats_.evictions;
      last_victim_ = victim;
    }

    auto [it, inserted] = entries_.emplace(name, Node{});
    EXPECT_TRUE(inserted);
    it->second.entry.data = std::move(data);
    it->second.entry.meta = meta;
    index_insert(name, it->second);
    return it->second.entry;
  }

  Entry* find(const ndn::Interest& interest, util::SimTime now) {
    ++stats_.lookups;
    const bool check_freshness = interest.must_be_fresh && now != util::kTimeUnset;
    for (auto it = entries_.lower_bound(interest.name); it != entries_.end(); ++it) {
      if (!interest.name.is_prefix_of(it->first)) break;
      if (!it->second.entry.data.satisfies(interest)) continue;
      if (check_freshness && !it->second.entry.fresh_at(now)) continue;
      ++stats_.matches;
      return &it->second.entry;
    }
    return nullptr;
  }

  Entry* find_exact(const ndn::Name& name) {
    const auto it = entries_.find(name);
    return it == entries_.end() ? nullptr : &it->second.entry;
  }

  void touch(Entry& entry, util::SimTime now) {
    entry.meta.last_access = now;
    const auto it = entries_.find(entry.data.name);
    ASSERT_TRUE(it != entries_.end() && &it->second.entry == &entry);
    index_access(it->second);
  }

  bool erase(const ndn::Name& name) {
    const auto it = entries_.find(name);
    if (it == entries_.end()) return false;
    index_erase(it->second);
    entries_.erase(it);
    return true;
  }

  void clear() {
    entries_.clear();
    order_.clear();
    by_freq_.clear();
    by_index_.clear();
  }

  [[nodiscard]] bool contains(const ndn::Name& name) const { return entries_.contains(name); }
  [[nodiscard]] std::size_t count_at_depth(std::size_t depth) const {
    std::size_t n = 0;
    for (const auto& [name, node] : entries_) n += name.size() == depth ? 1 : 0;
    return n;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  /// Name evicted by the most recent insert(), if that insert evicted.
  [[nodiscard]] const std::optional<ndn::Name>& last_victim() const noexcept {
    return last_victim_;
  }

  /// All cached names in map order (== sorted by name).
  [[nodiscard]] std::vector<ndn::Name> sorted_names() const {
    std::vector<ndn::Name> out;
    out.reserve(entries_.size());
    for (const auto& [name, node] : entries_) out.push_back(name);
    return out;
  }

 private:
  struct Node {
    Entry entry;
    std::list<ndn::Name>::iterator order_it{};
    std::multimap<std::uint64_t, ndn::Name>::iterator freq_it{};
    std::size_t vec_index = 0;
    std::uint64_t freq = 0;
  };

  void index_insert(const ndn::Name& name, Node& node) {
    switch (policy_) {
      case EvictionPolicy::kLru:
      case EvictionPolicy::kFifo:
        order_.push_front(name);
        node.order_it = order_.begin();
        break;
      case EvictionPolicy::kLfu:
        node.freq = 1;
        node.freq_it = by_freq_.emplace(node.freq, name);
        break;
      case EvictionPolicy::kRandom:
        node.vec_index = by_index_.size();
        by_index_.push_back(name);
        break;
    }
  }

  void index_access(Node& node) {
    switch (policy_) {
      case EvictionPolicy::kLru:
        order_.splice(order_.begin(), order_, node.order_it);
        break;
      case EvictionPolicy::kFifo:
        break;
      case EvictionPolicy::kLfu: {
        const ndn::Name name = node.freq_it->second;
        by_freq_.erase(node.freq_it);
        ++node.freq;
        node.freq_it = by_freq_.emplace(node.freq, name);
        break;
      }
      case EvictionPolicy::kRandom:
        break;
    }
  }

  void index_erase(Node& node) {
    switch (policy_) {
      case EvictionPolicy::kLru:
      case EvictionPolicy::kFifo:
        order_.erase(node.order_it);
        break;
      case EvictionPolicy::kLfu:
        by_freq_.erase(node.freq_it);
        break;
      case EvictionPolicy::kRandom: {
        const std::size_t idx = node.vec_index;
        if (idx + 1 != by_index_.size()) {
          by_index_[idx] = std::move(by_index_.back());
          const auto moved = entries_.find(by_index_[idx]);
          moved->second.vec_index = idx;
        }
        by_index_.pop_back();
        break;
      }
    }
  }

  [[nodiscard]] ndn::Name pick_victim() {
    switch (policy_) {
      case EvictionPolicy::kLru:
      case EvictionPolicy::kFifo:
        return order_.back();
      case EvictionPolicy::kLfu:
        return by_freq_.begin()->second;
      case EvictionPolicy::kRandom:
        return by_index_[rng_.uniform_u64(by_index_.size())];
    }
    ADD_FAILURE() << "unknown policy";
    return ndn::Name();
  }

  std::size_t capacity_;
  EvictionPolicy policy_;
  util::Rng rng_;
  std::map<ndn::Name, Node> entries_;
  std::list<ndn::Name> order_;
  std::multimap<std::uint64_t, ndn::Name> by_freq_;
  std::vector<ndn::Name> by_index_;
  CacheStats stats_;
  std::optional<ndn::Name> last_victim_;
};

// --- randomized op driver ---------------------------------------------------

constexpr std::size_t kOpsPerPolicy = 120'000;
constexpr std::size_t kCapacity = 64;

enum class NameMix { kUniform, kDepthSkewed };

/// The deepest depth of the kDepthSkewed mix.
constexpr std::size_t kSkewedDeepDepth = 5;

/// kUniform: hierarchical names over a small alphabet so prefixes collide
/// heavily: depth 1..4, six choices per component. ~1.6k distinct names vs
/// a capacity-64 cache.
/// kDepthSkewed: depth 1..2 over the same alphabet, except 1 draw in 32
/// from a two-name depth-5 branch (/a/a/a/a/{a,b}). So few deep names are
/// cached that the deepest depth keeps emptying (through eviction, erase
/// and clear) and refilling, and prefix interests arrive on both sides of
/// that boundary.
ndn::Name random_name(util::Rng& rng, NameMix mix = NameMix::kUniform) {
  static const std::string kAlphabet[] = {"a", "b", "c", "d", "e", "f"};
  if (mix == NameMix::kDepthSkewed && rng.uniform_u64(32) == 0)
    return ndn::Name(
        std::vector<std::string>{"a", "a", "a", "a", kAlphabet[rng.uniform_u64(2)]});
  const std::size_t depth = 1 + rng.uniform_u64(mix == NameMix::kDepthSkewed ? 2 : 4);
  std::vector<std::string> components;
  components.reserve(depth);
  for (std::size_t i = 0; i < depth; ++i)
    components.push_back(kAlphabet[rng.uniform_u64(6)]);
  return ndn::Name(std::move(components));
}

void expect_same_stats(const CacheStats& ref, const CacheStats& opt, std::size_t op) {
  ASSERT_EQ(ref.lookups, opt.lookups) << "op " << op;
  ASSERT_EQ(ref.matches, opt.matches) << "op " << op;
  ASSERT_EQ(ref.inserts, opt.inserts) << "op " << op;
  ASSERT_EQ(ref.evictions, opt.evictions) << "op " << op;
}

void expect_same_contents(const ReferenceContentStore& ref, const ContentStore& opt,
                          std::size_t op) {
  std::vector<ndn::Name> opt_names;
  opt_names.reserve(opt.size());
  opt.for_each([&opt_names](const Entry& entry) { opt_names.push_back(entry.data.name); });
  std::sort(opt_names.begin(), opt_names.end());
  ASSERT_EQ(ref.sorted_names(), opt_names) << "op " << op;
}

/// How often the deepest kDepthSkewed depth went from cached to empty, by
/// the operation that emptied it; filled in when run_differential gets one.
struct DeepEmptied {
  std::size_t by_eviction = 0;
  std::size_t by_erase = 0;
  std::size_t by_clear = 0;
};

void run_differential(EvictionPolicy policy, std::uint64_t seed,
                      std::size_t capacity = kCapacity, NameMix mix = NameMix::kUniform,
                      DeepEmptied* emptied = nullptr) {
  SCOPED_TRACE(std::string("policy=") + std::string(to_string(policy)) +
               " seed=" + std::to_string(seed) +
               (mix == NameMix::kDepthSkewed ? " depth-skewed" : ""));
  // Rolls from here up clear the store. The skewed mix clears ten times as
  // often, so clear empties the deep depth too.
  const double clear_from = mix == NameMix::kDepthSkewed ? 0.995 : 0.9995;
  util::Rng op_rng(seed);
  const std::uint64_t cs_seed = seed ^ 0x9e3779b97f4a7c15ULL;
  ReferenceContentStore ref(capacity, policy, cs_seed);
  ContentStore opt(capacity, policy, cs_seed);

  util::SimTime now = 0;
  for (std::size_t op = 0; op < kOpsPerPolicy; ++op) {
    const bool deep_cached = emptied != nullptr && ref.count_at_depth(kSkewedDeepDepth) != 0;
    now += static_cast<util::SimTime>(op_rng.uniform_u64(4));
    const double roll = op_rng.uniform01();

    if (roll < 0.45) {
      // Insert: ~30% of content carries a short freshness period (so
      // entries go stale while cached), ~15% is exact-match-only
      // (unpredictable-name content, footnote 5 of the paper).
      ndn::Data data;
      data.name = random_name(op_rng, mix);
      data.payload = std::string("p").append(std::to_string(op));
      if (op_rng.bernoulli(0.30))
        data.freshness_period = static_cast<std::int64_t>(op_rng.uniform_u64(30));
      if (op_rng.bernoulli(0.15)) data.exact_match_only = true;
      EntryMeta meta;
      meta.inserted_at = now;
      meta.last_access = now;

      Entry& ref_entry = ref.insert(data, meta);
      Entry& opt_entry = opt.insert(std::move(data), meta);
      ASSERT_EQ(ref_entry.data.name, opt_entry.data.name) << "op " << op;
      if (ref.last_victim()) {
        // The optimized store must have evicted the very same entry.
        ASSERT_FALSE(opt.contains(*ref.last_victim()))
            << "op " << op << " victim " << ref.last_victim()->to_uri();
      }
    } else if (roll < 0.75) {
      // Prefix find: interest for a random prefix depth (0 = root scans
      // everything); 40% MustBeFresh. A hit is touched half the time so
      // recency/frequency structures stay under churn.
      ndn::Interest interest;
      const ndn::Name full = random_name(op_rng, mix);
      interest.name = full.prefix(op_rng.uniform_u64(full.size() + 1));
      interest.must_be_fresh = op_rng.bernoulli(0.40);
      const bool touch_hit = op_rng.bernoulli(0.50);

      Entry* ref_hit = ref.find(interest, now);
      Entry* opt_hit = opt.find(interest, now);
      ASSERT_EQ(ref_hit != nullptr, opt_hit != nullptr)
          << "op " << op << " interest " << interest.name.to_uri();
      if (ref_hit) {
        ASSERT_EQ(ref_hit->data.name, opt_hit->data.name) << "op " << op;
        ASSERT_EQ(ref_hit->data.payload, opt_hit->data.payload) << "op " << op;
        if (touch_hit) {
          ref.touch(*ref_hit, now);
          opt.touch(*opt_hit, now);
        }
      }
    } else if (roll < 0.85) {
      // Exact find (no stats side effects in either implementation).
      const ndn::Name name = random_name(op_rng, mix);
      Entry* ref_hit = ref.find_exact(name);
      Entry* opt_hit = opt.prepare(name).existing();
      ASSERT_EQ(ref_hit != nullptr, opt_hit != nullptr) << "op " << op;
      if (ref_hit) {
        ASSERT_EQ(ref_hit->meta.inserted_at, opt_hit->meta.inserted_at) << "op " << op;
        ASSERT_EQ(ref_hit->meta.last_access, opt_hit->meta.last_access) << "op " << op;
      }
    } else if (roll < 0.93) {
      const ndn::Name name = random_name(op_rng, mix);
      ASSERT_EQ(ref.erase(name), opt.erase(name)) << "op " << op;
    } else if (roll < clear_from) {
      const ndn::Name name = random_name(op_rng, mix);
      ASSERT_EQ(ref.contains(name), opt.contains(name)) << "op " << op;
    } else {
      // Rare full clear (stats are preserved across clear in both).
      ref.clear();
      opt.clear();
    }

    ASSERT_EQ(ref.size(), opt.size()) << "op " << op;
    expect_same_stats(ref.stats(), opt.stats(), op);
    if (op % 4096 == 0) expect_same_contents(ref, opt, op);
    if (deep_cached && ref.count_at_depth(kSkewedDeepDepth) == 0) {
      if (roll < 0.45)
        ++emptied->by_eviction;
      else if (roll < 0.93)
        ++emptied->by_erase;
      else
        ++emptied->by_clear;
    }
  }
  expect_same_contents(ref, opt, kOpsPerPolicy);
}

TEST(CsDifferential, Lru) { run_differential(EvictionPolicy::kLru, 42); }
TEST(CsDifferential, Fifo) { run_differential(EvictionPolicy::kFifo, 43); }
TEST(CsDifferential, Lfu) { run_differential(EvictionPolicy::kLfu, 44); }
TEST(CsDifferential, Random) { run_differential(EvictionPolicy::kRandom, 45); }

// A second seed per policy at a different capacity, so the streams explore
// a different eviction pressure (32-entry cache, same 1.6k-name universe).
TEST(CsDifferential, SecondSeedSweep) {
  for (const auto policy : {EvictionPolicy::kLru, EvictionPolicy::kFifo,
                            EvictionPolicy::kLfu, EvictionPolicy::kRandom})
    run_differential(policy, 0xfeedULL + static_cast<std::uint64_t>(policy), 32);
}

// Mostly shallow names and a rare deep branch: the store keeps switching
// between scanning for a prefix interest (a deeper name is cached) and
// answering it from the exact index alone (none is), and every switch back
// comes from an eviction, an erase or a clear. The 16-entry cache is
// smaller than the mix's 44 names, so evictions are frequent.
TEST(CsDifferential, DepthSkewedNames) {
  for (const auto policy : {EvictionPolicy::kLru, EvictionPolicy::kFifo,
                            EvictionPolicy::kLfu, EvictionPolicy::kRandom}) {
    DeepEmptied emptied;
    run_differential(policy, 0x5eedULL + static_cast<std::uint64_t>(policy), 16,
                     NameMix::kDepthSkewed, &emptied);
    EXPECT_GT(emptied.by_eviction, 0u) << to_string(policy);
    EXPECT_GT(emptied.by_erase, 0u) << to_string(policy);
    EXPECT_GT(emptied.by_clear, 0u) << to_string(policy);
  }
}

}  // namespace
}  // namespace ndnp::cache
