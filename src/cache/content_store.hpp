// Content Store (CS): the router-side cache at the heart of the paper.
//
// The CS maps full content names to Data packets plus the per-entry
// metadata the privacy policies need (Section IV's state function S and
// Algorithm 1's per-content counter c_C / threshold k_C live here).
// Capacity is bounded; eviction is pluggable (the paper's evaluation uses
// LRU; FIFO/LFU/random are provided for the eviction ablation bench).
//
// Lookup follows NDN matching: an interest for name N is satisfied by any
// cached Data whose name has N as a prefix — except exact-match-only
// content (unpredictable names), which requires full-name equality.
//
// Hot-path layout (every probe of the Section III attacks and every
// replayed interest of Section VII lands here):
//  - exact matches go through an open-addressing hash index keyed on
//    Name::hash64(), computed once per entry and cached — no ordered
//    string-vector comparisons;
//  - a strict-prefix interest (one naming no cached entry exactly, or only
//    a stale one) scans every entry, but only when some cached name has
//    more components than the interest: a count of entries per name depth
//    answers that, so a store probed only by full names never scans. Among
//    the paper's experiments only conversation detection (Section I) asks
//    for prefixes, over stores of a few hundred entries;
//  - eviction order is an intrusive doubly-linked list over entry nodes
//    (LRU/FIFO) or intrusive per-frequency FIFO buckets (LFU) — no
//    std::list<Name> of name copies;
//  - the random-eviction index is the list of all entries in insertion
//    order with swap-and-pop removal, the same list the prefix scan walks.
// The externally observable behavior (match selection, victim choice,
// stats, RNG consumption) is bit-identical to the original ordered-map
// implementation; tests/test_cs_differential.cpp proves it against a
// naive reference model over randomized op streams.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ndn/packet.hpp"
#include "util/metrics.hpp"
#include "util/open_hash.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"
#include "util/slab.hpp"

namespace ndnp::cache {

enum class EvictionPolicy { kLru, kFifo, kLfu, kRandom };

[[nodiscard]] std::string_view to_string(EvictionPolicy policy) noexcept;

/// Metadata the privacy layer (core/) keeps per cached entry.
struct EntryMeta {
  /// When the entry was inserted.
  util::SimTime inserted_at = util::kTimeUnset;
  /// Last access (exposed hit, delayed hit or simulated miss — the paper:
  /// "the corresponding cache entry becomes fresh even if the response is
  /// delayed").
  util::SimTime last_access = util::kTimeUnset;
  /// gamma_C: interest-in -> content-out delay observed when the router
  /// first fetched this content (drives the content-specific delay policy).
  util::SimDuration fetch_delay = 0;
  /// c_C of Algorithm 1: number of requests since insertion (maintained by
  /// RandomCache policies; the first request that caused the fetch is not
  /// counted, matching "cC := 0" on insertion).
  std::uint64_t request_count = 0;
  /// k_C of Algorithm 1; negative = not yet sampled.
  std::int64_t k_threshold = -1;
  /// Entry is currently treated as private by the router.
  bool treated_private = false;
  /// The non-private trigger has fired (Section V-B): a producer-unmarked
  /// entry was requested without the privacy bit and is de-privatized for
  /// its remaining cache lifetime.
  bool deprivatized = false;
};

/// A cached Data and its metadata. The store hands out references to its
/// own entries only; touch() relies on that.
struct Entry {
  ndn::Data data;
  EntryMeta meta;
  /// Cached Name::hash64(data.name); set by ContentStore::insert and never
  /// recomputed on the lookup path. Treat as read-only.
  std::uint64_t name_hash = 0;

  /// Whether the cached copy is still fresh at `now` (fresh forever when
  /// the producer set no freshness period).
  [[nodiscard]] bool fresh_at(util::SimTime now) const noexcept {
    return !data.freshness_period ||
           now <= meta.inserted_at + *data.freshness_period;
  }
};

/// Raw cache counters (mechanical; privacy-visible hit/miss accounting is
/// done a layer up where the policy decides what to expose). Each find()
/// bumps `lookups` exactly once — the internal exact-index fast path and
/// the prefix scan are one lookup, not two.
struct CacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t matches = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t overwrites = 0;  // insert() hit an existing exact name
  std::uint64_t erases = 0;      // erase() removed an entry
  std::uint64_t wiped = 0;       // entries dropped by clear()
};

/// What ContentStore::prepare() learned about one name, handed back to the
/// insert() that may follow so that the name is hashed and the exact index
/// probed only once. A plain value: the store keeps nothing between the two
/// calls. It stays valid until the next call that changes the store.
class InsertHint {
 public:
  /// The entry cached under exactly this name, or nullptr.
  [[nodiscard]] Entry* existing() const noexcept { return existing_; }

 private:
  friend class ContentStore;

  Entry* existing_ = nullptr;
  /// Name::hash64() of the prepared name.
  std::uint64_t name_hash_ = 0;
  /// Exact-index slot a new entry for this name takes.
  std::size_t slot_ = 0;
};

class ContentStore {
 public:
  /// capacity == 0 means unlimited (the paper's "Inf" baseline).
  /// `seed` feeds random eviction only.
  explicit ContentStore(std::size_t capacity, EvictionPolicy policy = EvictionPolicy::kLru,
                        std::uint64_t seed = 0);

  ContentStore(const ContentStore&) = delete;
  ContentStore& operator=(const ContentStore&) = delete;

  ~ContentStore();

  /// Probe for `name` before caching Data under it: one name hash and one
  /// exact-index probe. The hint names the entry already cached under
  /// exactly `name`, if any, and otherwise carries what insert() needs. Not
  /// a lookup: no stats change.
  [[nodiscard]] InsertHint prepare(const ndn::Name& name);

  /// Insert (or overwrite) content, given the hint prepare(data.name)
  /// returned with no store change since. Evicts per policy if at capacity.
  /// Returns the stored entry. `meta.inserted_at`/`last_access` should be
  /// set by the caller (the router knows the simulation clock).
  Entry& insert(ndn::Data data, EntryMeta meta, const InsertHint& hint);

  /// insert() with its own prepare().
  Entry& insert(ndn::Data data, EntryMeta meta);

  /// Find a match for `interest` (prefix semantics, exact-only honored).
  /// Does NOT touch recency — callers decide whether an access "counts"
  /// via touch(). Returns nullptr on miss. Among multiple matches the
  /// lexicographically smallest matching name is returned (deterministic,
  /// mirroring NDN's canonical-order selector default).
  ///
  /// When `now` is supplied and the interest sets MustBeFresh, stale
  /// entries are skipped as if absent; with the default kTimeUnset,
  /// freshness is not evaluated.
  [[nodiscard]] Entry* find(const ndn::Interest& interest,
                            util::SimTime now = util::kTimeUnset);
  [[nodiscard]] const Entry* find(const ndn::Interest& interest,
                                  util::SimTime now = util::kTimeUnset) const;

  /// Node label used for cs_lookup/cs_insert/cs_evict trace events (the
  /// owning forwarder sets its node name; default "cs").
  void set_trace_label(std::string label) { trace_label_ = std::move(label); }
  [[nodiscard]] const std::string& trace_label() const noexcept { return trace_label_; }

  /// Record an access for eviction ordering (LRU move-to-front, LFU count
  /// bump) and update meta.last_access. `entry` must be one of this
  /// store's entries; no index is probed.
  void touch(Entry& entry, util::SimTime now);

  /// Remove by exact name; returns true if something was erased.
  bool erase(const ndn::Name& name);

  void clear();

  [[nodiscard]] bool contains(const ndn::Name& name) const;
  [[nodiscard]] std::size_t size() const noexcept { return all_entries_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool unbounded() const noexcept { return capacity_ == 0; }
  [[nodiscard]] EvictionPolicy policy() const noexcept { return policy_; }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

  /// Publish the cache counters into `snap` under `prefix` (e.g.
  /// "cs.lookups"). Adds the current totals; call once per snapshot.
  void export_metrics(util::MetricsSnapshot& snap, const std::string& prefix) const;

  /// Structural invariants: size within capacity, and every inserted entry
  /// accounted for (inserts == overwrites + size + evictions + erases +
  /// wiped), matches never exceeding lookups. Throws
  /// util::InvariantViolation on breach.
  void check_integrity() const;

  /// Iterate over all entries (test/diagnostic use). Order is insertion
  /// order perturbed by swap-and-pop removals — deterministic for a given
  /// op sequence, but not sorted by name.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Node* node : all_entries_) fn(static_cast<const Entry&>(*node));
  }

 private:
  struct FreqBucket;

  /// An entry plus its index bookkeeping. Every Entry the store hands out
  /// is the base of a Node, so touch() gets from one to the other with a
  /// static_cast.
  struct Node : Entry {
    /// Index of this node in all_entries_ (maintained by swap-and-pop).
    std::uint32_t pos = 0;
    // Intrusive LRU/FIFO list (head = MRU / newest insertion).
    Node* order_prev = nullptr;
    Node* order_next = nullptr;
    // Intrusive LFU frequency bucket membership (FIFO within a bucket).
    Node* freq_prev = nullptr;
    Node* freq_next = nullptr;
    FreqBucket* freq_bucket = nullptr;
    std::uint64_t freq = 0;
  };

  /// LFU frequency buckets, ascending by freq, each holding its nodes in
  /// bump order (head = least recently promoted into this frequency).
  /// Victim = head of the first bucket — the same entry a
  /// std::multimap<freq, name>::begin() scan would name.
  struct FreqBucket {
    std::uint64_t freq = 0;
    Node* head = nullptr;
    Node* tail = nullptr;
    FreqBucket* prev = nullptr;
    FreqBucket* next = nullptr;
  };

  [[nodiscard]] Entry* find_impl(const ndn::Interest& interest, util::SimTime now,
                                 bool& saw_stale);
  [[nodiscard]] Node* exact_find(std::uint64_t hash, const ndn::Name& name) const noexcept;
  [[nodiscard]] bool caches_deeper_than(std::size_t depth) const noexcept;
  void index_insert(Node* node);
  void index_access(Node* node);
  void index_erase(Node* node);
  void remove_node(Node* node);
  [[nodiscard]] Node* pick_victim();

  // Intrusive-list helpers.
  void order_push_front(Node* node) noexcept;
  void order_unlink(Node* node) noexcept;
  void lfu_append(FreqBucket* bucket, Node* node) noexcept;
  void lfu_detach(Node* node) noexcept;
  void lfu_free_all() noexcept;

  [[nodiscard]] std::unique_ptr<Node> acquire_node();

  std::size_t capacity_;
  EvictionPolicy policy_;
  util::Rng rng_;
  /// Exact-match index and owner of all nodes, keyed by full-name hash.
  util::OpenHashTable<std::unique_ptr<Node>> entries_;
  /// Recycled nodes (bounded by the historical peak entry count): the
  /// steady-state insert+evict loop reuses the victim's allocation instead
  /// of hitting the allocator every cycle.
  std::vector<std::unique_ptr<Node>> free_nodes_;
  /// Every node, in insertion order with swap-and-pop removal. The prefix
  /// scan walks it, and it doubles as the random-eviction index — identical
  /// order and RNG consumption to the historical by_index_ vector.
  std::vector<Node*> all_entries_;
  /// entries_at_depth_[d]: cached names of exactly d components. A prefix
  /// interest of depth p scans only if some count past p is nonzero.
  std::vector<std::size_t> entries_at_depth_;
  Node* order_head_ = nullptr;  // LRU/FIFO: front = MRU / newest
  Node* order_tail_ = nullptr;  // LRU tail = least recent; FIFO tail = oldest
  FreqBucket* freq_head_ = nullptr;  // LFU: lowest frequency bucket
  /// LFU bucket arena: every frequency promotion creates the freq+1 bucket
  /// and retires the emptied one, so buckets must recycle through a slab
  /// free list or every LFU cache hit pays the allocator.
  util::Slab<FreqBucket> freq_bucket_slab_;
  CacheStats stats_;
  std::string trace_label_ = "cs";
};

}  // namespace ndnp::cache
