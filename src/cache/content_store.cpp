#include "cache/content_store.hpp"

#include <cassert>
#include <stdexcept>

#include "util/invariant.hpp"
#include "util/tracing.hpp"

namespace ndnp::cache {

namespace {

/// Detail string for a cs_lookup event; built only when a tracer is live.
[[nodiscard]] std::string lookup_detail(const Entry* entry, bool saw_stale, std::size_t depth,
                                        EvictionPolicy policy) {
  std::string detail = "result=";
  detail += entry != nullptr ? "hit" : (saw_stale ? "expired" : "miss");
  detail += " depth=";
  detail += std::to_string(depth);
  detail += " policy=";
  detail += to_string(policy);
  return detail;
}

}  // namespace

std::string_view to_string(EvictionPolicy policy) noexcept {
  switch (policy) {
    case EvictionPolicy::kLru: return "LRU";
    case EvictionPolicy::kFifo: return "FIFO";
    case EvictionPolicy::kLfu: return "LFU";
    case EvictionPolicy::kRandom: return "Random";
  }
  return "?";
}

ContentStore::ContentStore(std::size_t capacity, EvictionPolicy policy, std::uint64_t seed)
    : capacity_(capacity), policy_(policy), rng_(seed) {}

ContentStore::~ContentStore() { lfu_free_all(); }

ContentStore::Node* ContentStore::exact_find(std::uint64_t hash,
                                             const ndn::Name& name) const noexcept {
  const std::unique_ptr<Node>* slot = entries_.find(
      hash, [&name](const std::unique_ptr<Node>& node) { return node->data.name == name; });
  return slot ? slot->get() : nullptr;
}

InsertHint ContentStore::prepare(const ndn::Name& name) {
  InsertHint hint;
  hint.count_ = name.size() + 1;
  std::uint64_t* out = hint.inline_.data();
  if (hint.count_ > InsertHint::kInlineHashes) {
    hint.spill_.resize(hint.count_);
    out = hint.spill_.data();
  }
  name.visit_prefix_hashes([&out](std::uint64_t h) { *out++ = h; });
  const auto probe = entries_.probe(hint.name_hash(), [&name](const std::unique_ptr<Node>& node) {
    return node->data.name == name;
  });
  hint.existing_ = probe.found ? probe.found->get() : nullptr;
  hint.slot_ = probe.slot;
  return hint;
}

Entry& ContentStore::insert(ndn::Data data, EntryMeta meta) {
  const InsertHint hint = prepare(data.name);
  return insert(std::move(data), meta, hint);
}

Entry& ContentStore::insert(ndn::Data data, EntryMeta meta, const InsertHint& hint) {
  assert(hint.count_ == data.name.size() + 1);
  ++stats_.inserts;
  if (Entry* existing = hint.existing_) {
    // Overwrite in place; keep eviction position (refresh handled by
    // touch() from the caller if desired).
    ++stats_.overwrites;
    existing->data = std::move(data);
    existing->meta = meta;
    return *existing;
  }

  if (!unbounded() && size() >= capacity_) {
    Node* victim = pick_victim();
    NDNP_TRACE_EVENT(util::TraceEventType::kCsEvict, trace_label_, meta.inserted_at,
                     victim->data.name.to_uri(), "reason=capacity");
    remove_node(victim);  // leaves a tombstone: hint.slot_ stays valid
    ++stats_.evictions;
  }

  std::unique_ptr<Node> node = acquire_node();
  Node* raw = node.get();
  raw->data = std::move(data);
  raw->meta = meta;
  raw->name_hash = hint.name_hash();
  // resize() reuses a recycled node's capacity.
  raw->prefixes.resize(hint.count_);
  for (std::size_t d = 0; d < hint.count_; ++d)
    raw->prefixes[d] = {.hash = hint.prefix_hash(d)};

  index_insert(raw);

  // Register under every *strict* prefix depth. Depth 0 is all_entries_
  // (shared with the random-eviction index); depths 1..depth-1 live in the
  // per-depth hash tables. The entry's own full depth is deliberately not
  // registered: an interest at that depth naming this entry exactly is
  // served by the exact-match fast path in find(), so a full-depth bucket
  // (one per unique name — pure alloc/probe churn) would never decide a
  // lookup.
  raw->prefixes[0].pos = static_cast<std::uint32_t>(all_entries_.size());
  all_entries_.push_back(raw);
  if (raw->depth() >= 2 && prefix_index_.size() < raw->depth())
    prefix_index_.resize(raw->depth());
  for (std::size_t d = 1; d < raw->depth(); ++d) {
    auto [bucket, created] = prefix_index_[d].emplace(
        raw->prefixes[d].hash, {}, [](const std::vector<Node*>&) { return true; });
    (void)created;
    raw->prefixes[d].pos = static_cast<std::uint32_t>(bucket->size());
    bucket->push_back(raw);
  }

  entries_.emplace_at(hint.slot_, raw->name_hash, std::move(node));
  NDNP_TRACE_EVENT(util::TraceEventType::kCsInsert, trace_label_, meta.inserted_at,
                   raw->data.name.to_uri(),
                   "size=" + std::to_string(size()) + " cap=" + std::to_string(capacity_));
  return *raw;
}

Entry* ContentStore::find(const ndn::Interest& interest, util::SimTime now) {
  bool saw_stale = false;
  Entry* entry = find_impl(interest, now, saw_stale);
  NDNP_TRACE_EVENT(util::TraceEventType::kCsLookup, trace_label_,
                   now == util::kTimeUnset ? util::kTimeZero : now, interest.name.to_uri(),
                   lookup_detail(entry, saw_stale, interest.name.size(), policy_));
  return entry;
}

Entry* ContentStore::find_impl(const ndn::Interest& interest, util::SimTime now,
                               bool& saw_stale) {
  ++stats_.lookups;
  const bool check_freshness = interest.must_be_fresh && now != util::kTimeUnset;
  const std::uint64_t hash = interest.name.hash64();

  // Exact fast path: an entry named exactly interest.name always satisfies
  // (prefix trivially, exact-only by equality) and — having the empty
  // suffix — is the lexicographically smallest possible match.
  if (Node* node = exact_find(hash, interest.name)) {
    if (!check_freshness || node->fresh_at(now)) {
      ++stats_.matches;
      return node;
    }
    saw_stale = true;
  }

  // Prefix path: every *strictly deeper* candidate sits in the bucket
  // keyed by the interest name's own hash at its own depth (a depth-p
  // entry named exactly interest.name was already handled above). Among
  // the eligible ones, return the lexicographically smallest
  // (canonical-order selector).
  const std::size_t depth = interest.name.size();
  const std::vector<Node*>* bucket = nullptr;
  if (depth == 0) {
    bucket = &all_entries_;
  } else if (depth < prefix_index_.size()) {
    bucket = prefix_index_[depth].find(hash, [](const std::vector<Node*>&) { return true; });
  }
  if (!bucket) return nullptr;

  Node* best = nullptr;
  for (Node* node : *bucket) {
    // satisfies() re-checks the prefix relation, which also screens out
    // hash-collision strangers sharing this bucket.
    if (!node->data.satisfies(interest)) continue;
    if (check_freshness && !node->fresh_at(now)) {
      saw_stale = true;
      continue;
    }
    if (!best || node->data.name < best->data.name) best = node;
  }
  if (!best) return nullptr;
  ++stats_.matches;
  return best;
}

const Entry* ContentStore::find(const ndn::Interest& interest, util::SimTime now) const {
  return const_cast<ContentStore*>(this)->find(interest, now);
}

Entry* ContentStore::find_exact(const ndn::Name& name) {
  return exact_find(name.hash64(), name);
}

const Entry* ContentStore::find_exact(const ndn::Name& name) const {
  return const_cast<ContentStore*>(this)->find_exact(name);
}

void ContentStore::touch(Entry& entry, util::SimTime now) {
  entry.meta.last_access = now;
  Node* node = static_cast<Node*>(&entry);
  assert(node->prefixes[0].pos < all_entries_.size() &&
         all_entries_[node->prefixes[0].pos] == node);
  index_access(node);
}

bool ContentStore::erase(const ndn::Name& name) {
  Node* node = exact_find(name.hash64(), name);
  if (!node) return false;
  NDNP_TRACE_EVENT(util::TraceEventType::kCsEvict, trace_label_,
                   node->meta.last_access != util::kTimeUnset
                       ? node->meta.last_access
                       : node->meta.inserted_at,
                   node->data.name.to_uri(), "reason=erase");
  remove_node(node);
  ++stats_.erases;
  return true;
}

void ContentStore::remove_node(Node* node) {
  index_erase(node);

  // Unregister from every prefix bucket: swap-and-pop, fixing the moved
  // node's back-pointer for that depth. Depth 0 is all_entries_.
  {
    const std::size_t idx = node->prefixes[0].pos;
    if (idx + 1 != all_entries_.size()) {
      all_entries_[idx] = all_entries_.back();
      all_entries_[idx]->prefixes[0].pos = static_cast<std::uint32_t>(idx);
    }
    all_entries_.pop_back();
  }
  for (std::size_t d = 1; d < node->depth(); ++d) {
    std::vector<Node*>* bucket =
        prefix_index_[d].find(node->prefixes[d].hash, [](const std::vector<Node*>&) { return true; });
    assert(bucket != nullptr);
    const std::size_t idx = node->prefixes[d].pos;
    assert(idx < bucket->size() && (*bucket)[idx] == node);
    if (idx + 1 != bucket->size()) {
      (*bucket)[idx] = bucket->back();
      (*bucket)[idx]->prefixes[d].pos = static_cast<std::uint32_t>(idx);
    }
    bucket->pop_back();
    if (bucket->empty())
      prefix_index_[d].erase(node->prefixes[d].hash,
                             [](const std::vector<Node*>&) { return true; });
  }

  bool erased = false;
  std::unique_ptr<Node> owned = entries_.extract(
      node->name_hash,
      [node](const std::unique_ptr<Node>& n) { return n.get() == node; }, &erased);
  assert(erased && owned.get() == node);
  (void)erased;
  free_nodes_.push_back(std::move(owned));  // recycle the allocation
}

std::unique_ptr<ContentStore::Node> ContentStore::acquire_node() {
  if (free_nodes_.empty()) return std::make_unique<Node>();
  std::unique_ptr<Node> node = std::move(free_nodes_.back());
  free_nodes_.pop_back();
  return node;
}

void ContentStore::clear() {
  stats_.wiped += all_entries_.size();
  entries_.clear();
  for (auto& table : prefix_index_) table.clear();
  all_entries_.clear();
  order_head_ = order_tail_ = nullptr;
  lfu_free_all();
}

bool ContentStore::contains(const ndn::Name& name) const {
  return exact_find(name.hash64(), name) != nullptr;
}

// --- eviction-order maintenance --------------------------------------------

void ContentStore::order_push_front(Node* node) noexcept {
  node->order_prev = nullptr;
  node->order_next = order_head_;
  if (order_head_) order_head_->order_prev = node;
  order_head_ = node;
  if (!order_tail_) order_tail_ = node;
}

void ContentStore::order_unlink(Node* node) noexcept {
  if (node->order_prev)
    node->order_prev->order_next = node->order_next;
  else
    order_head_ = node->order_next;
  if (node->order_next)
    node->order_next->order_prev = node->order_prev;
  else
    order_tail_ = node->order_prev;
  node->order_prev = node->order_next = nullptr;
}

void ContentStore::lfu_append(FreqBucket* bucket, Node* node) noexcept {
  node->freq_bucket = bucket;
  node->freq_prev = bucket->tail;
  node->freq_next = nullptr;
  if (bucket->tail)
    bucket->tail->freq_next = node;
  else
    bucket->head = node;
  bucket->tail = node;
}

void ContentStore::lfu_detach(Node* node) noexcept {
  FreqBucket* bucket = node->freq_bucket;
  if (node->freq_prev)
    node->freq_prev->freq_next = node->freq_next;
  else
    bucket->head = node->freq_next;
  if (node->freq_next)
    node->freq_next->freq_prev = node->freq_prev;
  else
    bucket->tail = node->freq_prev;
  node->freq_prev = node->freq_next = nullptr;
  node->freq_bucket = nullptr;
  if (!bucket->head) {
    if (bucket->prev)
      bucket->prev->next = bucket->next;
    else
      freq_head_ = bucket->next;
    if (bucket->next) bucket->next->prev = bucket->prev;
    freq_bucket_slab_.destroy(bucket);
  }
}

void ContentStore::lfu_free_all() noexcept {
  for (FreqBucket* bucket = freq_head_; bucket != nullptr;) {
    FreqBucket* next = bucket->next;
    freq_bucket_slab_.destroy(bucket);
    bucket = next;
  }
  freq_head_ = nullptr;
}

void ContentStore::index_insert(Node* node) {
  switch (policy_) {
    case EvictionPolicy::kLru:
    case EvictionPolicy::kFifo:
      order_push_front(node);
      break;
    case EvictionPolicy::kLfu: {
      node->freq = 1;
      if (!freq_head_ || freq_head_->freq != 1) {
        FreqBucket* bucket =
            freq_bucket_slab_.create(FreqBucket{.freq = 1, .next = freq_head_});
        if (freq_head_) freq_head_->prev = bucket;
        freq_head_ = bucket;
      }
      lfu_append(freq_head_, node);
      break;
    }
    case EvictionPolicy::kRandom:
      break;  // all_entries_ (maintained for every policy) is the index
  }
}

void ContentStore::index_access(Node* node) {
  switch (policy_) {
    case EvictionPolicy::kLru:
      if (order_head_ != node) {  // move-to-front
        order_unlink(node);
        order_push_front(node);
      }
      break;
    case EvictionPolicy::kFifo:
      break;  // insertion order is immutable
    case EvictionPolicy::kLfu: {
      FreqBucket* bucket = node->freq_bucket;
      const std::uint64_t target = node->freq + 1;
      // Find-or-create the freq+1 bucket before detaching (detach may
      // delete `bucket` if the node was its only member).
      FreqBucket* next = bucket->next;
      if (!next || next->freq != target) {
        next = freq_bucket_slab_.create(
            FreqBucket{.freq = target, .prev = bucket, .next = bucket->next});
        if (bucket->next) bucket->next->prev = next;
        bucket->next = next;
      }
      lfu_detach(node);
      node->freq = target;
      lfu_append(next, node);
      break;
    }
    case EvictionPolicy::kRandom:
      break;
  }
}

void ContentStore::index_erase(Node* node) {
  switch (policy_) {
    case EvictionPolicy::kLru:
    case EvictionPolicy::kFifo:
      order_unlink(node);
      break;
    case EvictionPolicy::kLfu:
      lfu_detach(node);
      break;
    case EvictionPolicy::kRandom:
      break;  // all_entries_ removal happens in remove_node for all policies
  }
}

ContentStore::Node* ContentStore::pick_victim() {
  switch (policy_) {
    case EvictionPolicy::kLru:
    case EvictionPolicy::kFifo:
      if (!order_tail_) throw std::logic_error("ContentStore: eviction from empty cache");
      return order_tail_;  // LRU tail = least recent; FIFO tail = oldest
    case EvictionPolicy::kLfu:
      if (!freq_head_) throw std::logic_error("ContentStore: eviction from empty cache");
      return freq_head_->head;
    case EvictionPolicy::kRandom:
      if (all_entries_.empty())
        throw std::logic_error("ContentStore: eviction from empty cache");
      return all_entries_[rng_.uniform_u64(all_entries_.size())];
  }
  throw std::logic_error("ContentStore: unknown policy");
}

void ContentStore::export_metrics(util::MetricsSnapshot& snap,
                                  const std::string& prefix) const {
  snap.counters[prefix + ".lookups"] += stats_.lookups;
  snap.counters[prefix + ".matches"] += stats_.matches;
  snap.counters[prefix + ".inserts"] += stats_.inserts;
  snap.counters[prefix + ".evictions"] += stats_.evictions;
  snap.counters[prefix + ".overwrites"] += stats_.overwrites;
  snap.counters[prefix + ".erases"] += stats_.erases;
  snap.counters[prefix + ".wiped"] += stats_.wiped;
  snap.counters[prefix + ".size"] += size();
}

void ContentStore::check_integrity() const {
  NDNP_INVARIANT_CHECK("cs", unbounded() || size() <= capacity_,
                       "size=%zu exceeds capacity=%zu", size(), capacity_);
  // Entry conservation: every insert either overwrote in place or created
  // an entry that is still resident or left via eviction/erase/clear.
  NDNP_INVARIANT_CHECK(
      "cs",
      stats_.inserts ==
          stats_.overwrites + size() + stats_.evictions + stats_.erases + stats_.wiped,
      "inserts=%llu != overwrites=%llu + size=%zu + evictions=%llu + erases=%llu + "
      "wiped=%llu",
      static_cast<unsigned long long>(stats_.inserts),
      static_cast<unsigned long long>(stats_.overwrites), size(),
      static_cast<unsigned long long>(stats_.evictions),
      static_cast<unsigned long long>(stats_.erases),
      static_cast<unsigned long long>(stats_.wiped));
  NDNP_INVARIANT_CHECK("cs", stats_.matches <= stats_.lookups,
                       "matches=%llu exceeds lookups=%llu",
                       static_cast<unsigned long long>(stats_.matches),
                       static_cast<unsigned long long>(stats_.lookups));
}

}  // namespace ndnp::cache
