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

bool ContentStore::caches_deeper_than(std::size_t depth) const noexcept {
  for (std::size_t d = depth + 1; d < entries_at_depth_.size(); ++d)
    if (entries_at_depth_[d] != 0) return true;
  return false;
}

InsertHint ContentStore::prepare(const ndn::Name& name) {
  InsertHint hint;
  hint.name_hash_ = name.hash64();
  const auto probe = entries_.probe(hint.name_hash_, [&name](const std::unique_ptr<Node>& node) {
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
  assert(hint.name_hash_ == data.name.hash64());
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
  raw->name_hash = hint.name_hash_;
  index_insert(raw);
  raw->pos = static_cast<std::uint32_t>(all_entries_.size());
  all_entries_.push_back(raw);
  const std::size_t depth = raw->data.name.size();
  if (depth >= entries_at_depth_.size()) entries_at_depth_.resize(depth + 1);
  ++entries_at_depth_[depth];

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

  // Exact fast path: an entry named exactly interest.name always satisfies
  // (prefix trivially, exact-only by equality) and — having the empty
  // suffix — is the lexicographically smallest possible match.
  if (Node* node = exact_find(interest.name.hash64(), interest.name)) {
    if (!check_freshness || node->fresh_at(now)) {
      ++stats_.matches;
      return node;
    }
    saw_stale = true;
  }

  // Prefix path: only a strictly deeper name can still match (one named
  // exactly interest.name was handled above). Scan every entry, and return
  // the lexicographically smallest eligible one (canonical-order
  // selector), so the scan order does not matter.
  if (!caches_deeper_than(interest.name.size())) return nullptr;

  Node* best = nullptr;
  for (Node* node : all_entries_) {
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

void ContentStore::touch(Entry& entry, util::SimTime now) {
  entry.meta.last_access = now;
  Node* node = static_cast<Node*>(&entry);
  assert(node->pos < all_entries_.size() && all_entries_[node->pos] == node);
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

  const std::size_t idx = node->pos;
  if (idx + 1 != all_entries_.size()) {
    all_entries_[idx] = all_entries_.back();
    all_entries_[idx]->pos = static_cast<std::uint32_t>(idx);
  }
  all_entries_.pop_back();
  --entries_at_depth_[node->data.name.size()];

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
  entries_at_depth_.clear();
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
