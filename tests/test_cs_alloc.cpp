// Steady-state allocation proofs: the ContentStore LFU index, the
// zero-copy Data payload on the forwarding path, and the allocations a
// whole fetch over that path makes.
//
// Regression test for the FreqBucket churn bug surfaced by the
// alloc-naked-new lint rule: index_access() used to `new` a FreqBucket on
// every frequency promotion (i.e. every LFU cache hit) and `delete` the
// emptied one, so a hot LFU cache paid the allocator twice per hit.
// Buckets now recycle through util::Slab, so once the bucket working set
// has been carved, steady-state hit churn must perform zero heap
// allocations.
//
// The counting global operator new below is the same technique as
// test_scheduler_differential.cpp / test_tracing.cpp; it must live in its
// own test binary because replacement of ::operator new is per-binary.
#include "cache/content_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "sim/topology.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
/// Allocations of at least kPayloadBytes: a payload-sized buffer.
constexpr std::size_t kPayloadBytes = 8'192;
std::atomic<std::size_t> g_payload_sized_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size >= kPayloadBytes)
    g_payload_sized_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

// std::stable_sort's buffer comes from the nothrow form and goes back
// through plain delete, so the nothrow pair is replaced too: left to the
// runtime, ASan reports that buffer as an alloc-dealloc mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

// The replacement operators pair ::new with std::free by design; GCC's
// heuristic cannot see that this *is* the allocation function.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace ndnp::cache {
namespace {

ndn::Data make_content(const std::string& uri) {
  ndn::Data data;
  data.name = ndn::Name(uri);
  data.payload = "payload";
  return data;
}

EntryMeta meta_at(util::SimTime t) {
  EntryMeta meta;
  meta.inserted_at = t;
  meta.last_access = t;
  return meta;
}

// std::stable_sort takes its buffer through the nothrow operator new; the
// counting allocator must see it, and the replaced delete must return it
// (under ASan a mismatched pair aborts the binary here).
TEST(CountingAllocator, StableSortBufferIsCountedAndReturned) {
  std::vector<std::pair<int, int>> items;
  for (int i = 0; i < 64; ++i) items.emplace_back(i % 4, i);
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  std::stable_sort(items.begin(), items.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  EXPECT_GT(g_allocations.load(std::memory_order_relaxed), before);
  // Equal keys kept their original (ascending) order.
  EXPECT_TRUE(std::is_sorted(items.begin(), items.end()));
}

TEST(ContentStoreAlloc, LfuSteadyStateHitChurnDoesNotAllocate) {
  constexpr std::size_t kEntries = 64;
  constexpr int kWarmupRounds = 3;
  constexpr int kMeasuredRounds = 16;

  ContentStore cs(kEntries, EvictionPolicy::kLfu);

  std::vector<Entry*> entries;
  entries.reserve(kEntries);
  util::SimTime now = 0;
  for (std::size_t i = 0; i < kEntries; ++i)
    entries.push_back(&cs.insert(make_content("/obj/" + std::to_string(i)), meta_at(++now)));

  // Warm-up: round-robin promotions carve the peak bucket working set
  // (the freq-f and freq-f+1 buckets coexist mid-round) into the slab.
  for (int round = 0; round < kWarmupRounds; ++round)
    for (Entry* entry : entries) cs.touch(*entry, ++now);

  // Steady state: every touch promotes its node into a fresh freq+1
  // bucket and retires the emptied one — exactly the create/destroy
  // pattern that used to hit the allocator on every LFU cache hit.
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < kMeasuredRounds; ++round)
    for (Entry* entry : entries) cs.touch(*entry, ++now);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "LFU frequency promotions allocated during steady-state hit churn";
  EXPECT_NO_THROW(cs.check_integrity());
  EXPECT_EQ(cs.size(), kEntries);
}

// The LRU move-to-front path was always pointer surgery; pin that too so
// a future index change cannot quietly reintroduce per-hit allocation
// for the paper's default eviction policy.
TEST(ContentStoreAlloc, LruSteadyStateHitChurnDoesNotAllocate) {
  constexpr std::size_t kEntries = 64;
  constexpr int kMeasuredRounds = 16;

  ContentStore cs(kEntries, EvictionPolicy::kLru);

  std::vector<Entry*> entries;
  entries.reserve(kEntries);
  util::SimTime now = 0;
  for (std::size_t i = 0; i < kEntries; ++i)
    entries.push_back(&cs.insert(make_content("/obj/" + std::to_string(i)), meta_at(++now)));

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < kMeasuredRounds; ++round)
    for (Entry* entry : entries) cs.touch(*entry, ++now);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u) << "LRU move-to-front allocated during steady-state hit churn";
  EXPECT_NO_THROW(cs.check_integrity());
  EXPECT_EQ(cs.size(), kEntries);
}

/// Consumer U -> edge R -> core X1 -> producer P, whose auto-generated
/// responses carry kPayloadBytes each. Each fetch runs the network until
/// it is idle, and bounded stores keep every table at its warmed-up size,
/// so what a fetch allocates after warm-up is its steady-state cost.
class ChainFetches {
 public:
  static constexpr int kWarmup = 64;
  static constexpr int kMeasured = 256;

  ChainFetches() : chain_(sim::make_probe_scenario(params())) {
    for (int i = 0; i < kWarmup; ++i) fetch(i);
  }

  /// Runs the measured fetches; returns how many allocations `counter`
  /// saw during them.
  std::size_t measure(const std::atomic<std::size_t>& counter) {
    const std::size_t before = counter.load(std::memory_order_relaxed);
    for (int i = kWarmup; i < kWarmup + kMeasured; ++i) fetch(i);
    return counter.load(std::memory_order_relaxed) - before;
  }

  [[nodiscard]] std::uint64_t data_received() const { return chain_->user->data_received(); }

 private:
  static sim::ScenarioParams params() {
    sim::ScenarioParams p = sim::lan_scenario_params(/*seed=*/5);
    p.router_config.cs_capacity = 16;
    p.producer_config.payload_size = kPayloadBytes;
    return p;
  }

  void fetch(int i) {
    chain_->user->fetch(chain_->producer->prefix().append("obj" + std::to_string(i)),
                        [](const ndn::Data&, util::SimDuration) {});
    chain_->topology.scheduler().run();
  }

  std::unique_ptr<sim::ProbeScenario> chain_;
};

TEST(PayloadAlloc, ForwardingOverHopsCopiesNoPayload) {
  // Any payload-sized allocation after warm-up is a copy of payload bytes
  // somewhere on the path.
  ChainFetches chain;
  EXPECT_EQ(chain.measure(g_payload_sized_allocations), 0u)
      << "a Data forwarded over the chain copied its payload";
  EXPECT_EQ(chain.data_received(),
            static_cast<std::uint64_t>(ChainFetches::kWarmup + ChainFetches::kMeasured));
}

TEST(PayloadAlloc, ChainFetchAllocationsStayUnderCeiling) {
  // Names are flat and fit inline, the forwarder keeps its PIT matches on
  // the stack and forwards to its one FIB next hop without building a list,
  // payloads are shared and a response is signed only if read, so what a
  // fetch still allocates is PIT table nodes, the consumer's pending entry
  // and each response's deferred-signature state: 7.16 per fetch measured.
  constexpr std::size_t kCeilingPerFetch = 8;
  ChainFetches chain;
  const std::size_t allocations = chain.measure(g_allocations);
  EXPECT_LE(allocations, kCeilingPerFetch * ChainFetches::kMeasured)
      << "per fetch: " << static_cast<double>(allocations) / ChainFetches::kMeasured;
}

}  // namespace
}  // namespace ndnp::cache
