// Differential soak test: sim::Scheduler vs the std::priority_queue
// reference, in the style of test_cs_differential.cpp.
//
// Both schedulers are driven in lockstep through identical seeded op
// streams — schedule_at / schedule_in at wildly mixed time scales (the
// same timestamp, nanoseconds through minutes ahead), batches placed
// under reserved sequence numbers (all at once in reverse, or fed one
// dispatch at a time), run_one, run_until, run — while every dispatched
// event deterministically decides (from a SplitMix64 stream keyed by its
// own id) whether to schedule children of its own. After every control op
// the externally observable state must match exactly: dispatch log
// (event id, timestamp) entries, clock, processed count and pending
// count. At the end both queues are drained and the
// full dispatch logs plus an FNV-1a digest are compared entry for entry.
//
// If the ready heap's (when, seq) ordering, its slab-held callables, or the
// reserved-number checks ever diverge from plain (time, seq) FIFO
// dispatch, some op in these streams will catch it.
#include "oracle/heap_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numeric>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/sim_time.hpp"

// ---------------------------------------------------------------------------
// Counting allocator (same technique as test_tracing.cpp, which lives in a
// different binary): replacement global operator new so the steady-state
// zero-allocation proof below can compare deltas across a straight-line
// region with no other allocation sources.

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
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

namespace ndnp::sim {
namespace {

// --- lockstep driver --------------------------------------------------------

struct LogEntry {
  std::uint64_t id;
  util::SimTime at;
  bool operator==(const LogEntry&) const = default;
};

/// One scheduler plus its observable dispatch history. Events are
/// identified by ids assigned in schedule order (identical across drivers
/// because dispatch order is identical); each dispatched event derives any
/// children it spawns purely from its own id, so both drivers' event trees
/// are equal by construction.
template <typename Sched>
class Driver {
 public:
  explicit Driver(std::uint64_t master_seed) : master_seed_(master_seed) {}

  Sched& sched() { return sched_; }
  const std::vector<LogEntry>& log() const { return log_; }

  void schedule_plain(util::SimDuration delay, bool absolute) {
    const std::uint64_t id = next_id_++;
    auto event = [this, id] { on_dispatch(id); };
    if (absolute) {
      sched_.schedule_at(sched_.now() + delay, event);
    } else {
      sched_.schedule_in(delay, event);
    }
  }

  /// Reserve one sequence number per delay and place the events under
  /// them. A fed batch goes in one at a time, in (time, index) order, each
  /// dispatch placing the next; an unfed one is placed at once, last
  /// reserved number first, so the heap sees numbers out of order.
  void schedule_reserved_batch(const std::vector<util::SimDuration>& delays, bool fed) {
    Batch batch;
    batch.base_seq = sched_.reserve_sequence(delays.size());
    batch.first_id = next_id_;
    next_id_ += delays.size();
    for (const util::SimDuration delay : delays) batch.at.push_back(sched_.now() + delay);
    if (!fed) {
      for (std::size_t k = delays.size(); k-- > 0;) {
        const std::uint64_t id = batch.first_id + k;
        sched_.schedule_reserved(batch.at[k], batch.base_seq + k, [this, id] { on_dispatch(id); });
      }
      return;
    }
    batch.order.resize(delays.size());
    std::iota(batch.order.begin(), batch.order.end(), std::size_t{0});
    std::ranges::stable_sort(batch.order, {}, [&](std::size_t k) { return batch.at[k]; });
    batches_.push_back(std::move(batch));
    feed_next(batches_.size() - 1);
  }

  std::uint64_t digest() const {
    std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a offset basis
    auto mix = [&hash](std::uint64_t value) {
      for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (8 * byte)) & 0xFF;
        hash *= 1099511628211ULL;
      }
    };
    for (const LogEntry& entry : log_) {
      mix(entry.id);
      mix(static_cast<std::uint64_t>(entry.at));
    }
    return hash;
  }

 private:
  void on_dispatch(std::uint64_t id) {
    log_.push_back(LogEntry{id, sched_.now()});
    // Child decisions come from the event's own id, not the shared op
    // stream, so nested scheduling exercises schedule-during-dispatch in
    // both drivers identically.
    util::SplitMix64 mix(master_seed_ ^ (id * 0x9E3779B97F4A7C15ULL));
    const std::uint64_t roll = mix.next() % 100;
    if (roll < 25) {  // one child, mixed magnitudes incl. same-timestamp
      const std::uint64_t pick = mix.next() % 5;
      const util::SimDuration delay =
          pick == 0 ? 0
                    : static_cast<util::SimDuration>(mix.next() % (std::uint64_t{1} << (6 * pick)));
      const std::uint64_t child = next_id_++;
      sched_.schedule_in(delay, [this, child] { on_dispatch(child); });
    } else if (roll < 30) {  // two children at the same future instant
      const util::SimDuration delay = static_cast<util::SimDuration>(1 + mix.next() % 2000);
      const std::uint64_t first = next_id_++;
      const std::uint64_t second = next_id_++;
      sched_.schedule_at(sched_.now() + delay, [this, first] { on_dispatch(first); });
      sched_.schedule_at(sched_.now() + delay, [this, second] { on_dispatch(second); });
    }
  }

  struct Batch {
    std::uint64_t base_seq = 0;
    std::uint64_t first_id = 0;
    std::vector<util::SimTime> at;
    std::vector<std::size_t> order;
    std::size_t pos = 0;
  };

  void feed_next(std::size_t b) {
    Batch& batch = batches_[b];
    if (batch.pos == batch.order.size()) return;
    const std::size_t k = batch.order[batch.pos++];
    sched_.schedule_reserved(batch.at[k], batch.base_seq + k, [this, b, k] {
      on_dispatch(batches_[b].first_id + k);
      feed_next(b);
    });
  }

  Sched sched_;
  std::uint64_t master_seed_;
  std::vector<Batch> batches_;
  std::uint64_t next_id_ = 1;
  std::vector<LogEntry> log_;
};

/// Delay magnitudes span every time scale the simulations use: 0 (same
/// timestamp), <1us, <262us, <67ms, <17s, and far-future (minutes).
util::SimDuration random_delay(util::Rng& rng) {
  switch (rng.uniform_u64(6)) {
    case 0: return 0;
    case 1: return static_cast<util::SimDuration>(rng.uniform_u64(1 << 10));
    case 2: return static_cast<util::SimDuration>(rng.uniform_u64(std::uint64_t{1} << 18));
    case 3: return static_cast<util::SimDuration>(rng.uniform_u64(std::uint64_t{1} << 26));
    case 4: return static_cast<util::SimDuration>(rng.uniform_u64(std::uint64_t{1} << 34));
    default: return static_cast<util::SimDuration>(rng.uniform_u64(std::uint64_t{1} << 38));
  }
}

/// Replays `ops` identically generated control operations through both
/// schedulers and asserts observable equivalence after every op.
void run_soak(std::uint64_t seed, std::size_t ops) {
  util::Rng rng(seed);
  // Reserved batches draw from their own stream, so `rng` yields the same
  // plain ops it always has.
  util::Rng reserve_rng(seed ^ 0x5EEDB47C4ULL);
  Driver<Scheduler> tested(seed);
  Driver<HeapScheduler> heap(seed);

  for (std::size_t op = 0; op < ops; ++op) {
    if (reserve_rng.bernoulli(0.04)) {
      std::vector<util::SimDuration> delays(1 + reserve_rng.uniform_u64(8));
      for (util::SimDuration& delay : delays) delay = random_delay(reserve_rng);
      const bool fed = reserve_rng.bernoulli(0.5);
      tested.schedule_reserved_batch(delays, fed);
      heap.schedule_reserved_batch(delays, fed);
    }
    const std::uint64_t kind = rng.uniform_u64(100);
    if (kind < 65) {
      const util::SimDuration delay = random_delay(rng);
      const bool absolute = rng.bernoulli(0.3);
      tested.schedule_plain(delay, absolute);
      heap.schedule_plain(delay, absolute);
    } else if (kind < 90) {
      ASSERT_EQ(tested.sched().run_one(), heap.sched().run_one())
          << "op " << op << " seed " << seed;
    } else if (kind < 98) {
      const util::SimTime until = tested.sched().now() + random_delay(rng);
      tested.sched().run_until(until);
      heap.sched().run_until(until);
    } else {
      tested.sched().run();
      heap.sched().run();
    }
    ASSERT_EQ(tested.sched().now(), heap.sched().now()) << "op " << op << " seed " << seed;
    ASSERT_EQ(tested.sched().processed(), heap.sched().processed())
        << "op " << op << " seed " << seed;
    ASSERT_EQ(tested.sched().pending(), heap.sched().pending())
        << "op " << op << " seed " << seed;
    ASSERT_EQ(tested.log().size(), heap.log().size()) << "op " << op << " seed " << seed;
    if (!tested.log().empty()) {
      ASSERT_EQ(tested.log().back(), heap.log().back()) << "op " << op << " seed " << seed;
    }
  }

  tested.sched().run();
  heap.sched().run();
  ASSERT_EQ(tested.log().size(), heap.log().size()) << "seed " << seed;
  for (std::size_t i = 0; i < tested.log().size(); ++i) {
    ASSERT_EQ(tested.log()[i], heap.log()[i]) << "entry " << i << " seed " << seed;
  }
  EXPECT_EQ(tested.digest(), heap.digest()) << "seed " << seed;
  EXPECT_EQ(tested.sched().now(), heap.sched().now()) << "seed " << seed;
  EXPECT_EQ(tested.sched().processed(), heap.sched().processed()) << "seed " << seed;
  EXPECT_EQ(tested.sched().pending(), heap.sched().pending()) << "seed " << seed;
  EXPECT_GE(tested.log().size(), ops / 2) << "soak dispatched suspiciously few events";
}

class SchedulerDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerDifferential, HundredThousandOpsDispatchIdentically) {
  run_soak(GetParam(), 100'000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerDifferential,
                         ::testing::Values(1ULL, 42ULL, 2013ULL, 0xC0FFEEULL));

TEST(SchedulerDifferential, ShortStreamsManySeeds) {
  for (std::uint64_t seed = 100; seed < 140; ++seed) run_soak(seed, 2'000);
}

// --- steady-state zero-allocation proof -------------------------------------

TEST(SchedulerAllocation, SteadyStateScheduleRunCyclesAllocateNothing) {
  Scheduler sched;
  util::Rng rng(7);
  std::uint64_t dispatched = 0;

  // Self-rescheduling workload: ~256 outstanding events at mixed horizons.
  const auto pump = [&](std::size_t cycles) {
    for (std::size_t i = 0; i < cycles; ++i) {
      while (sched.pending() < 256) {
        sched.schedule_in(random_delay(rng), [&dispatched] { ++dispatched; });
      }
      ASSERT_TRUE(sched.run_one());
    }
  };

  // Warm-up: lets the slab carve its chunks and the ready heap reach its
  // peak footprint.
  pump(20'000);

  const std::size_t chunks_before = sched.slab_chunks();
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  pump(20'000);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  const std::size_t allocations = after - before;

  EXPECT_EQ(allocations, 0u) << "steady-state schedule_in/run_one cycles must not allocate";
  EXPECT_EQ(sched.slab_chunks(), chunks_before) << "slab grew after warm-up";
  EXPECT_EQ(sched.heap_fallback_events(), 0u)
      << "soak captures fit inline; heap fallback indicates SmallFunction regression";
  EXPECT_GE(dispatched, 40'000u);
}

TEST(SchedulerAllocation, CountersExposeSlabAndFallbackState) {
  Scheduler sched;
  EXPECT_EQ(sched.slab_chunks(), 0u);
  sched.schedule_in(10, [] {});
  EXPECT_EQ(sched.slab_chunks(), 1u);
  EXPECT_EQ(sched.heap_fallback_events(), 0u);
  // A callable bigger than the inline budget must take the counted heap
  // fallback path and still dispatch correctly.
  struct Big {
    std::byte pad[200];
  };
  Big big{};
  bool ran = false;
  sched.schedule_in(20, [big, &ran] {
    (void)big;
    ran = true;
  });
  EXPECT_EQ(sched.heap_fallback_events(), 1u);
  sched.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sched.slab_peak_live(), 2u);
}

}  // namespace
}  // namespace ndnp::sim
