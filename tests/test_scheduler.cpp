// Scheduler contract tests, typed over BOTH implementations: sim::Scheduler
// and the std::priority_queue reference. Every test runs twice
// — the dispatch contract ((time, seq) FIFO order, run_until clock
// semantics, past-time rejection, reserved sequence numbers) is shared, and
// tests/test_scheduler_differential.cpp additionally proves the two
// equivalent over seeded random soak streams.
#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "oracle/heap_scheduler.hpp"
#include "util/rng.hpp"

namespace ndnp::sim {
namespace {

template <typename Sched>
class SchedulerContract : public ::testing::Test {};

using Implementations = ::testing::Types<Scheduler, HeapScheduler>;

class ImplNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    return T::kImplName;
  }
};

TYPED_TEST_SUITE(SchedulerContract, Implementations, ImplNames);

TYPED_TEST(SchedulerContract, StartsAtTimeZero) {
  const TypeParam sched;
  EXPECT_EQ(sched.now(), 0);
  EXPECT_EQ(sched.pending(), 0u);
}

TYPED_TEST(SchedulerContract, RunsEventsInTimeOrder) {
  TypeParam sched;
  std::vector<int> order;
  sched.schedule_at(30, [&] { order.push_back(3); });
  sched.schedule_at(10, [&] { order.push_back(1); });
  sched.schedule_at(20, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 30);
  EXPECT_EQ(sched.processed(), 3u);
}

TYPED_TEST(SchedulerContract, EqualTimesRunInFifoOrder) {
  TypeParam sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sched.schedule_at(5, [&order, i] { order.push_back(i); });
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TYPED_TEST(SchedulerContract, ScheduleInIsRelative) {
  TypeParam sched;
  util::SimTime seen = -1;
  sched.schedule_at(100, [&] {
    sched.schedule_in(50, [&] { seen = sched.now(); });
  });
  sched.run();
  EXPECT_EQ(seen, 150);
}

TYPED_TEST(SchedulerContract, EventsMayScheduleMoreEvents) {
  TypeParam sched;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) sched.schedule_in(10, chain);
  };
  sched.schedule_at(0, chain);
  sched.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sched.now(), 40);
}

TYPED_TEST(SchedulerContract, RunOneReturnsFalseWhenEmpty) {
  TypeParam sched;
  EXPECT_FALSE(sched.run_one());
  sched.schedule_at(1, [] {});
  EXPECT_TRUE(sched.run_one());
  EXPECT_FALSE(sched.run_one());
}

TYPED_TEST(SchedulerContract, RunUntilStopsAtDeadlineAndAdvancesClock) {
  TypeParam sched;
  int ran = 0;
  sched.schedule_at(10, [&] { ++ran; });
  sched.schedule_at(20, [&] { ++ran; });
  sched.schedule_at(30, [&] { ++ran; });
  sched.run_until(20);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sched.now(), 20);
  EXPECT_EQ(sched.pending(), 1u);
  sched.run_until(100);
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(sched.now(), 100);  // clock advances past the last event
}

// Regression (previously only documented in a comment): when the queue
// drains before the deadline, the clock still advances all the way to
// `until`, so back-to-back run_until windows tile time without gaps.
TYPED_TEST(SchedulerContract, RunUntilAdvancesClockWhenQueueDrainsEarly) {
  TypeParam sched;
  sched.schedule_at(5, [] {});
  sched.run_until(1'000'000);
  EXPECT_EQ(sched.now(), 1'000'000);
  EXPECT_EQ(sched.pending(), 0u);

  // Entirely empty queue: the clock still jumps to the deadline.
  sched.run_until(2'000'000);
  EXPECT_EQ(sched.now(), 2'000'000);

  // A deadline already in the past runs nothing and never rewinds.
  sched.run_until(1'500'000);
  EXPECT_EQ(sched.now(), 2'000'000);
  EXPECT_EQ(sched.processed(), 1u);
}

// Regression (previously only documented): schedule_at must reject
// anything earlier than the current clock — including a clock position
// reached via run_until's early-drain advance, where no event ever ran at
// that timestamp.
TYPED_TEST(SchedulerContract, RejectsPastTimesAfterRunUntilAdvancedClock) {
  TypeParam sched;
  sched.run_until(500);
  EXPECT_EQ(sched.now(), 500);
  EXPECT_THROW(sched.schedule_at(499, [] {}), std::logic_error);
  bool ran = false;
  sched.schedule_at(500, [&] { ran = true; });  // exactly-now stays legal
  sched.run();
  EXPECT_TRUE(ran);
}

TYPED_TEST(SchedulerContract, RejectsPastAndInvalidEvents) {
  TypeParam sched;
  sched.schedule_at(50, [] {});
  (void)sched.run_one();
  EXPECT_THROW(sched.schedule_at(10, [] {}), std::logic_error);
  EXPECT_THROW(sched.schedule_in(-1, [] {}), std::logic_error);
  EXPECT_THROW(sched.schedule_at(100, std::function<void()>{}), std::invalid_argument);
}

TYPED_TEST(SchedulerContract, SchedulingAtNowIsAllowed) {
  TypeParam sched;
  bool ran = false;
  sched.schedule_at(10, [&] { sched.schedule_at(10, [&] { ran = true; }); });
  sched.run();
  EXPECT_TRUE(ran);
}

// Sparse far-future schedules: events days apart dispatch in time order
// and the clock lands on the last one.
TYPED_TEST(SchedulerContract, SparseFarFutureEventsDispatchInOrder) {
  TypeParam sched;
  std::vector<int> order;
  const util::SimTime far = util::SimTime{1} << 40;     // ~18 minutes
  const util::SimTime farther = util::SimTime{1} << 50;  // ~13 days
  sched.schedule_at(farther, [&] { order.push_back(3); });
  sched.schedule_at(far, [&] { order.push_back(2); });
  sched.schedule_at(1, [&] { order.push_back(1); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), farther);
  EXPECT_EQ(sched.processed(), 3u);
}

// --- reserved sequence numbers ---------------------------------------------

/// A seeded workload on a coarse time grid, so many events share a
/// timestamp. Roots are scheduled in two batches with a run_until between
/// them; every dispatched event logs itself and may spawn a child from its
/// own id, so the child's id and time depend only on dispatch order.
template <typename Sched>
class GridWorkload {
 public:
  static constexpr std::size_t kBatch = 200;

  explicit GridWorkload(bool lazy) : lazy_(lazy) {}

  std::vector<std::uint64_t> run() {
    add_batch(/*from=*/0);
    sched_.run_until(10 * kGrid);
    add_batch(/*from=*/sched_.now());
    sched_.run();
    return log_;
  }

 private:
  static constexpr util::SimTime kGrid = 1'000;

  struct Batch {
    std::uint64_t base_seq = 0;
    std::uint64_t first_id = 0;
    std::vector<util::SimTime> at;
    std::vector<std::size_t> order;  // (time, index) order
    std::size_t pos = 0;
  };

  void add_batch(util::SimTime from) {
    Batch batch;
    batch.first_id = next_id_;
    next_id_ += kBatch;
    for (std::size_t k = 0; k < kBatch; ++k)
      batch.at.push_back(from + kGrid * static_cast<util::SimTime>(rng_.uniform_u64(20)));
    if (!lazy_) {
      for (std::size_t k = 0; k < kBatch; ++k) {
        const std::uint64_t id = batch.first_id + k;
        sched_.schedule_at(batch.at[k], [this, id] { on_dispatch(id); });
      }
      return;
    }
    batch.base_seq = sched_.reserve_sequence(kBatch);
    batch.order.resize(kBatch);
    std::iota(batch.order.begin(), batch.order.end(), std::size_t{0});
    std::ranges::stable_sort(batch.order, {}, [&](std::size_t k) { return batch.at[k]; });
    batches_.push_back(std::move(batch));
    feed_next(batches_.size() - 1);
  }

  void feed_next(std::size_t b) {
    Batch& batch = batches_[b];
    if (batch.pos == kBatch) return;
    const std::size_t k = batch.order[batch.pos++];
    sched_.schedule_reserved(batch.at[k], batch.base_seq + k, [this, b, k] {
      on_dispatch(batches_[b].first_id + k);
      feed_next(b);
    });
  }

  void on_dispatch(std::uint64_t id) {
    log_.push_back(id);
    util::SplitMix64 mix(id * 0x9E3779B97F4A7C15ULL);
    if (mix.next() % 3 == 0) {
      const std::uint64_t child = next_id_++;
      const auto delay = kGrid * static_cast<util::SimDuration>(mix.next() % 4);
      sched_.schedule_in(delay, [this, child] { on_dispatch(child); });
    }
  }

  Sched sched_;
  bool lazy_;
  util::Rng rng_{2013};
  std::uint64_t next_id_ = 0;
  std::vector<Batch> batches_;
  std::vector<std::uint64_t> log_;
};

TYPED_TEST(SchedulerContract, ReservedSchedulesDispatchLikeEagerOnes) {
  const std::vector<std::uint64_t> eager = GridWorkload<TypeParam>(/*lazy=*/false).run();
  const std::vector<std::uint64_t> lazy = GridWorkload<TypeParam>(/*lazy=*/true).run();
  EXPECT_GT(eager.size(), 2 * GridWorkload<TypeParam>::kBatch);  // some children ran
  EXPECT_EQ(lazy, eager);
}

TYPED_TEST(SchedulerContract, ReserveSequenceHandsOutConsecutiveNumbers) {
  TypeParam sched;
  EXPECT_EQ(sched.reserve_sequence(3), 0u);
  sched.schedule_at(1, [] {});  // takes seq 3
  EXPECT_EQ(sched.reserve_sequence(2), 4u);
  EXPECT_EQ(sched.reserve_sequence(0), 6u);
  EXPECT_EQ(sched.reserve_sequence(1), 6u);
}

TYPED_TEST(SchedulerContract, ScheduleReservedRejectsUnreservedAndBehindNumbers) {
  TypeParam sched;
  EXPECT_THROW(sched.schedule_reserved(10, 0, [] {}), std::logic_error);  // nothing reserved
  const std::uint64_t base = sched.reserve_sequence(3);                   // 0, 1, 2
  EXPECT_THROW(sched.schedule_reserved(10, base + 3, [] {}), std::logic_error);
  EXPECT_THROW(sched.schedule_reserved(10, base, std::function<void()>{}),
               std::invalid_argument);

  std::vector<int> order;
  sched.schedule_at(50, [&] { order.push_back(3); });  // seq 3
  ASSERT_TRUE(sched.run_one());
  EXPECT_THROW(sched.schedule_reserved(49, base + 2, [] {}), std::logic_error);  // the past
  // Now, but at or below the last dispatched seq: it would dispatch before it.
  EXPECT_THROW(sched.schedule_reserved(50, base + 2, [] {}), std::logic_error);
  const std::uint64_t later = sched.reserve_sequence(1);  // 4
  EXPECT_EQ(sched.pending(), 0u);

  sched.schedule_reserved(50, later, [&] { order.push_back(4); });
  sched.schedule_reserved(51, base + 1, [&] { order.push_back(1); });
  sched.schedule_reserved(51, base, [&] { order.push_back(0); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{3, 4, 0, 1}));
  EXPECT_EQ(sched.processed(), 4u);
}

// Before anything has dispatched there is no last event: a reserved number
// may go at the current time, whatever it is.
TYPED_TEST(SchedulerContract, ScheduleReservedAtTimeZeroBeforeAnyDispatch) {
  TypeParam sched;
  const std::uint64_t base = sched.reserve_sequence(2);
  std::vector<int> order;
  sched.schedule_at(0, [&] { order.push_back(2); });
  sched.schedule_reserved(0, base + 1, [&] { order.push_back(1); });
  sched.schedule_reserved(0, base, [&] { order.push_back(0); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// A scheduler destroyed with events still pending runs none of them and
// destroys each captured object exactly once: every copy of `token` is
// released, so its use count returns to 1 (a double destroy would drop it
// below that, a leak would hold it above). One capture is too large for
// the inline buffer, so the heap fallback is released too.
TYPED_TEST(SchedulerContract, DestroyingWithPendingEventsRunsNoneAndReleasesEachCapture) {
  const auto token = std::make_shared<int>(0);
  int ran = 0;
  {
    TypeParam sched;
    const std::uint64_t base = sched.reserve_sequence(2);
    sched.schedule_at(10, [token, &ran] { ++ran; });
    sched.schedule_in(util::SimTime{1} << 40, [token, &ran] { ++ran; });
    sched.schedule_reserved(20, base + 1, [token, &ran] { ++ran; });
    sched.schedule_reserved(5, base, [token, &ran] { ++ran; });
    struct Big {
      std::byte pad[200];
    };
    sched.schedule_at(10, [token, &ran, big = Big{}] {
      (void)big;
      ++ran;
    });
    EXPECT_EQ(sched.pending(), 5u);
    EXPECT_EQ(token.use_count(), 6);
  }
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace ndnp::sim
