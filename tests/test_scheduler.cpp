// Scheduler contract tests, typed over BOTH implementations: the
// timer-wheel default and the binary-heap reference. Every test runs twice
// — the dispatch contract ((time, seq) FIFO order, run_until clock
// semantics, past-time rejection) is shared, and
// tests/test_scheduler_differential.cpp additionally proves the two
// equivalent over seeded random soak streams.
#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "oracle/heap_scheduler.hpp"

namespace ndnp::sim {
namespace {

template <typename Sched>
class SchedulerContract : public ::testing::Test {};

using Implementations = ::testing::Types<WheelScheduler, HeapScheduler>;

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

// Sparse far-future schedules force the wheel through multi-level
// placement and cascades (a no-op wrapper path for the reference heap,
// which makes the typed expectations a cross-check in themselves).
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

}  // namespace
}  // namespace ndnp::sim
