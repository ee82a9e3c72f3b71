// HeapScheduler: the original binary-heap discrete-event scheduler, kept as
// the obviously-correct reference for sim::Scheduler. It honours the same
// contract (strict (time, sequence) dispatch order, FIFO among equal-time
// events, no scheduling in the past, reserved sequence numbers) with a
// std::priority_queue of whole events instead of slab-held callables.
// tests/test_scheduler_differential.cpp replays seeded random workloads
// through both and requires identical dispatch; bench_micro_ops times
// sim::Scheduler against it. The simulation never uses it,
// so it lives in the ndnp_oracle target, outside the shipped libraries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"

namespace ndnp::sim {

class HeapScheduler {
 public:
  template <typename F>
  void schedule_at(util::SimTime when, F&& event) {
    detail::throw_if_past(when, now_);
    detail::throw_if_null_event(event);
    queue_.push(Item{when, next_seq_++, EventFn(std::forward<F>(event))});
  }

  template <typename F>
  void schedule_in(util::SimDuration delay, F&& event) {
    detail::throw_if_negative(delay);
    schedule_at(now_ + delay, std::forward<F>(event));
  }

  std::uint64_t reserve_sequence(std::uint64_t n) noexcept {
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }

  template <typename F>
  void schedule_reserved(util::SimTime when, std::uint64_t seq, F&& event) {
    detail::throw_if_unusable_reservation(when, seq, now_, next_seq_, last_seq_, processed_);
    detail::throw_if_null_event(event);
    queue_.push(Item{when, seq, EventFn(std::forward<F>(event))});
  }

  [[nodiscard]] util::SimTime now() const noexcept { return now_; }
  bool run_one();
  void run();
  void run_until(util::SimTime until);
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }
  [[nodiscard]] std::uint64_t processed() const noexcept { return processed_; }

  static constexpr const char* kImplName = "heap";

 private:
  struct Item {
    util::SimTime when;
    std::uint64_t seq;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Item, std::vector<Item>, Later> queue_;
  util::SimTime now_ = util::kTimeZero;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t last_seq_ = 0;
};

}  // namespace ndnp::sim
