// Discrete-event scheduler.
//
// `Scheduler` keeps every pending event's callable in a slab free-list
// (util::SmallFunction stored inline in the node) and orders them with a
// 4-ary min-heap of 24-byte (when, seq, node) items. Steady-state
// schedule/run cycles perform zero heap allocations once the peak working
// set has been carved (see docs/PERFORMANCE.md).
//
// The contract, which makes runs byte-identical across --jobs: events
// dispatch in strict (time, sequence) order — time never runs backwards,
// and equal-time events run in schedule (FIFO) order. A caller may take
// sequence numbers early (reserve_sequence) and place the events later
// (schedule_reserved); such an event dispatches where it would have had it
// been scheduled at reservation time. The reference implementation,
// oracle/heap_scheduler.hpp (a std::priority_queue of whole events), lives
// outside the shipped library; tests/test_scheduler_differential.cpp
// proves the two dispatch identically over seeded random workloads.
// Single-threaded by design: network simulations at this scale are
// dominated by event dispatch, and determinism is worth more to the
// experiments than parallelism.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/sim_time.hpp"
#include "util/slab.hpp"
#include "util/small_function.hpp"

namespace ndnp::sim {

/// Inline capture budget for scheduled events. Sized for the simulation's
/// common captures (a couple of pointers plus a pooled packet handle);
/// larger callables transparently fall back to one heap node each, counted
/// by `heap_fallback_events()`.
inline constexpr std::size_t kEventInlineBytes = 96;
using EventFn = util::SmallFunction<kEventInlineBytes>;

namespace detail {

/// Shared argument validation: rejects null std::function-likes (anything
/// contextually convertible to bool) while accepting plain lambdas.
template <typename F>
void throw_if_null_event(const F& event) {
  if constexpr (std::is_constructible_v<bool, const std::decay_t<F>&>) {
    if (!static_cast<bool>(event)) throw std::invalid_argument("Scheduler: null event");
  }
}

inline void throw_if_past(util::SimTime when, util::SimTime now) {
  if (when < now) throw std::logic_error("Scheduler: cannot schedule in the past");
}

inline void throw_if_negative(util::SimDuration delay) {
  if (delay < 0) throw std::logic_error("Scheduler: negative delay");
}

/// schedule_reserved's checks: `seq` must have come from reserve_sequence
/// (below `next_seq`), and (when, seq) must not dispatch before the last
/// dispatched event (`now`, `last_seq`; none yet when `processed` is 0).
inline void throw_if_unusable_reservation(util::SimTime when, std::uint64_t seq,
                                          util::SimTime now, std::uint64_t next_seq,
                                          std::uint64_t last_seq, std::uint64_t processed) {
  if (seq >= next_seq) throw std::logic_error("Scheduler: sequence number was never reserved");
  throw_if_past(when, now);
  if (when == now && processed != 0 && seq <= last_seq)
    throw std::logic_error("Scheduler: reserved event would dispatch before the last one");
}

}  // namespace detail

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler();

  /// Schedule at an absolute time; must not be in the past.
  template <typename F>
  void schedule_at(util::SimTime when, F&& event) {
    detail::throw_if_past(when, now_);
    detail::throw_if_null_event(event);
    enqueue(when, next_seq_++, EventFn(std::forward<F>(event)));
  }

  /// Schedule `delay` after the current time (delay >= 0).
  template <typename F>
  void schedule_in(util::SimDuration delay, F&& event) {
    detail::throw_if_negative(delay);
    schedule_at(now_ + delay, std::forward<F>(event));
  }

  /// Reserve `n` consecutive sequence numbers and return the first. An
  /// event later scheduled under one of them with schedule_reserved
  /// dispatches exactly where a schedule_at call made at reservation time
  /// would have: dispatch order is (time, seq), not insertion order.
  std::uint64_t reserve_sequence(std::uint64_t n) noexcept {
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }

  /// Schedule at `when` under a number from reserve_sequence. Throws
  /// std::logic_error if `seq` was never reserved, or if (when, seq) would
  /// dispatch before the last dispatched event (in the past, or at the
  /// current time with a seq at or below the last one). Each reserved
  /// number is used at most once; that is the caller's to keep.
  template <typename F>
  void schedule_reserved(util::SimTime when, std::uint64_t seq, F&& event) {
    detail::throw_if_unusable_reservation(when, seq, now_, next_seq_, last_seq_, processed_);
    detail::throw_if_null_event(event);
    enqueue(when, seq, EventFn(std::forward<F>(event)));
  }

  /// Current simulation time: the timestamp of the event being processed,
  /// or of the last processed event when idle.
  [[nodiscard]] util::SimTime now() const noexcept { return now_; }

  /// Run the earliest pending event; returns false if none are pending.
  bool run_one();

  /// Run until the queue drains.
  void run();

  /// Run events with timestamp <= `until` (the clock then advances to
  /// `until` even if the queue drained earlier; a deadline already in the
  /// past runs nothing and leaves the clock untouched).
  void run_until(util::SimTime until);

  [[nodiscard]] std::size_t pending() const noexcept { return ready_.size(); }
  [[nodiscard]] std::uint64_t processed() const noexcept { return processed_; }

  // --- introspection for tests / benches -----------------------------------
  /// Events whose callable did not fit the inline buffer (heap fallback).
  [[nodiscard]] std::uint64_t heap_fallback_events() const noexcept {
    return heap_fallback_events_;
  }
  /// Slab chunks backing the event nodes (stable after warm-up).
  [[nodiscard]] std::size_t slab_chunks() const noexcept { return slab_.chunks(); }
  [[nodiscard]] std::size_t slab_peak_live() const noexcept { return slab_.peak_live(); }

  static constexpr const char* kImplName = "sched";

 private:
  struct ReadyItem {
    util::SimTime when;
    std::uint64_t seq;
    EventFn* fn;
  };
  /// Heap order: true when `a` dispatches after `b`.
  static bool dispatches_after(const ReadyItem& a, const ReadyItem& b) noexcept {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
  /// Children per node of the ready heap.
  static constexpr std::size_t kArity = 4;

  void enqueue(util::SimTime when, std::uint64_t seq, EventFn fn);
  /// Removes and returns the earliest item; the heap must not be empty.
  ReadyItem pop_front();
  void dispatch_front();

  util::Slab<EventFn> slab_;
  std::vector<ReadyItem> ready_;

  util::SimTime now_ = util::kTimeZero;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  /// Sequence number of the most recently dispatched event; together with
  /// now_ this lets dispatch assert (time, seq) order.
  std::uint64_t last_seq_ = 0;
  std::uint64_t heap_fallback_events_ = 0;
};

}  // namespace ndnp::sim
