#include "sim/scheduler.hpp"

#include <algorithm>

#include "util/invariant.hpp"
#include "util/tracing.hpp"

namespace ndnp::sim {

// The ready heap's (when, seq) ordering is the single source of dispatch
// order; the slab only gives each callable a stable address, so a heap
// sift moves 24-byte items instead of the callables themselves. The heap
// is 4-ary: half the levels of a binary heap, and a node's children are
// adjacent, so a sift touches fewer cache lines once the heap outgrows
// the cache (docs/PERFORMANCE.md).

Scheduler::~Scheduler() {
  for (const ReadyItem& item : ready_) slab_.destroy(item.fn);
}

void Scheduler::enqueue(util::SimTime when, std::uint64_t seq, EventFn fn) {
  if (fn.heap_allocated()) ++heap_fallback_events_;
  const ReadyItem item{when, seq, slab_.create(std::move(fn))};
  // Sift up: move the hole from the new last slot to where `item` belongs.
  std::size_t hole = ready_.size();
  ready_.push_back(item);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!dispatches_after(ready_[parent], item)) break;
    ready_[hole] = ready_[parent];
    hole = parent;
  }
  ready_[hole] = item;
}

Scheduler::ReadyItem Scheduler::pop_front() {
  const ReadyItem front = ready_.front();
  const ReadyItem last = ready_.back();
  ready_.pop_back();
  if (ready_.empty()) return front;
  // Sift down: move the hole from the root to where `last` belongs.
  const std::size_t size = ready_.size();
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = hole * kArity + 1;
    if (first >= size) break;
    std::size_t best = first;
    for (std::size_t child = first + 1; child < std::min(first + kArity, size); ++child) {
      if (dispatches_after(ready_[best], ready_[child])) best = child;
    }
    if (!dispatches_after(last, ready_[best])) break;
    ready_[hole] = ready_[best];
    hole = best;
  }
  ready_[hole] = last;
  return front;
}

void Scheduler::dispatch_front() {
  const ReadyItem item = pop_front();
  // Dispatch order is the determinism backbone: time never runs backwards,
  // and equal-time events run in schedule (seq) order.
  NDNP_INVARIANT_CHECK("scheduler", item.when >= now_,
                       "event at t=%lld dispatched after clock reached %lld",
                       static_cast<long long>(item.when), static_cast<long long>(now_));
  NDNP_INVARIANT_CHECK("scheduler", item.when > now_ || item.seq > last_seq_ || processed_ == 0,
                       "equal-time events dispatched out of schedule order (seq %llu after "
                       "%llu at t=%lld)",
                       static_cast<unsigned long long>(item.seq),
                       static_cast<unsigned long long>(last_seq_),
                       static_cast<long long>(item.when));
  now_ = item.when;
  last_seq_ = item.seq;
  ++processed_;
  // Move the callable out and recycle the node BEFORE invoking: the event
  // may schedule new work (reusing this very node) or throw, and either
  // way the slab stays consistent.
  EventFn fn = std::move(*item.fn);
  slab_.destroy(item.fn);
  {
    NDNP_TRACE_SCOPE("scheduler", "scheduler", "dispatch");
    fn();
  }
}

bool Scheduler::run_one() {
  if (ready_.empty()) return false;
  dispatch_front();
  return true;
}

void Scheduler::run() {
  while (run_one()) {
  }
}

void Scheduler::run_until(util::SimTime until) {
  while (!ready_.empty() && ready_.front().when <= until) dispatch_front();
  if (now_ < until) now_ = until;
}

}  // namespace ndnp::sim
