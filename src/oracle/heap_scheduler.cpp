#include "oracle/heap_scheduler.hpp"

#include "util/invariant.hpp"
#include "util/tracing.hpp"

namespace ndnp::sim {

bool HeapScheduler::run_one() {
  if (queue_.empty()) return false;
  // priority_queue::top() is const; move out via const_cast, standard
  // practice given pop() immediately discards the slot.
  Item item = std::move(const_cast<Item&>(queue_.top()));
  queue_.pop();
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
  {
    NDNP_TRACE_SCOPE("scheduler", "scheduler", "dispatch");
    item.fn();
  }
  return true;
}

void HeapScheduler::run() {
  while (run_one()) {
  }
}

void HeapScheduler::run_until(util::SimTime until) {
  while (!queue_.empty() && queue_.top().when <= until) (void)run_one();
  if (now_ < until) now_ = until;
}

}  // namespace ndnp::sim
