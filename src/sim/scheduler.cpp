#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>

#include "util/invariant.hpp"
#include "util/tracing.hpp"

namespace ndnp::sim {

// ---------------------------------------------------------------------------
// WheelScheduler
//
// Invariant the wheel maintains: `cursor_tick_` is the highest tick whose
// level-0 slot has been drained, and no node anywhere in the wheel has a
// tick <= cursor_tick_. Events due at or before the cursor therefore go
// straight into the ready heap, whose (when, seq) ordering is the single
// source of dispatch order — slot lists are unsorted buckets.

WheelScheduler::~WheelScheduler() {
  for (const ReadyItem& item : ready_) slab_.destroy(item.node);
  ready_.clear();
  for (auto& level : slots_) {
    for (EventNode*& head : level) {
      for (EventNode* node = head; node != nullptr;) {
        EventNode* next = node->next;
        slab_.destroy(node);
        node = next;
      }
      head = nullptr;
    }
  }
}

void WheelScheduler::enqueue(util::SimTime when, std::uint64_t seq, EventFn fn) {
  if (fn.heap_allocated()) ++heap_fallback_events_;
  EventNode* node = slab_.create(when, seq, std::move(fn));
  ++live_;
  place(node);
}

void WheelScheduler::place(EventNode* node) {
  const std::uint64_t tick = tick_of(node->when);
  if (tick <= cursor_tick_) {
    ready_push(node);
    return;
  }
  const std::uint64_t delta = tick - cursor_tick_;
  int level = 0;
  while (level < kLevels - 1 &&
         delta >= (std::uint64_t{1} << (kLevelBits * (level + 1)))) {
    ++level;
  }
  const std::size_t idx =
      static_cast<std::size_t>(tick >> (kLevelBits * level)) & kSlotMask;
  node->next = slots_[level][idx];
  slots_[level][idx] = node;
  bitmap_[level][idx >> 6] |= std::uint64_t{1} << (idx & 63);
}

void WheelScheduler::ready_push(EventNode* node) {
  ready_.push_back(ReadyItem{node->when, node->seq, node});
  std::push_heap(ready_.begin(), ready_.end(), DispatchesAfter{});
}

bool WheelScheduler::ensure_ready() {
  while (ready_.empty()) {
    if (live_ == 0) return false;
    advance();
  }
  return true;
}

int WheelScheduler::next_occupied(int level, std::size_t from) const noexcept {
  if (from >= kSlots) return -1;
  std::size_t word = from >> 6;
  std::uint64_t bits = bitmap_[level][word] & (~std::uint64_t{0} << (from & 63));
  for (;;) {
    if (bits != 0) return static_cast<int>(word * 64 + std::countr_zero(bits));
    if (++word == kBitmapWords) return -1;
    bits = bitmap_[level][word];
  }
}

void WheelScheduler::advance() {
  // Precondition: ready_ is empty and at least one node sits in the wheel.
  // Jump the cursor straight to the earliest due slot across all levels —
  // no per-tick stepping, so sparse far-future events cost one bitmap scan
  // per level per cascade instead of millions of empty ticks.
  for (;;) {
    std::uint64_t best_due = ~std::uint64_t{0};
    int best_level = -1;
    std::size_t best_idx = 0;
    for (int level = 0; level < kLevels; ++level) {
      const int shift = kLevelBits * level;
      const std::size_t here =
          static_cast<std::size_t>(cursor_tick_ >> shift) & kSlotMask;
      const std::uint64_t revolution = std::uint64_t{1} << (shift + kLevelBits);
      const std::uint64_t base = cursor_tick_ & ~(revolution - 1);
      // Slot `here` itself must be scanned when the cursor sits exactly on
      // this level's slot boundary: a cascade tie can land the cursor on a
      // range base while lower levels still hold slots due at that very
      // tick (idx == here), and skipping them would defer their events a
      // full revolution. The alignment condition is what makes inclusion
      // safe — an aligned cursor provably cannot coexist with
      // next-revolution occupants of slot `here` (their placement would
      // have required a delta beyond this level's capacity).
      const bool aligned = (cursor_tick_ & ((std::uint64_t{1} << shift) - 1)) == 0;
      std::uint64_t due = 0;
      int idx = next_occupied(level, aligned ? here : here + 1);
      if (idx >= 0) {
        due = base + (static_cast<std::uint64_t>(idx) << shift);
      } else {
        idx = next_occupied(level, 0);
        if (idx < 0) continue;
        due = base + revolution + (static_cast<std::uint64_t>(idx) << shift);
      }
      // Ties go to the HIGHEST level: a higher-level slot due at tick T
      // must cascade before level 0's slot at T is dumped, or its
      // same-tick events would dispatch late (a full revolution later).
      if (due <= best_due) {
        best_due = due;
        best_level = level;
        best_idx = static_cast<std::size_t>(idx);
      }
    }
    if (best_level < 0) {
      // Cascades re-placed everything straight into the ready heap (their
      // ticks equalled the advanced cursor) and the wheel is empty.
      NDNP_INVARIANT_CHECK("scheduler", !ready_.empty(),
                           "advance() found no occupied slot with %zu live events", live_);
      return;
    }
    if (!ready_.empty() && best_due > cursor_tick_) {
      // Every slot due at the cursor tick has been flushed; anything left
      // in the wheel is due strictly later, so ready-heap dispatch order
      // is complete for this tick.
      return;
    }
    cursor_tick_ = best_due;
    if (best_level == 0) {
      // Tie-breaking guarantees no other level shares this due tick by
      // now, so the dump completes the advance.
      dump_slot(best_idx);
      return;
    }
    cascade(best_level, best_idx);
  }
}

void WheelScheduler::cascade(int level, std::size_t idx) {
  EventNode* node = slots_[level][idx];
  slots_[level][idx] = nullptr;
  bitmap_[level][idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
  ++cascades_;
  while (node != nullptr) {
    EventNode* next = node->next;
    node->next = nullptr;
    place(node);  // re-place relative to the advanced cursor
    node = next;
  }
}

void WheelScheduler::dump_slot(std::size_t idx) {
  EventNode* node = slots_[0][idx];
  slots_[0][idx] = nullptr;
  bitmap_[0][idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
  while (node != nullptr) {
    EventNode* next = node->next;
    NDNP_INVARIANT_CHECK("scheduler", tick_of(node->when) == cursor_tick_,
                         "level-0 slot %zu dumped an event for tick %llu at cursor %llu",
                         idx, static_cast<unsigned long long>(tick_of(node->when)),
                         static_cast<unsigned long long>(cursor_tick_));
    node->next = nullptr;
    ready_push(node);
    node = next;
  }
}

void WheelScheduler::dispatch_front() {
  std::pop_heap(ready_.begin(), ready_.end(), DispatchesAfter{});
  const ReadyItem item = ready_.back();
  ready_.pop_back();
  EventNode* node = item.node;
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
  --live_;
  // Move the callable out and recycle the node BEFORE invoking: the event
  // may schedule new work (reusing this very node) or throw, and either
  // way the slab stays consistent.
  EventFn fn = std::move(node->fn);
  slab_.destroy(node);
  {
    NDNP_TRACE_SCOPE("scheduler", "scheduler", "dispatch");
    fn();
  }
}

bool WheelScheduler::run_one() {
  if (!ensure_ready()) return false;
  dispatch_front();
  return true;
}

void WheelScheduler::run() {
  while (run_one()) {
  }
}

void WheelScheduler::run_until(util::SimTime until) {
  while (ensure_ready() && ready_.front().when <= until) dispatch_front();
  if (now_ < until) now_ = until;
}

}  // namespace ndnp::sim
