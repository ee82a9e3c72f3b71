// Open-addressing hash table keyed by caller-supplied 64-bit hashes.
//
// The CS and PIT hot paths key their tables on ndn::Name::hash64(), a
// deterministic FNV-1a digest that callers compute once and cache — this
// container never hashes values itself. It stores slots in a flat
// power-of-two array with linear probing and tombstone deletion, so
//
//  - find/insert/erase are O(1) expected with a single contiguous probe
//    run (no per-node allocation, no pointer chasing, no ordered
//    string-vector comparisons);
//  - erase never relocates other slots (tombstones), so pointers returned
//    by find() survive unrelated erases; only insert() may rehash and
//    invalidate pointers into the table;
//  - iteration order (for_each) is slot order, a pure function of the
//    inserted hashes and the op sequence — deterministic across runs and
//    platforms, never dependent on pointer values (this is why the
//    determinism guard bans std::unordered_* but this table is fine).
//
// Two different keys may share a 64-bit hash; every lookup therefore takes
// an equality predicate over the stored value, and insert() probes past
// hash-equal-but-key-unequal slots. Callers that deliberately want
// hash-level buckets (the CS prefix index) pass an always-true predicate.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstddef>
#include <utility>
#include <vector>

namespace ndnp::util {

/// T must be default-constructible and movable. One table instance is not
/// thread-safe; confine it to one run/thread like the rest of the sim.
template <typename T>
class OpenHashTable {
 public:
  OpenHashTable() = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Find the value stored under (hash, eq). Returns nullptr if absent.
  /// `eq(const T&)` is only evaluated on slots whose stored hash matches.
  template <typename Eq>
  [[nodiscard]] T* find(std::uint64_t hash, Eq&& eq) noexcept {
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = index_of(hash);; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.state == State::kEmpty) return nullptr;
      if (slot.state == State::kFull && slot.hash == hash && eq(slot.value))
        return &slot.value;
    }
  }

  template <typename Eq>
  [[nodiscard]] const T* find(std::uint64_t hash, Eq&& eq) const noexcept {
    return const_cast<OpenHashTable*>(this)->find(hash, std::forward<Eq>(eq));
  }

  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  /// Where (hash, eq) lives, or where an insert of it would go.
  struct Probe {
    /// The stored value, or nullptr when absent.
    T* found = nullptr;
    /// When absent: the slot an insert takes (the first tombstone on the
    /// probe path, else the empty slot that ends it); kNoSlot while the
    /// table has no slots yet.
    std::size_t slot = kNoSlot;
  };

  /// One probe run for (hash, eq): the value if present, else its insert
  /// position for emplace_at(). Never modifies the table.
  template <typename Eq>
  [[nodiscard]] Probe probe(std::uint64_t hash, Eq&& eq) noexcept {
    if (slots_.empty()) return {};
    const std::size_t mask = slots_.size() - 1;
    std::size_t insert_at = kNoSlot;
    for (std::size_t i = index_of(hash);; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.state == State::kEmpty) return {.slot = insert_at == kNoSlot ? i : insert_at};
      if (slot.state == State::kTombstone) {
        if (insert_at == kNoSlot) insert_at = i;
      } else if (slot.hash == hash && eq(slot.value)) {
        return {.found = &slot.value};
      }
    }
  }

  /// Insert `value` under `hash` if no existing slot matches (hash, eq);
  /// returns {slot, true} on insertion, {existing slot, false} otherwise.
  /// May rehash (growth or tombstone purge), so assume every pointer into
  /// the table obtained earlier is invalidated.
  template <typename Eq>
  std::pair<T*, bool> emplace(std::uint64_t hash, T value, Eq&& eq) {
    reserve_one();
    const Probe found = probe(hash, std::forward<Eq>(eq));
    if (found.found) return {found.found, false};
    return {&place(found.slot, hash, std::move(value)), true};
  }

  /// Insert `value` under `hash` at the slot a probe() for the absent key
  /// returned, without probing again. The slot stays valid while the table
  /// sees only erase()/extract() calls in between: they never move a slot.
  /// When the insert needs growth or a tombstone purge, the table rehashes
  /// and finds the new slot itself (the invalidation rule of emplace()).
  T& emplace_at(std::size_t slot, std::uint64_t hash, T value) {
    if (!has_room_for_one()) {
      reserve_one();
      slot = probe(hash, [](const T&) { return false; }).slot;
    }
    assert(slot < slots_.size() && slots_[slot].state != State::kFull);
    return place(slot, hash, std::move(value));
  }

  /// Erase the value under (hash, eq). Tombstone deletion: no other slot
  /// moves, so outstanding pointers to *other* values stay valid. Returns
  /// false if absent.
  template <typename Eq>
  bool erase(std::uint64_t hash, Eq&& eq) noexcept {
    if (slots_.empty()) return false;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = index_of(hash);; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.state == State::kEmpty) return false;
      if (slot.state == State::kFull && slot.hash == hash && eq(slot.value)) {
        slot.state = State::kTombstone;
        slot.value = T{};  // release resources eagerly
        --size_;
        ++tombstones_;
        return true;
      }
    }
  }

  /// Erase like erase(), but move the stored value out to the caller
  /// instead of destroying it (e.g. to recycle node allocations). Returns
  /// a default-constructed T if absent; check with `found`.
  template <typename Eq>
  T extract(std::uint64_t hash, Eq&& eq, bool* found = nullptr) noexcept {
    if (found) *found = false;
    if (slots_.empty()) return T{};
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = index_of(hash);; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.state == State::kEmpty) return T{};
      if (slot.state == State::kFull && slot.hash == hash && eq(slot.value)) {
        slot.state = State::kTombstone;
        T out = std::move(slot.value);
        slot.value = T{};
        --size_;
        ++tombstones_;
        if (found) *found = true;
        return out;
      }
    }
  }

  void clear() noexcept {
    slots_.clear();
    size_ = 0;
    tombstones_ = 0;
  }

  /// Visit every stored value in slot order (deterministic; see header).
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (Slot& slot : slots_)
      if (slot.state == State::kFull) fn(slot.value);
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_)
      if (slot.state == State::kFull) fn(slot.value);
  }

 private:
  enum class State : std::uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };

  struct Slot {
    std::uint64_t hash = 0;
    T value{};
    State state = State::kEmpty;
  };

  /// Finalizer-style mix so that hashes whose entropy sits in high bits
  /// still spread over the low index bits (FNV's low bits are decent, but
  /// masking alone would make probe clustering depend on the hash scheme).
  [[nodiscard]] std::size_t index_of(std::uint64_t hash) const noexcept {
    hash ^= hash >> 33;
    hash *= 0xff51afd7ed558ccdULL;
    hash ^= hash >> 33;
    return static_cast<std::size_t>(hash) & (slots_.size() - 1);
  }

  /// Keep (full + tombstones) under 7/8 of capacity, so every probe run
  /// ends at an empty slot.
  [[nodiscard]] bool has_room_for_one() const noexcept {
    return !slots_.empty() && (size_ + tombstones_ + 1) * 8 <= slots_.size() * 7;
  }

  /// Make room for one more value: grow ×2 when live entries cross 1/2,
  /// otherwise rehash in place to purge tombstones.
  void reserve_one() {
    if (has_room_for_one()) return;
    if (slots_.empty()) {
      slots_.resize(kInitialCapacity);
      return;
    }
    const std::size_t new_capacity =
        (size_ + 1) * 2 > slots_.size() ? slots_.size() * 2 : slots_.size();
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>();
    slots_.resize(new_capacity);
    tombstones_ = 0;
    const std::size_t mask = slots_.size() - 1;
    for (Slot& slot : old) {
      if (slot.state != State::kFull) continue;
      std::size_t i = index_of(slot.hash);
      while (slots_[i].state == State::kFull) i = (i + 1) & mask;
      slots_[i].state = State::kFull;
      slots_[i].hash = slot.hash;
      slots_[i].value = std::move(slot.value);
    }
  }

  /// Fill the empty or tombstone slot `index`.
  T& place(std::size_t index, std::uint64_t hash, T value) {
    Slot& target = slots_[index];
    if (target.state == State::kTombstone) --tombstones_;
    target.state = State::kFull;
    target.hash = hash;
    target.value = std::move(value);
    ++size_;
    return target.value;
  }

  static constexpr std::size_t kInitialCapacity = 16;

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t tombstones_ = 0;
};

}  // namespace ndnp::util
