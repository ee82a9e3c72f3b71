// Move-only type-erased callable with inline small-buffer storage.
//
// `SmallFunction<Capacity>` is the event-callable type of the simulation
// core: unlike std::function it (a) never heap-allocates when the callable
// fits `Capacity` bytes and is nothrow-move-constructible, and (b) accepts
// move-only callables (the packet pool's PoolRef handles are move-only by
// design). Callables that do not fit fall back to a single heap node —
// the scheduler exposes a counter so tests and benches can assert the hot
// paths stay on the inline path.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ndnp::util {

template <std::size_t Capacity>
class SmallFunction {
 public:
  SmallFunction() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, SmallFunction>)
  SmallFunction(F&& f) {  // NOLINT(google-explicit-constructor): function-like
    emplace(std::forward<F>(f));
  }

  SmallFunction(SmallFunction&& other) noexcept { move_from(other); }

  SmallFunction& operator=(SmallFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  SmallFunction(const SmallFunction&) = delete;
  SmallFunction& operator=(const SmallFunction&) = delete;

  ~SmallFunction() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// True when the stored callable lives on the heap (did not fit inline).
  [[nodiscard]] bool heap_allocated() const noexcept { return ops_ != nullptr && ops_->heap; }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  /// True when a callable of type D is stored inline, never on the heap.
  template <typename D>
  static constexpr bool fits_inline =
      sizeof(D) <= Capacity && alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*move_to)(void* from, void* to);  // move-construct at `to`, destroy `from`
    void (*destroy)(void*);
    bool heap;
  };

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* p) { (*static_cast<D*>(p))(); },
      [](void* from, void* to) {
        ::new (to) D(std::move(*static_cast<D*>(from)));
        static_cast<D*>(from)->~D();
      },
      [](void* p) { static_cast<D*>(p)->~D(); },
      false,
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* p) { (**static_cast<D**>(p))(); },
      [](void* from, void* to) {
        *static_cast<D**>(to) = *static_cast<D**>(from);
        *static_cast<D**>(from) = nullptr;
      },
      [](void* p) { delete *static_cast<D**>(p); },
      true,
  };

  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      *reinterpret_cast<D**>(static_cast<void*>(storage_)) = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  void move_from(SmallFunction& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->move_to(other.storage_, storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) std::byte storage_[Capacity];
};

}  // namespace ndnp::util
