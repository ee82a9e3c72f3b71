// Slab free-list allocator and recycling object pool.
//
// Two allocation substrates for the event core (docs/PERFORMANCE.md):
//
//  - `Slab<T>`: a chunked arena of fixed-size nodes with an intrusive free
//    list. Nodes have stable addresses, destroy() recycles into the free
//    list without returning memory to the OS, so steady-state
//    create/destroy cycles perform zero heap allocations once the peak
//    working set has been carved. sim::Scheduler's event callables live
//    here.
//
//  - `ObjectPool<T>` + `PoolRef<T>`: a recycling pool of *constructed*
//    objects with intrusive reference-counted handles. Releasing a handle
//    returns the object to the free list WITHOUT destroying it, so its
//    internal buffers (a Data's signature string) keep their capacity and
//    the next acquire/assign cycle reuses them. With names stored inline,
//    this is what makes pooled Interest/Data copies on the link/forwarder
//    hot paths allocation-free.
//    PoolRef keeps the pool alive via shared_ptr, so handles captured in
//    scheduled events stay valid under any node/scheduler destruction
//    order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace ndnp::util {

template <typename T>
class Slab {
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "Slab supports only fundamental alignment");

 public:
  explicit Slab(std::size_t nodes_per_chunk = 256) : nodes_per_chunk_(nodes_per_chunk) {}

  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;

  /// All live objects must have been destroy()ed; chunks are freed wholesale.
  ~Slab() = default;

  template <typename... Args>
  T* create(Args&&... args) {
    void* memory = acquire();
    T* object = ::new (memory) T(std::forward<Args>(args)...);
    ++live_;
    if (live_ > peak_live_) peak_live_ = live_;
    return object;
  }

  void destroy(T* object) noexcept {
    object->~T();
    auto* node = reinterpret_cast<FreeNode*>(object);
    node->next = free_;
    free_ = node;
    --live_;
  }

  [[nodiscard]] std::size_t live() const noexcept { return live_; }
  [[nodiscard]] std::size_t peak_live() const noexcept { return peak_live_; }
  [[nodiscard]] std::size_t chunks() const noexcept { return chunks_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return chunks_.size() * nodes_per_chunk_;
  }

 private:
  struct FreeNode {
    FreeNode* next;
  };
  static constexpr std::size_t kNodeBytes =
      sizeof(T) > sizeof(FreeNode) ? sizeof(T) : sizeof(FreeNode);
  // Round the stride up so every node in a chunk stays max-aligned.
  static constexpr std::size_t kStride =
      (kNodeBytes + alignof(std::max_align_t) - 1) & ~(alignof(std::max_align_t) - 1);

  void* acquire() {
    if (free_ != nullptr) {
      FreeNode* node = free_;
      free_ = node->next;
      return node;
    }
    if (next_in_chunk_ == nodes_per_chunk_ || chunks_.empty()) {
      chunks_.push_back(std::make_unique<std::byte[]>(kStride * nodes_per_chunk_));
      next_in_chunk_ = 0;
    }
    return chunks_.back().get() + kStride * next_in_chunk_++;
  }

  std::size_t nodes_per_chunk_;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  FreeNode* free_ = nullptr;
  std::size_t next_in_chunk_ = 0;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
};

template <typename T>
class ObjectPool;

/// Reference-counted handle to a pooled object. Copies share the object;
/// when the last handle drops, the object returns to the pool's free list
/// *un-destroyed* (buffers keep their capacity for the next user). The
/// handle pins the pool itself via shared_ptr, so it survives the pool's
/// nominal owner (e.g. a Node destroyed while its packets are still in
/// flight inside the scheduler).
template <typename T>
class PoolRef {
 public:
  PoolRef() noexcept = default;

  PoolRef(const PoolRef& other) noexcept : pool_(other.pool_), node_(other.node_) {
    if (node_ != nullptr) ++node_->refs;
  }

  PoolRef(PoolRef&& other) noexcept : pool_(std::move(other.pool_)), node_(other.node_) {
    other.node_ = nullptr;
  }

  PoolRef& operator=(const PoolRef& other) noexcept {
    if (this != &other) {
      release();
      pool_ = other.pool_;
      node_ = other.node_;
      if (node_ != nullptr) ++node_->refs;
    }
    return *this;
  }

  PoolRef& operator=(PoolRef&& other) noexcept {
    if (this != &other) {
      release();
      pool_ = std::move(other.pool_);
      node_ = other.node_;
      other.node_ = nullptr;
    }
    return *this;
  }

  ~PoolRef() { release(); }

  [[nodiscard]] T& operator*() noexcept { return node_->value; }
  [[nodiscard]] const T& operator*() const noexcept { return node_->value; }
  [[nodiscard]] T* operator->() noexcept { return &node_->value; }
  [[nodiscard]] const T* operator->() const noexcept { return &node_->value; }
  [[nodiscard]] explicit operator bool() const noexcept { return node_ != nullptr; }

 private:
  friend class ObjectPool<T>;

  PoolRef(std::shared_ptr<ObjectPool<T>> pool, typename ObjectPool<T>::Node* node) noexcept
      : pool_(std::move(pool)), node_(node) {
    ++node_->refs;
  }

  void release() noexcept {
    if (node_ != nullptr && --node_->refs == 0) pool_->recycle(node_);
    node_ = nullptr;
    pool_.reset();
  }

  std::shared_ptr<ObjectPool<T>> pool_;
  typename ObjectPool<T>::Node* node_ = nullptr;
};

template <typename T>
class ObjectPool : public std::enable_shared_from_this<ObjectPool<T>> {
 public:
  /// Pools are always shared_ptr-managed (handles extend their lifetime).
  [[nodiscard]] static std::shared_ptr<ObjectPool> make() {
    return std::shared_ptr<ObjectPool>(new ObjectPool());
  }

  /// Returns a handle to a recycled (or newly default-constructed) object.
  /// The contents are whatever the previous user left — callers assign
  /// before reading, which is exactly what lets buffer capacity carry over.
  [[nodiscard]] PoolRef<T> acquire() {
    Node* node = free_;
    if (node != nullptr) {
      free_ = node->next_free;
      ++reused_;
    } else {
      nodes_.push_back(std::make_unique<Node>());
      node = nodes_.back().get();
    }
    return PoolRef<T>(this->shared_from_this(), node);
  }

  [[nodiscard]] std::size_t created() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::uint64_t reused() const noexcept { return reused_; }

 private:
  friend class PoolRef<T>;

  struct Node {
    T value{};
    std::uint32_t refs = 0;
    Node* next_free = nullptr;
  };

  ObjectPool() = default;

  void recycle(Node* node) noexcept {
    node->next_free = free_;
    free_ = node;
  }

  std::vector<std::unique_ptr<Node>> nodes_;
  Node* free_ = nullptr;
  std::uint64_t reused_ = 0;
};

}  // namespace ndnp::util
