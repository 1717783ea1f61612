#include "packet/packet_pool.h"

#include <cstddef>
#include <new>
#include <utility>
#include <vector>

namespace livesec::pkt {

namespace {

/// Free blocks, all of one size: allocate_shared performs a single allocation
/// of its internal node type (control block + Packet), so every block this
/// pool ever sees has identical size.
struct PoolState {
  std::vector<void*> free_blocks;
  std::size_t block_size = 0;

  ~PoolState() {
    for (void* b : free_blocks) ::operator delete(b);
  }
};

/// Bounds pool memory (~4k blocks of ~0.3KB) under burst churn.
constexpr std::size_t kMaxPooledBlocks = 4096;

/// The process's pool. The raw guard pointer is nulled when the pool is
/// destroyed at static teardown, so late deallocations — a packet held by a
/// static — fall back to plain operator delete instead of touching a dead
/// pool.
PoolState* g_pool = nullptr;

struct PoolHolder {
  PoolState state;
  PoolHolder() { g_pool = &state; }
  ~PoolHolder() { g_pool = nullptr; }
};

/// The pool, constructed on first allocation.
PoolState* current_pool() {
  static PoolHolder holder;
  return g_pool;
}

template <typename T>
struct RecyclingAllocator {
  using value_type = T;

  RecyclingAllocator() = default;
  template <typename U>
  RecyclingAllocator(const RecyclingAllocator<U>&) {}  // NOLINT(google-explicit-constructor)

  T* allocate(std::size_t n) {
    if (n == 1) {
      PoolState* pool = current_pool();
      if (pool != nullptr && pool->block_size == sizeof(T) && !pool->free_blocks.empty()) {
        void* b = pool->free_blocks.back();
        pool->free_blocks.pop_back();
        return static_cast<T*>(b);
      }
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) {
    // No construction here: during static teardown the guard is already
    // null and the block takes the plain-delete path.
    PoolState* pool = g_pool;
    if (n == 1 && pool != nullptr &&
        (pool->block_size == 0 || pool->block_size == sizeof(T)) &&
        pool->free_blocks.size() < kMaxPooledBlocks) {
      pool->block_size = sizeof(T);
      pool->free_blocks.push_back(p);
      return;
    }
    ::operator delete(p);
  }

  template <typename U>
  bool operator==(const RecyclingAllocator<U>&) const {
    return true;  // stateless: any instance can free any instance's blocks
  }
  template <typename U>
  bool operator!=(const RecyclingAllocator<U>&) const {
    return false;
  }
};

}  // namespace

std::shared_ptr<Packet> pooled_packet(Packet&& p) {
  return std::allocate_shared<Packet>(RecyclingAllocator<Packet>(), std::move(p));
}

}  // namespace livesec::pkt
