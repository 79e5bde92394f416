// Bump-pointer arena for per-chunk serving scratch (the edgesql-lite
// arena/query-allocator pattern): the batched estimation pipeline allocates
// all of its transient state — term values, grouped rows, packed input
// matrices — from one arena that is Reset() between chunks instead of freed,
// so the steady-state batch path performs zero heap allocations.
//
// Lifetime rules (see docs/inference_tuning.md):
//  - Allocate() pointers are valid until the next Reset(); nothing allocated
//    from an arena may outlive the chunk that allocated it. Results that
//    must survive (estimate doubles, cache entries) are copied out.
//  - Reset() retires every allocation at once but KEEPS the backing blocks,
//    so a warmed arena never touches the heap again; after a growth spike it
//    coalesces the block chain into one block on the next Reset, restoring
//    the single-block fast path.
//  - An Arena is single-threaded by design. The serving layer keeps one
//    thread_local arena per worker (see estimation_service.cc); sharing one
//    arena across threads is a data race.
//  - Allocation never constructs objects: AllocateArray<T> requires
//    trivially destructible T and returns uninitialized storage.
#ifndef RESEST_COMMON_ARENA_H_
#define RESEST_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace resest {

class Arena {
 public:
  /// `initial_bytes` sizes the first block, allocated lazily on first use.
  explicit Arena(size_t initial_bytes = 64 * 1024)
      : initial_bytes_(initial_bytes < kMinBlockBytes ? kMinBlockBytes
                                                      : initial_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Uninitialized storage for `n` objects of T, aligned for T. Returns a
  /// non-null pointer even for n == 0 (a valid empty array).
  template <typename T>
  T* AllocateArray(size_t n) {
    static_assert(std::is_trivially_destructible<T>::value,
                  "arena storage is reclaimed without running destructors");
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// Raw aligned allocation. `align` must be a power of two.
  void* Allocate(size_t bytes, size_t align);

  /// Retires every allocation, keeping (and, after growth, coalescing) the
  /// backing memory for reuse. O(1) unless the previous cycle grew the
  /// chain, in which case one replacement block is allocated.
  void Reset();

  /// Bytes handed out since the last Reset (diagnostics, tests).
  size_t bytes_used() const { return bytes_used_; }
  /// Total backing capacity currently held (diagnostics, tests).
  size_t bytes_reserved() const;
  /// Heap blocks acquired over the arena's lifetime (tests assert the
  /// steady state stops growing this).
  uint64_t blocks_allocated() const { return blocks_allocated_; }

 private:
  static constexpr size_t kMinBlockBytes = 4 * 1024;

  struct Block {
    std::unique_ptr<unsigned char[]> data;
    size_t size = 0;
  };

  /// Slow path: advances to (or allocates) a block that fits `bytes`.
  void* AllocateSlow(size_t bytes, size_t align);

  size_t initial_bytes_;
  std::vector<Block> blocks_;
  size_t block_index_ = 0;  ///< Block currently being bumped.
  size_t offset_ = 0;       ///< Bump offset within blocks_[block_index_].
  size_t bytes_used_ = 0;
  uint64_t blocks_allocated_ = 0;
};

}  // namespace resest

#endif  // RESEST_COMMON_ARENA_H_
