// Workspace arena: the step-persistent scratch allocator of the kernel
// layer (the "zero-redundancy training hot path" memory plan).
//
// The training kernels need short-lived buffers every call — im2col
// matrices, GEMM packing panels, gradient staging — whose sizes repeat
// exactly from one training step to the next. Allocating them as fresh
// std::vectors put a malloc/free pair (and a page-faulting cold buffer)
// inside every kernel invocation. The Arena replaces that with bump
// allocation out of blocks that persist across steps: it grows while the
// first steps discover the high-water mark, then serves every later step
// without touching the heap (Debug builds assert this through the
// allocation hook in alloc_hook.cc; see docs/ARCHITECTURE.md "Memory &
// workspace layer").
//
// Lifetime discipline is a stack: a kernel takes a Marker on entry and
// rewinds it on exit (ArenaScope), so scratch never outlives the call that
// asked for it. State that must survive from forward to backward — the
// ConvCache im2col lowering, per-layer gradient scratch — is NOT arena
// memory; it lives in step-persistent Tensors (Tensor::ensure_shape).
//
// Arenas are per-thread (workspace()), matching the engine's threading
// model: each SweepRunner worker trains its own model, and kernel-pool
// workers never allocate scratch (they only execute into buffers the
// dispatching thread prepared).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace mbs::util {

class Arena {
 public:
  /// Default alignment: one cache line, enough for any vectorized kernel.
  static constexpr std::size_t kAlign = 64;

  /// Bump-allocates `bytes` (aligned). Grows by appending a block — never
  /// by moving one, so previously returned pointers stay valid until the
  /// marker they were allocated under is rewound.
  void* allocate(std::size_t bytes);

  /// `n` floats of uninitialized scratch (callers overwrite or memset).
  float* floats(std::int64_t n) {
    return static_cast<float*>(
        allocate(static_cast<std::size_t>(n) * sizeof(float)));
  }

  /// A rewind point: everything allocated after mark() is reclaimed by
  /// rewind(). Stack discipline only — rewind markers in LIFO order.
  struct Marker {
    std::size_t block = 0;
    std::size_t used = 0;
  };

  Marker mark() const;
  void rewind(const Marker& m);

  /// Reclaims everything but keeps the blocks: the next step re-bumps
  /// through memory that is already allocated and warm.
  void reset() { rewind(Marker{}); }

  /// Total bytes owned (persists across rewind/reset).
  std::size_t capacity() const;
  /// Bytes currently allocated (between mark and rewind).
  std::size_t used() const;
  /// Largest `used()` ever observed — the steady-state footprint.
  std::size_t high_water() const { return high_water_; }
  /// Heap acquisitions so far. Steady-state steps must not move this —
  /// the witness the zero-allocation tests check alongside the Debug
  /// operator-new hook.
  std::int64_t block_allocs() const { return block_allocs_; }

 private:
  struct Block {
    std::unique_ptr<unsigned char[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  /// Doubling growth from a non-trivial floor: a handful of warm-up blocks
  /// at most, regardless of how the first step's request sizes arrive.
  static constexpr std::size_t kMinBlock = std::size_t{1} << 20;  // 1 MiB

  std::vector<Block> blocks_;
  std::size_t active_ = 0;  ///< index of the block currently bumping
  std::size_t high_water_ = 0;
  std::int64_t block_allocs_ = 0;
};

/// The calling thread's workspace arena (created on first use, lives for
/// the thread). All kernel scratch in src/train/ comes from here.
Arena& workspace();

/// RAII mark/rewind over an arena (the workspace by default): scratch
/// allocated through the scope dies with it.
class ArenaScope {
 public:
  ArenaScope() : ArenaScope(workspace()) {}
  explicit ArenaScope(Arena& arena) : arena_(&arena), marker_(arena.mark()) {}
  ~ArenaScope() { arena_->rewind(marker_); }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  float* floats(std::int64_t n) { return arena_->floats(n); }
  int* ints(std::int64_t n) {
    return static_cast<int*>(
        arena_->allocate(static_cast<std::size_t>(n) * sizeof(int)));
  }

 private:
  Arena* arena_;
  Arena::Marker marker_;
};

}  // namespace mbs::util
