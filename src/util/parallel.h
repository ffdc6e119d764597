// Process-wide kernel thread pool with deterministic static partitioning.
//
// The training kernels (src/train/) and the sweep engine (src/engine/)
// share ONE thread budget: MBS_THREADS / --threads (0 = hardware
// concurrency). The pool is lazily started on first use and its workers
// persist for the process lifetime. A dispatch of R ranges hands the job
// to R - 1 workers (the caller runs ranges too), leaving any others idle.
// After each job a worker polls for its next one for about 50 us before it
// parks on a condition variable, and the caller polls for its helpers the
// same way, so back-to-back kernels of a training step pay about a
// microsecond per dispatch; only a pool idle for longer pays a futex wake.
//
// Determinism contract: parallel_for(n, grain, body) splits [0, n) into at
// most thread_budget() contiguous ranges and runs body(begin, end) once per
// range. Callers arrange that every output element is computed entirely
// inside one range with an unchanged per-element operation order, and that
// ranges never split a floating-point reduction — then the result is
// bit-identical at every thread count, including 1 (see
// docs/ARCHITECTURE.md "Kernel layer & threading model").
//
// Nesting rule: a parallel_for issued from inside a pool worker — or from
// any thread that entered a ParallelRegionGuard, as engine::SweepRunner
// workers do — runs inline on the calling thread. Sweeps of training
// scenarios therefore never oversubscribe the budget: either the sweep
// fans out and kernels run inline, or the sweep is serial and the kernels
// get the whole pool.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>

namespace mbs::util {

/// The process-wide thread budget shared by the kernel pool and
/// engine::SweepRunner: the last set_thread_budget() value if any, else
/// MBS_THREADS, else std::thread::hardware_concurrency(); always >= 1.
int thread_budget();

/// Overrides the budget (0 = hardware concurrency, negative = drop the
/// override and fall back to MBS_THREADS). engine::Driver calls this with
/// its --threads/MBS_THREADS value so both layers draw from one budget;
/// benchmarks and tests use it to pin serial vs pooled runs.
void set_thread_budget(int threads);

/// True while the calling thread is inside a pool worker or a
/// ParallelRegionGuard: any parallel_for it issues runs inline.
bool in_parallel_region();

/// Marks the current thread as already-parallel for its lifetime (RAII).
/// engine::SweepRunner workers hold one so nested kernels run inline.
class ParallelRegionGuard {
 public:
  ParallelRegionGuard();
  ~ParallelRegionGuard();
  ParallelRegionGuard(const ParallelRegionGuard&) = delete;
  ParallelRegionGuard& operator=(const ParallelRegionGuard&) = delete;

 private:
  bool was_inside_;
};

/// Non-owning reference to a `void(begin, end)` range body. parallel_for
/// blocks until the dispatch completes, so binding a temporary lambda is
/// safe — and unlike the std::function it replaced, nothing is copied or
/// heap-allocated per dispatch (large captures would otherwise put a
/// malloc inside every kernel, breaking the zero-allocation contract of
/// the conv/GEMM hot path).
class RangeBody {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, RangeBody> &&
                std::is_invocable_v<F&, std::int64_t, std::int64_t>>>
  RangeBody(F&& f)  // NOLINT(google-explicit-constructor): call-site adaptor
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, std::int64_t begin, std::int64_t end) {
          (*static_cast<std::remove_reference_t<F>*>(obj))(begin, end);
        }) {}

  void operator()(std::int64_t begin, std::int64_t end) const {
    call_(obj_, begin, end);
  }

 private:
  void* obj_;
  void (*call_)(void*, std::int64_t, std::int64_t);
};

/// Runs body(begin, end) over a deterministic static partition of [0, n)
/// into contiguous ranges (at most thread_budget() of them, each at least
/// `grain` long except possibly the last split). Runs inline as body(0, n)
/// when the budget is 1, when n <= grain, or when called from inside a
/// parallel region. Exceptions from workers are rethrown on the caller.
void parallel_for(std::int64_t n, std::int64_t grain, RangeBody body);

/// Elements one parallel_for range should touch to be worth a pool
/// dispatch: below this a kernel runs inline, above it splits. Sized for
/// the polling dispatch above, so the norm, pool and conv kernels of an
/// 8-sample MBS sub-batch split across two threads.
inline constexpr std::int64_t kWorkGrainElems = 8192;

/// The grain, in units, for a loop whose unit touches about
/// `per_unit_elems` elements: kWorkGrainElems / per_unit_elems, at least
/// 1. Every training kernel and elementwise loop sizes its parallel_for
/// this way, so work too small to repay a dispatch runs inline. The
/// partition never changes results (see above).
inline std::int64_t work_grain(std::int64_t per_unit_elems) {
  const std::int64_t g =
      kWorkGrainElems / (per_unit_elems < 1 ? 1 : per_unit_elems);
  return g < 1 ? 1 : g;
}

// ---------------------------------------------------------------------------
// Kernel-time accounting (MBS_ENGINE_STATS=1 breakdown via engine::Driver).
// ---------------------------------------------------------------------------

enum class KernelKind {
  kGemm = 0,   // matmul_bt_f32_into / matmul_at_into (outside a conv)
  kIm2col,     // im2col_into / dgrad_cols_into lowering (outside a conv)
  kConvFwd,    // conv2d_forward_into
  kConvBwd,    // conv2d_backward_into
  kPool,       // max / global-average pooling, forward and backward
  kNorm,       // batch/group normalization, forward and backward
  kLinear,     // linear_forward_into / linear_backward_into
  kRelu,       // relu_forward_into / relu_backward_inplace
  kSgd,        // Sgd::step
  kCount
};

struct KernelStat {
  std::int64_t calls = 0;
  double seconds = 0;
  /// Useful floating-point work performed under this kind's outermost
  /// timers (2*M*N*K per GEMM, noted by the GEMM entry points via
  /// note_kernel_flops) — seconds+flops give per-kind GFLOP/s in the
  /// MBS_ENGINE_STATS breakdown. 0 for kinds that never note flops.
  std::int64_t flops = 0;
};

/// Snapshot of accumulated per-kind kernel time. Only the OUTERMOST timer
/// on a thread records (a conv's internal GEMM counts as conv time), so the
/// kinds sum to total kernel time without double counting.
KernelStat kernel_stat(KernelKind kind);

/// Credits `flops` floating-point operations to the OUTERMOST kernel timer
/// active on this thread (so a conv's internal GEMM flops count as conv
/// flops, matching the time attribution). No-op outside any timer scope.
void note_kernel_flops(std::int64_t flops);

const char* to_string(KernelKind kind);

/// RAII timer the kernel entry points wrap themselves in. Thread-safe;
/// nested timers on the same thread are no-ops for time accounting. Every
/// timer, of any kind, keeps the thread inside the "kernel path" for the
/// allocation hook below.
class ScopedKernelTimer {
 public:
  explicit ScopedKernelTimer(KernelKind kind);
  ~ScopedKernelTimer();
  ScopedKernelTimer(const ScopedKernelTimer&) = delete;
  ScopedKernelTimer& operator=(const ScopedKernelTimer&) = delete;

 private:
  KernelKind kind_;
  bool outermost_;
  std::int64_t start_ns_ = 0;
};

// ---------------------------------------------------------------------------
// Zero-allocation contract of the training step (Debug witness).
// ---------------------------------------------------------------------------

/// True while the calling thread is inside any kernel timer scope: conv,
/// GEMM, im2col, norm, pool, ReLU, linear or SGD — the whole training
/// step, whose steady state must not touch the heap (scratch comes from
/// util::Arena, outputs from step-persistent Tensors).
bool in_kernel_path();

/// Allocations observed while in_kernel_path() was true, counted by the
/// Debug-only global operator-new hook in util/alloc_hook.cc. Always 0 in
/// Release builds and in binaries that don't link the hook; call
/// alloc_hook_active() to know whether the counter is live.
std::int64_t kernel_path_allocs();

/// True when this binary carries the Debug allocation hook (referencing it
/// also forces the hook's object file into the link).
bool alloc_hook_active();

namespace detail {
/// Called by the operator-new hook; counts only on kernel-path threads.
void note_alloc_for_kernel_path();
}  // namespace detail

}  // namespace mbs::util
