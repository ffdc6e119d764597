#include "util/parallel.h"

#include "util/env.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace mbs::util {

namespace {

thread_local bool t_in_parallel_region = false;

std::atomic<int> g_budget_override{-1};  // -1 = unset, fall back to env

int env_budget() {
  // 0 = unset: fall back to hardware concurrency in resolve_budget.
  static const int value =
      static_cast<int>(env_int("MBS_THREADS", 0, 0, 65536));
  return value;
}

int resolve_budget(int requested) {
  if (requested <= 0)
    requested = static_cast<int>(std::thread::hardware_concurrency());
  return requested < 1 ? 1 : requested;
}

/// One parallel_for dispatch: workers (and the caller) claim range indices
/// from `next` until exhausted; the last finisher signals `done`.
struct Job {
  const RangeBody* body = nullptr;
  std::int64_t n = 0;
  std::int64_t base = 0;  // per-range length, first `rem` ranges get +1
  std::int64_t rem = 0;
  int ranges = 0;
  std::atomic<int> next{0};
  std::atomic<int> pending{0};
  std::exception_ptr error;
  std::mutex error_mu;

  void range_bounds(int r, std::int64_t* begin, std::int64_t* end) const {
    const std::int64_t b =
        r * base + (r < rem ? r : static_cast<std::int64_t>(rem));
    *begin = b;
    *end = b + base + (r < rem ? 1 : 0);
  }

  void run_ranges() {
    for (;;) {
      const int r = next.fetch_add(1, std::memory_order_relaxed);
      if (r >= ranges) return;
      std::int64_t begin = 0, end = 0;
      range_bounds(r, &begin, &end);
      try {
        (*body)(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
    }
  }
};

/// Lazily started process-wide pool. Workers persist until process exit
/// (they are detached daemon-style threads parked on a condition variable,
/// so exit-time teardown order cannot deadlock against them).
class Pool {
 public:
  static Pool& instance() {
    static Pool* pool = new Pool();  // intentionally leaked: lives for the process
    return *pool;
  }

  /// Dispatches `job` across the workers (plus the caller). Returns false
  /// without running anything if another thread holds the dispatch lock —
  /// the caller then runs the job inline, which keeps concurrent top-level
  /// kernels from oversubscribing the budget.
  bool try_run(Job& job, int helpers) {
    std::unique_lock<std::mutex> dispatch(dispatch_mu_, std::try_to_lock);
    if (!dispatch.owns_lock()) return false;
    ensure_workers(helpers);
    {
      std::lock_guard<std::mutex> lock(mu_);
      job.pending.store(workers_ + 1, std::memory_order_relaxed);
      job_ = &job;
      ++generation_;
    }
    work_cv_.notify_all();

    {
      // The caller is one of the budget's threads; its ranges are inside
      // the region too (a nested parallel_for must run inline, and must
      // never re-enter the dispatch lock this thread already holds).
      ParallelRegionGuard region;
      job.run_ranges();
    }
    finish(job);

    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return job.pending.load() == 0; });
    job_ = nullptr;
    return true;
  }

 private:
  Pool() = default;

  void ensure_workers(int helpers) {
    std::lock_guard<std::mutex> lock(mu_);
    while (workers_ < helpers) {
      ++workers_;
      std::thread([this] { worker_loop(); }).detach();
    }
  }

  void worker_loop() {
    t_in_parallel_region = true;
    std::uint64_t seen = 0;
    for (;;) {
      Job* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] { return generation_ != seen; });
        seen = generation_;
        job = job_;
      }
      if (job) {
        job->run_ranges();
        finish(*job);
      }
    }
  }

  void finish(Job& job) {
    if (job.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_all();
    }
  }

  std::mutex dispatch_mu_;  // one dispatch at a time; losers run inline
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Job* job_ = nullptr;
  std::uint64_t generation_ = 0;
  int workers_ = 0;
};

}  // namespace

int thread_budget() {
  const int override = g_budget_override.load(std::memory_order_relaxed);
  if (override >= 0) return resolve_budget(override);
  return resolve_budget(env_budget());
}

void set_thread_budget(int threads) {
  g_budget_override.store(threads, std::memory_order_relaxed);
}

bool in_parallel_region() { return t_in_parallel_region; }

ParallelRegionGuard::ParallelRegionGuard() : was_inside_(t_in_parallel_region) {
  t_in_parallel_region = true;
}

ParallelRegionGuard::~ParallelRegionGuard() {
  t_in_parallel_region = was_inside_;
}

void parallel_for(std::int64_t n, std::int64_t grain, RangeBody body) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  const int budget = thread_budget();
  std::int64_t ranges = (n + grain - 1) / grain;
  if (ranges > budget) ranges = budget;
  if (ranges <= 1 || t_in_parallel_region) {
    body(0, n);
    return;
  }

  Job job;
  job.body = &body;
  job.n = n;
  job.ranges = static_cast<int>(ranges);
  job.base = n / ranges;
  job.rem = n % ranges;
  if (!Pool::instance().try_run(job, static_cast<int>(ranges) - 1)) {
    body(0, n);
    return;
  }
  if (job.error) std::rethrow_exception(job.error);
}

// ---------------------------------------------------------------------------
// Kernel-time accounting
// ---------------------------------------------------------------------------

namespace {

struct KernelCounter {
  std::atomic<std::int64_t> calls{0};
  std::atomic<std::int64_t> nanos{0};
  std::atomic<std::int64_t> flops{0};
};

KernelCounter g_kernel_counters[static_cast<int>(KernelKind::kCount)];
thread_local bool t_in_kernel_timer = false;
thread_local KernelKind t_outermost_kind = KernelKind::kCount;
std::atomic<std::int64_t> g_kernel_path_allocs{0};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

KernelStat kernel_stat(KernelKind kind) {
  const KernelCounter& c = g_kernel_counters[static_cast<int>(kind)];
  KernelStat s;
  s.calls = c.calls.load(std::memory_order_relaxed);
  s.seconds = static_cast<double>(c.nanos.load(std::memory_order_relaxed)) * 1e-9;
  s.flops = c.flops.load(std::memory_order_relaxed);
  return s;
}

void note_kernel_flops(std::int64_t flops) {
  if (!t_in_kernel_timer || flops <= 0) return;
  g_kernel_counters[static_cast<int>(t_outermost_kind)].flops.fetch_add(
      flops, std::memory_order_relaxed);
}

const char* to_string(KernelKind kind) {
  switch (kind) {
    case KernelKind::kGemm: return "gemm";
    case KernelKind::kIm2col: return "im2col";
    case KernelKind::kConvFwd: return "conv-fwd";
    case KernelKind::kConvBwd: return "conv-bwd";
    case KernelKind::kPool: return "pool";
    case KernelKind::kNorm: return "norm";
    case KernelKind::kLinear: return "linear";
    case KernelKind::kRelu: return "relu";
    case KernelKind::kSgd: return "sgd";
    case KernelKind::kCount: break;
  }
  return "?";
}

ScopedKernelTimer::ScopedKernelTimer(KernelKind kind)
    : kind_(kind), outermost_(!t_in_kernel_timer) {
  if (outermost_) {
    t_in_kernel_timer = true;
    t_outermost_kind = kind;
    start_ns_ = now_ns();
  }
}

ScopedKernelTimer::~ScopedKernelTimer() {
  if (!outermost_) return;
  t_in_kernel_timer = false;
  t_outermost_kind = KernelKind::kCount;
  KernelCounter& c = g_kernel_counters[static_cast<int>(kind_)];
  c.calls.fetch_add(1, std::memory_order_relaxed);
  c.nanos.fetch_add(now_ns() - start_ns_, std::memory_order_relaxed);
}

bool in_kernel_path() { return t_in_kernel_timer; }

std::int64_t kernel_path_allocs() {
  return g_kernel_path_allocs.load(std::memory_order_relaxed);
}

namespace detail {

void note_alloc_for_kernel_path() {
  if (t_in_kernel_timer)
    g_kernel_path_allocs.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

}  // namespace mbs::util
