#include "util/parallel.h"

#include "util/env.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
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

/// One parallel_for dispatch: its helpers and the caller claim range
/// indices from `next` until exhausted; `pending` counts the helpers still
/// running. The Job lives on the caller's stack, so only the helpers it was
/// handed to may touch it, and none after its own finish().
struct Job {
  const RangeBody* body = nullptr;
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

/// How long a pool thread polls before it blocks: a worker waiting for its
/// next job, and a caller waiting for its helpers to finish. A training
/// step issues its kernels microseconds apart, so a worker that polls this
/// long picks up the next one without a futex wake; a pool idle for longer
/// parks and costs nothing.
constexpr std::chrono::microseconds kSpin{50};

/// One polling step: a pause hint, which frees the core's issue slots for
/// its sibling hyper-thread without giving up the time slice.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// Polls `ready` for up to kSpin: pause hints first, then yields, so a
/// poller on an oversubscribed core lets the thread it waits for run.
/// Returns whether `ready` became true.
template <typename Ready>
bool spin_until(Ready ready) {
  for (int i = 0; i < 64; ++i) {
    if (ready()) return true;
    cpu_relax();
  }
  const auto deadline = std::chrono::steady_clock::now() + kSpin;
  while (std::chrono::steady_clock::now() < deadline) {
    if (ready()) return true;
    std::this_thread::yield();
  }
  return ready();
}

/// Lazily started process-wide pool. Workers persist until process exit
/// (they are detached daemon-style threads, parked on a condition variable
/// when idle, so exit-time teardown order cannot deadlock against them).
///
/// Each worker has its own mailbox; a dispatch of R ranges posts the job to
/// workers 0 .. R-2 only, so a pool grown at a larger budget does not wake,
/// or wait for, workers the job does not need. A worker polls its mailbox
/// for kSpin after each job before it parks, and the dispatcher takes the
/// worker's lock to notify it only when it has parked.
class Pool {
 public:
  static Pool& instance() {
    static Pool* pool = new Pool();  // intentionally leaked: lives for the process
    return *pool;
  }

  /// Dispatches `job` to `helpers` workers plus the caller. Returns false
  /// without running anything if another thread holds the dispatch lock —
  /// the caller then runs the job inline, which keeps concurrent top-level
  /// kernels from oversubscribing the budget.
  bool try_run(Job& job, int helpers) {
    std::unique_lock<std::mutex> dispatch(dispatch_mu_, std::try_to_lock);
    if (!dispatch.owns_lock()) return false;
    // A worker joins the list only once its thread runs, so a failed
    // thread start cannot leave a mailbox that no one empties.
    workers_.reserve(static_cast<std::size_t>(helpers));
    while (static_cast<int>(workers_.size()) < helpers) {
      auto w = std::make_unique<Worker>();
      std::thread([w = w.get(), this] { worker_loop(*w); }).detach();
      workers_.push_back(std::move(w));  // no throw: capacity reserved
    }
    job.pending.store(helpers, std::memory_order_relaxed);
    for (int i = 0; i < helpers; ++i)
      post(*workers_[static_cast<std::size_t>(i)], job);

    {
      // The caller is one of the budget's threads; its ranges are inside
      // the region too (a nested parallel_for must run inline, and must
      // never re-enter the dispatch lock this thread already holds).
      ParallelRegionGuard region;
      job.run_ranges();
    }

    const auto done = [&] {
      return job.pending.load(std::memory_order_acquire) == 0;
    };
    if (!spin_until(done)) {
      std::unique_lock<std::mutex> lock(done_mu_);
      done_cv_.wait(lock, done);
    }
    return true;
  }

 private:
  struct Worker {
    std::atomic<Job*> job{nullptr};  // mailbox: set by post, taken by the worker
    std::atomic<bool> parked{false};
    std::mutex mu;  // guards the park/notify handshake
    std::condition_variable cv;
  };

  Pool() = default;

  /// Hands `job` to `w`. The seq_cst store of the mailbox and load of
  /// `parked` pair with the worker's seq_cst store of `parked` and load of
  /// the mailbox: either the worker sees the job before it blocks, or this
  /// sees it parked and wakes it.
  static void post(Worker& w, Job& job) {
    w.job.store(&job);
    if (w.parked.load()) {
      { std::lock_guard<std::mutex> lock(w.mu); }
      w.cv.notify_one();
    }
  }

  void worker_loop(Worker& w) {
    t_in_parallel_region = true;
    const auto posted = [&] {
      return w.job.load(std::memory_order_relaxed) != nullptr;
    };
    for (;;) {
      if (!spin_until(posted)) {
        std::unique_lock<std::mutex> lock(w.mu);
        w.parked.store(true);
        w.cv.wait(lock, [&] { return w.job.load() != nullptr; });
        w.parked.store(false, std::memory_order_relaxed);
      }
      // Empty the mailbox before finishing: once pending reaches 0 the
      // dispatcher may post the next job here.
      Job* job = w.job.exchange(nullptr, std::memory_order_acquire);
      job->run_ranges();
      finish(*job);
    }
  }

  /// A helper's last touch of `job`: once pending reaches 0 the caller
  /// may return and destroy it, so the wake-up uses only pool members.
  void finish(Job& job) {
    if (job.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(done_mu_);
      done_cv_.notify_all();
    }
  }

  std::mutex dispatch_mu_;  // one dispatch at a time; losers run inline
  std::vector<std::unique_ptr<Worker>> workers_;  // guarded by dispatch_mu_
  std::mutex done_mu_;
  std::condition_variable done_cv_;
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
