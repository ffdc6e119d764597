// Shared plumbing of the mbs_perf benchmark: run options, the result
// document every stage of a run fills, and order statistics.
#pragma once

#include <pthread.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/evaluator.h"
#include "engine/scenario.h"
#include "engine/sweep_runner.h"

namespace mbs::perf {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< measurement budget of the run
  bool trace = false;   ///< traced run: per-layer metrics instead of end-to-end
  std::string work_dir; ///< this run's scratch directory in the checkout
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: correctness counts and named metrics. Each stage
/// adds its own metrics, its median set-up time to `setup_s` and, in a
/// traced run, its tracing overhead to `overhead_pct`.
struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  double setup_s = 0;
  std::vector<double> overhead_pct;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Counts one checked operation; a false `ok` marks the run incorrect.
  void check(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
  }
};

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The quantile of a stage's repetition times (sweeps, threaded training
/// steps) that its end-to-end figure reports. On the 4-vCPU VM this
/// benchmark was tuned on, the same code ran in a fast and a slow mode
/// about 1.7x apart, and the mix of the two changed from run to run: the
/// median and the fastest repetition jumped between the modes, while the
/// 90th percentile, inside the slow mode, held best.
constexpr double kReportQuantile = 0.9;

inline double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

inline double mean(const std::vector<double>& v) {
  return v.empty() ? 0 : sum(v) / static_cast<double>(v.size());
}

/// Traced-run overhead: how much longer a traced operation took on average
/// than an untraced one, in percent.
inline double overhead_pct(const std::vector<double>& untraced,
                           const std::vector<double>& traced) {
  const double base = mean(untraced);
  return base > 0 ? (mean(traced) - base) / base * 100.0 : 0;
}

/// Keeps the calling thread on the CPU where a short probe runs fastest,
/// for the single-threaded timed loops (serve's closed loop, sweep_warm's
/// one-worker sweeps, sweep_cold's saves and, in the `serial` workload,
/// its sweeps and training steps). On the 4-vCPU VM this benchmark was
/// tuned on,
/// such code ran up to 1.7x slower on some vCPUs than on others, and which
/// ones were slow changed over seconds to minutes; a run left on a slow one
/// read slow throughout. The destructor gives the thread back every CPU it
/// had.
class CpuPinner {
 public:
  CpuPinner() {
    CPU_ZERO(&allowed_);
    ok_ = pthread_getaffinity_np(pthread_self(), sizeof allowed_,
                                 &allowed_) == 0;
  }
  ~CpuPinner() {
    if (ok_) pthread_setaffinity_np(pthread_self(), sizeof allowed_, &allowed_);
  }
  CpuPinner(const CpuPinner&) = delete;
  CpuPinner& operator=(const CpuPinner&) = delete;

  /// Runs `probe` five times on every allowed CPU and stays on the CPU
  /// with the fastest run; without affinity control the thread stays put.
  void pin_fastest(const std::function<void()>& probe) {
    int best = -1;
    double best_s = 0;
    for (int cpu = 0; ok_ && cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed_) || !pin(cpu)) continue;
      std::vector<double> runs;
      for (int i = 0; i < 5; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        probe();
        runs.push_back(seconds_since(t0));
      }
      const double t = quantile(runs, 0);
      if (best < 0 || t < best_s) {
        best = cpu;
        best_s = t;
      }
    }
    if (best >= 0) pin(best);
  }

 private:
  static bool pin(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return pthread_setaffinity_np(pthread_self(), sizeof one, &one) == 0;
  }

  cpu_set_t allowed_;
  bool ok_ = false;
};

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Total bytes of the regular files under `dir` (recursive).
std::int64_t dir_bytes(const std::string& dir);

/// Removes `dir` and everything under it (no error if absent).
void remove_tree(const std::string& dir);

/// Writes back the dirty data of the file system holding `dir` (syncfs), so
/// a timed file-system operation does not share the disk with the
/// write-back of earlier ones.
void sync_file_system(const std::string& dir);

/// What the cold sweep hands the later stages: the grid, its results and
/// answers from the storeless Evaluator (kept alive: results point into
/// it), and the store its last save wrote.
struct SweepState {
  std::vector<engine::Scenario> grid;
  std::unique_ptr<engine::Evaluator> eval;
  std::vector<engine::ScenarioResult> results;
  std::vector<std::string> reference;  ///< answers, in grid order
  std::string store_path;
  std::size_t save_failures = 0;
  engine::EvaluatorStats cold_stats;  ///< the first cold sweep's counters
};

/// The query specs `serve` draws from; the sweep grid includes them, so
/// serve runs over the store the cold sweep saved.
std::vector<std::string> serve_specs();

/// One stage of a run. Constructing it is the stage's set-up; the run then
/// interleaves the stages' rounds, so that each stage's samples span the
/// whole run rather than one stretch of it (the host's speed drifts in
/// phases of seconds to minutes), and finish() adds the stage's metrics.
class Stage {
 public:
  virtual ~Stage() = default;
  /// Runs the stage's timed loop for about `seconds`, at least one unit.
  virtual void round(double seconds) = 0;
  virtual void finish() = 0;
};

// The stages, in the order they are set up (one file each but the two
// sweeps).
std::unique_ptr<Stage> make_train(const Options& opt, Report& rep);
std::unique_ptr<Stage> make_sweep_cold(const Options& opt, SweepState& state,
                                       Report& rep);
std::unique_ptr<Stage> make_sweep_warm(const Options& opt,
                                       const SweepState& state, Report& rep);
std::unique_ptr<Stage> make_serve(const Options& opt, const SweepState& state,
                                  Report& rep);

}  // namespace mbs::perf
