// SweepRunner: fans a vector of Scenarios (or arbitrary jobs) across a
// std::thread pool and returns results in input order.
//
// Every pipeline stage the workers touch is a pure function memoized by the
// shared Evaluator, so a parallel sweep is deterministically bit-identical
// to running the same scenarios serially — the property tests/engine_test.cc
// asserts and the paper-figure benches rely on for reproducibility.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "engine/evaluator.h"
#include "engine/scenario.h"

namespace mbs::engine {

/// One evaluated scenario. `network`/`schedule`/`traffic` point at entries
/// owned by the Evaluator and stay valid for its lifetime; they are null
/// where the stage does not apply (GPU scenarios have no schedule; a
/// Scenario::stage shallower than kSimulate leaves later stages unrun).
struct ScenarioResult {
  Scenario scenario;
  const core::Network* network = nullptr;
  const sched::Schedule* schedule = nullptr;
  const sched::Traffic* traffic = nullptr;
  /// WaveCore step metrics; for kGpu/kSystolic scenarios the time/traffic
  /// fields are mapped from the device-specific estimate so sweeps mixing
  /// devices tabulate uniformly.
  sim::StepResult step;
  arch::GpuStepResult gpu;  ///< populated only for kGpu scenarios
  arch::SystolicStepResult systolic;  ///< populated only for kSystolic ones
};

/// Evaluates one scenario against `eval`. SweepRunner returns the same
/// results but computes each schedule key's shared stages once per sweep,
/// so a serial loop over this function is the reference it is tested
/// against.
ScenarioResult evaluate_scenario(const Scenario& s, Evaluator& eval);

struct SweepOptions {
  /// Worker threads; 0 uses std::thread::hardware_concurrency().
  int threads = 0;
  /// When non-empty, run() first drains the grid through a SpoolQueue
  /// rooted here (env: MBS_SPOOL_DIR via engine::Driver): N worker
  /// processes sharing the directory claim schedule-key groups dynamically
  /// and share results through the evaluator's cache store, then each
  /// materializes its full output warm — byte identical to a spool-less
  /// run. See engine/spool.h for the protocol.
  std::string spool_dir;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions opts = {});

  /// Runs scenario `i` on the pool for every i; results come back in input
  /// order, identical to calling evaluate_scenario serially.
  std::vector<ScenarioResult> run(const std::vector<Scenario>& scenarios,
                                  Evaluator& eval) const;

  /// Parallel for over [0, n): each index is claimed once by some worker.
  /// `fn` must be safe to call concurrently for distinct indices.
  void for_each_index(int n, const std::function<void(int)>& fn) const;

  /// Generic ordered parallel map for consumers whose unit of work is not a
  /// Scenario (e.g. the training benches): executes `jobs` on the pool and
  /// returns their results in input order. R must be default-constructible.
  template <typename R>
  std::vector<R> map(const std::vector<std::function<R()>>& jobs) const {
    std::vector<R> out(jobs.size());
    for_each_index(static_cast<int>(jobs.size()),
                   [&](int i) { out[static_cast<std::size_t>(i)] = jobs[static_cast<std::size_t>(i)](); });
    return out;
  }

  /// Threads that would be used for `n` jobs (bounded by both).
  int thread_count(int n) const;

 private:
  /// Evaluates `indices` (positions into `scenarios`) into out[0..k),
  /// grouping by schedule key. out[k] is the result for
  /// scenarios[indices[k]]; entries are identical to evaluate_scenario's
  /// regardless of grouping.
  void evaluate_indices(const std::vector<Scenario>& scenarios,
                        Evaluator& eval,
                        const std::vector<std::size_t>& indices,
                        ScenarioResult* out) const;

  /// Work-queue drain of `scenarios` when opts_.spool_dir is set (no-op
  /// otherwise): claims schedule-key groups from the spool, evaluates
  /// them, and flushes the evaluator's cache store after each, then waits
  /// (bounded by MBS_SPOOL_TIMEOUT_MS) for peers to finish so the caller's
  /// subsequent materialization starts warm. Purely an evaluation-sharing
  /// accelerator: results and output bytes are unaffected by it.
  void drain_spool(const std::vector<Scenario>& scenarios,
                   Evaluator& eval) const;

  SweepOptions opts_;
};

}  // namespace mbs::engine
