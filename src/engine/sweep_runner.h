// SweepRunner: fans a vector of Scenarios (or arbitrary jobs) across a
// std::thread pool and returns results in input order.
//
// Every pipeline stage the workers touch is a pure function memoized by the
// shared Evaluator, so a parallel sweep is deterministically bit-identical
// to running the same scenarios serially — the property tests/engine_test.cc
// asserts and the paper-figure benches rely on for reproducibility.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/evaluator.h"
#include "engine/scenario.h"

namespace mbs::engine {

/// Deterministic round-robin partition of sweep work across processes.
/// Unit i belongs to shard `i % count`; every bench shards its output rows
/// (and thereby the scenarios that feed them) with the same rule, so the
/// per-shard ResultSink exports interleave back into the unsharded row
/// order (ResultSink::merge_shards, tools/merge_results.cc).
struct ShardPlan {
  int index = 0;
  int count = 1;

  bool active() const { return count > 1; }

  /// True when this shard owns unit `i` (always true for the identity plan).
  bool owns(std::size_t i) const {
    return count <= 1 ||
           static_cast<int>(i % static_cast<std::size_t>(count)) == index;
  }

  /// ".shard<i>of<N>" when active, "" otherwise (the export-file infix).
  std::string suffix() const;

  /// Parses "i/N" (e.g. "0/4"); requires 0 <= i < N. Aborts with a message
  /// on malformed input.
  static ShardPlan parse(const std::string& spec);
  /// Reads MBS_SHARD ("i/N"); the identity plan when unset or empty.
  static ShardPlan from_env();
};

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
  /// When non-empty, run() / run_sharded() first drain the grid through a
  /// SpoolQueue rooted here (env: MBS_SPOOL_DIR via engine::Driver): N
  /// worker processes sharing the directory claim schedule-key groups
  /// dynamically and share results through the evaluator's cache store,
  /// then each materializes its own (full or sharded) output warm — byte
  /// identical to a spool-less run. See engine/spool.h for the protocol.
  std::string spool_dir;
};

/// Results of a (possibly sharded) sweep, indexed like the scenario grid.
/// Entries the shard plan owned are evaluated eagerly on the thread pool;
/// any other entry is materialized lazily on first access, so cross-row
/// references (a stripe's Baseline row, a sweep's global normalization
/// point) work from every shard at the cost of evaluating just those
/// scenarios. The Evaluator must outlive this object.
class SweepResults {
 public:
  SweepResults() = default;

  std::size_t size() const { return grid_.size(); }
  bool empty() const { return grid_.empty(); }

  /// The result for grid entry `i`, evaluating it now if the eager pass
  /// skipped it. Thread-safe; references stay valid for this object's
  /// lifetime.
  const ScenarioResult& operator[](std::size_t i) const;

  class const_iterator {
   public:
    const_iterator(const SweepResults* parent, std::size_t i)
        : parent_(parent), i_(i) {}
    const ScenarioResult& operator*() const { return (*parent_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const SweepResults* parent_;
    std::size_t i_;
  };

  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, grid_.size()}; }

 private:
  friend class SweepRunner;
  SweepResults(std::vector<Scenario> grid, Evaluator& eval);

  std::vector<Scenario> grid_;
  Evaluator* eval_ = nullptr;
  mutable std::vector<std::unique_ptr<ScenarioResult>> slots_;
  mutable std::unique_ptr<std::mutex> mu_;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions opts = {});

  /// Runs scenario `i` on the pool for every i; results come back in input
  /// order, identical to calling evaluate_scenario serially.
  std::vector<ScenarioResult> run(const std::vector<Scenario>& scenarios,
                                  Evaluator& eval) const;

  /// Sharded run: eagerly evaluates (on the pool) only the scenarios with
  /// `needed(i)` true; the returned view materializes any other entry
  /// lazily on access. `needed` encodes which scenarios feed the rows this
  /// shard owns — benches whose rows aggregate several scenarios map row
  /// ownership back to scenario indices here.
  SweepResults run_sharded(const std::vector<Scenario>& scenarios,
                           Evaluator& eval,
                           const std::function<bool(std::size_t)>& needed) const;

  /// Sharded run where scenario i feeds exactly output row i (the common
  /// case): eager work is the scenarios `plan` owns. With the identity plan
  /// this evaluates everything eagerly and is value-identical to run().
  SweepResults run_sharded(const std::vector<Scenario>& scenarios,
                           Evaluator& eval, const ShardPlan& plan) const;

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
  /// grouping by schedule key when the options ask for it. out[k] is the
  /// result for scenarios[indices[k]]; entries are identical to
  /// evaluate_scenario's regardless of grouping.
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
