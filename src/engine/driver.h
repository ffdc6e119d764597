// Driver: the shared command-line front end of every bench and example.
//
// One object owns the engine plumbing a sweep binary needs — disk cache
// store, evaluator, thread pool — and parses the flags/env vars that
// configure them, so the 18 mains stay declarative (grid + rows) and pick
// up new engine features without per-binary changes.
//
// Flags (all optional; unrecognized arguments stay available via args()
// for binaries with positional parameters):
//   --threads=T     sweep worker threads, 0 <= T <= 65536
//                   (env: MBS_THREADS; 0 = hardware)
//   --cache-dir=D   persist the evaluator cache under D
//                   (env: MBS_CACHE_DIR); repeated runs start warm
//   --spool-dir=D   drain sweeps through a work-queue spool rooted at D
//                   (env: MBS_SPOOL_DIR): concurrent worker processes
//                   sharing D claim schedule-key groups dynamically and
//                   share results through the cache store (defaulted to
//                   D/cache when no --cache-dir/MBS_CACHE_DIR is given),
//                   each producing byte-identical full output. See
//                   engine/spool.h.
//
// Env only:
//   MBS_RESULT_DIR    ResultSink CSV/JSON export directory
//   MBS_ENGINE_STATS  =1: print per-stage computed/disk-loaded counts and
//                     cache-store activity to stderr at exit
//
// The destructor saves the cache store, so a bench persists whatever it
// computed for the next (warm) run.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "engine/cache_store.h"
#include "engine/evaluator.h"
#include "engine/sweep_runner.h"

namespace mbs::engine {

class Driver {
 public:
  /// Parses flags and environment; aborts with a usage message on a
  /// malformed flag value.
  Driver(int argc, char** argv);
  ~Driver();

  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  Evaluator& evaluator() { return *eval_; }
  /// The disk cache store (nullptr when neither --cache-dir, MBS_CACHE_DIR,
  /// nor a spool directory is configured).
  CacheStore* store() { return store_.get(); }
  const SweepRunner& runner() const { return runner_; }
  /// Positional arguments, in order (flags stripped).
  const std::vector<std::string>& args() const { return args_; }

  /// Sweep over this driver's evaluator and pool; results come back in
  /// grid order (see SweepRunner::run).
  std::vector<ScenarioResult> run(const std::vector<Scenario>& grid);

 private:
  std::unique_ptr<CacheStore> store_;
  std::unique_ptr<Evaluator> eval_;
  SweepRunner runner_;
  std::vector<std::string> args_;
};

}  // namespace mbs::engine
