#include "engine/sweep_runner.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/cache_store.h"
#include "engine/spool.h"
#include "util/env.h"
#include "util/fault.h"
#include "util/fnv.h"
#include "util/parallel.h"

namespace mbs::engine {

namespace {

/// True when `s` runs the scheduler (WaveCore and the cycle backend both
/// do). Such scenarios share schedule-stage work by schedule cache key.
bool runs_scheduler(const Scenario& s) {
  return s.device != Device::kGpu && s.stage >= Stage::kSchedule;
}

/// The kSimulate-depth work of a scheduled (non-GPU) scenario: runs the
/// device-specific step model and maps its metrics into `r.step` so mixed
/// sweeps tabulate uniformly. Shared by the serial path and the grouped
/// phase-2 fan-out so both produce identical entries.
void simulate_into(ScenarioResult& r, const Scenario& s, Evaluator& eval) {
  if (s.device == Device::kSystolic) {
    r.systolic = eval.systolic_step(s);
    r.step.time_s = r.systolic.time_s;
    r.step.dram_bytes = r.systolic.dram_bytes;
    r.step.total_macs = r.systolic.total_macs;
    r.step.systolic_utilization = r.systolic.stats.util;
    r.step.compute_time_s = r.systolic.compute_time_s;
    r.step.memory_time_s = r.systolic.stall_time_s;
  } else {
    r.step = eval.step(s);
  }
}

}  // namespace

ScenarioResult evaluate_scenario(const Scenario& s, Evaluator& eval) {
  ScenarioResult r;
  r.scenario = s;
  r.network = &eval.network(s);
  if (s.device == Device::kGpu) {
    r.gpu = eval.gpu_step(s);
    r.step.time_s = r.gpu.time_s;
    r.step.dram_bytes = r.gpu.dram_bytes;
    r.step.compute_time_s = r.gpu.compute_time_s;
    r.step.memory_time_s = r.gpu.memory_time_s;
  } else {
    if (s.stage >= Stage::kSchedule) r.schedule = &eval.schedule(s);
    if (s.stage >= Stage::kTraffic) r.traffic = &eval.traffic(s);
    if (s.stage >= Stage::kSimulate) simulate_into(r, s, eval);
  }
  return r;
}

SweepRunner::SweepRunner(SweepOptions opts) : opts_(opts) {}

int SweepRunner::thread_count(int n) const {
  // Unset options fall back to the process-wide budget shared with the
  // kernel pool (MBS_THREADS / util::set_thread_budget).
  int t = opts_.threads;
  if (t <= 0) t = util::thread_budget();
  if (t > n) t = n;
  return t < 1 ? 1 : t;
}

void SweepRunner::for_each_index(int n, const std::function<void(int)>& fn) const {
  if (n <= 0) return;
  const int threads = thread_count(n);
  if (threads == 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<int> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mu;

  auto worker = [&] {
    // The sweep already consumes the thread budget, so kernels the jobs
    // reach (the training substrate's parallel_for) run inline here —
    // threaded sweeps of training scenarios never oversubscribe.
    util::ParallelRegionGuard nested_kernels_run_inline;
    for (;;) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || failed.load(std::memory_order_relaxed)) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

void SweepRunner::evaluate_indices(const std::vector<Scenario>& scenarios,
                                   Evaluator& eval,
                                   const std::vector<std::size_t>& indices,
                                   ScenarioResult* out) const {
  // Batch the scenarios that run the scheduler by schedule cache key
  // (fig12's four memory systems per config, fig13's GPU comparisons, …):
  // each group's schedule and traffic are computed exactly once up front,
  // then the members fan out with the shared results, so no worker ever
  // blocks on another's in-flight schedule. GPU and network-only scenarios
  // stay ungrouped (they share no schedule-stage work).
  struct Group {
    std::size_t repr;  ///< first member, in input order
    Stage deepest;     ///< deepest stage any member needs
  };
  std::vector<Group> groups;
  std::unordered_map<std::string, std::size_t> group_by_key;
  std::vector<std::int64_t> group_of(indices.size(), -1);
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const Scenario& s = scenarios[indices[k]];
    if (!runs_scheduler(s)) continue;
    const auto [it, inserted] =
        group_by_key.emplace(s.schedule_key(), groups.size());
    if (inserted)
      groups.push_back(Group{indices[k], s.stage});
    else if (groups[it->second].deepest < s.stage)
      groups[it->second].deepest = s.stage;
    group_of[k] = static_cast<std::int64_t>(it->second);
  }

  // Phase 1: one worker unit per schedule group — the shared schedule (and
  // traffic, when any member runs that deep) is computed exactly once, and
  // no phase-2 worker ever blocks on another's in-flight schedule.
  struct SharedStages {
    const sched::Schedule* schedule = nullptr;
    const sched::Traffic* traffic = nullptr;
  };
  std::vector<SharedStages> shared(groups.size());
  for_each_index(static_cast<int>(groups.size()), [&](int gi) {
    const Group& g = groups[static_cast<std::size_t>(gi)];
    const Scenario& rep = scenarios[g.repr];
    SharedStages& sh = shared[static_cast<std::size_t>(gi)];
    sh.schedule = &eval.schedule(rep);
    if (g.deepest >= Stage::kTraffic) sh.traffic = &eval.traffic(rep);
  });

  // Phase 2: per-scenario work (device-specific simulation) fans out with
  // the group's shared stage results. The pointers are the very objects
  // evaluate_scenario would fetch from the evaluator, so grouped results
  // are identical to ungrouped ones — including for members shallower
  // than the group's deepest stage, which keep their own stage cut-off.
  for_each_index(static_cast<int>(indices.size()), [&](int k) {
    const Scenario& s = scenarios[indices[static_cast<std::size_t>(k)]];
    if (group_of[static_cast<std::size_t>(k)] < 0) {
      out[k] = evaluate_scenario(s, eval);
      return;
    }
    const SharedStages& sh = shared[static_cast<std::size_t>(
        group_of[static_cast<std::size_t>(k)])];
    ScenarioResult r;
    r.scenario = s;
    r.network = &eval.network(s);
    if (s.stage >= Stage::kSchedule) r.schedule = sh.schedule;
    if (s.stage >= Stage::kTraffic) r.traffic = sh.traffic;
    if (s.stage >= Stage::kSimulate) simulate_into(r, s, eval);
    out[k] = std::move(r);
  });
}

void SweepRunner::drain_spool(const std::vector<Scenario>& scenarios,
                              Evaluator& eval) const {
  if (opts_.spool_dir.empty() || scenarios.empty()) return;

  // Work units mirror evaluate_indices' batching: scenarios that run the
  // scheduler group by schedule cache key (one claim computes the shared
  // schedule/traffic once); GPU and network-only scenarios are singleton
  // units keyed by their full cache key. Every worker derives the same
  // unit list from the same grid, in first-occurrence order.
  std::vector<std::vector<std::size_t>> units;
  std::unordered_map<std::string, std::size_t> unit_by_key;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& s = scenarios[i];
    const std::string key =
        runs_scheduler(s) ? "g:" + s.schedule_key() : "s:" + s.cache_key();
    const auto [it, inserted] = unit_by_key.emplace(key, units.size());
    if (inserted) units.emplace_back();
    units[it->second].push_back(i);
  }

  // Fingerprint the unit structure so two workers can only meet in one
  // queue when they drain the same grid. Stage depth matters (a deeper
  // stage evaluates more), so it joins each member's cache key.
  std::string fp_src;
  for (const std::vector<std::size_t>& unit : units) {
    for (std::size_t i : unit) {
      fp_src += scenarios[i].cache_key();
      fp_src += '|';
      fp_src += std::to_string(static_cast<int>(scenarios[i].stage));
      fp_src += '\n';
    }
    fp_src += ";\n";
  }
  const std::uint64_t fp = util::fnv1a64(fp_src);
  char fp_hex[17];
  std::snprintf(fp_hex, sizeof fp_hex, "%016llx",
                static_cast<unsigned long long>(fp));
  // Per-grid subdirectory: benches that sweep several grids (or several
  // binaries pointed at one spool root) get disjoint queues.
  SpoolQueue queue(opts_.spool_dir + "/" + fp_hex, fp, units.size());
  queue.init();

  CacheStore* store = eval.store();
  if (!store)
    std::fprintf(stderr,
                 "SweepRunner: spool drain without a cache store shares no "
                 "results between workers (set MBS_CACHE_DIR)\n");

  const long timeout_ms =
      util::env_int("MBS_SPOOL_TIMEOUT_MS", 60000, 0, 86400000);
  const long lease_ms =
      util::env_int("MBS_SPOOL_LEASE_MS", 60000, 100, 86400000);

  auto last_progress = std::chrono::steady_clock::now();
  std::size_t last_done = queue.done_count();
  for (;;) {
    const int u = queue.claim();
    if (u >= 0) {
      // Crash injection for the recovery tests (MBS_FAULTS=
      // spool.unit.start:crash@N): abandon the Nth claimed unit by exiting
      // hard, leaving a claim file owned by a dead pid.
      util::fault_point("spool.unit.start");
      const std::vector<std::size_t>& members =
          units[static_cast<std::size_t>(u)];
      // Heartbeat: refresh the claim's lease while the unit evaluates, so
      // a unit that legitimately takes longer than MBS_SPOOL_LEASE_MS is
      // not reclaimed out from under us by a cross-host peer.
      std::atomic<bool> evaluating{true};
      std::thread heartbeat([&queue, &evaluating, u, lease_ms] {
        const auto interval =
            std::chrono::milliseconds(std::max(lease_ms / 3, 50L));
        auto next = std::chrono::steady_clock::now() + interval;
        while (evaluating.load(std::memory_order_acquire)) {
          if (std::chrono::steady_clock::now() >= next) {
            queue.refresh_claim(u);
            next = std::chrono::steady_clock::now() + interval;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      });
      std::vector<ScenarioResult> scratch(members.size());
      evaluate_indices(scenarios, eval, members, scratch.data());
      // Flush per unit so peers (and a successor after a crash) see the
      // results immediately; the store write is incremental.
      if (store) store->save();
      evaluating.store(false, std::memory_order_release);
      heartbeat.join();
      queue.mark_done(u);
      last_progress = std::chrono::steady_clock::now();
      continue;
    }
    if (queue.all_done()) break;
    // Nothing claimable: live peers hold the rest. Wait so the
    // materialization below starts warm from their results; on stall
    // (peer wedged, store unwritable) give up waiting — run() then
    // recomputes locally and the output bytes are unaffected.
    const std::size_t done = queue.done_count();
    if (done != last_done) {
      last_done = done;
      last_progress = std::chrono::steady_clock::now();
    } else if (std::chrono::steady_clock::now() - last_progress >
               std::chrono::milliseconds(timeout_ms)) {
      std::fprintf(stderr,
                   "SweepRunner: spool %s stalled (%zu/%zu units done after "
                   "%ld ms without progress); continuing without waiting\n",
                   queue.dir().c_str(), done, queue.unit_count(), timeout_ms);
      break;
    }
    ::usleep(20 * 1000);
  }
}

std::vector<ScenarioResult> SweepRunner::run(
    const std::vector<Scenario>& scenarios, Evaluator& eval) const {
  drain_spool(scenarios, eval);
  std::vector<ScenarioResult> out(scenarios.size());
  std::vector<std::size_t> all(scenarios.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  evaluate_indices(scenarios, eval, all, out.data());
  return out;
}

}  // namespace mbs::engine
