#include "engine/driver.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "train/gemm_microkernels.h"
#include "util/env.h"
#include "util/parallel.h"

namespace mbs::engine {

namespace {

/// Value of `--<name>=...` when `arg` is that flag, nullptr otherwise.
const char* flag_value(const char* arg, const char* name) {
  std::string_view view(arg);
  const std::string prefix = std::string("--") + name + "=";
  if (view.substr(0, prefix.size()) != prefix) return nullptr;
  return arg + prefix.size();
}

/// `value` as an integer in [lo, hi]; aborts with a message otherwise.
int parse_int_flag(const char* value, const char* name, int lo, int hi) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
    std::fprintf(stderr,
                 "bad --%s value '%s': expected an integer in [%d, %d]\n",
                 name, value, lo, hi);
    std::abort();
  }
  return static_cast<int>(v);
}

void print_stage(const char* name, std::int64_t misses, std::int64_t disk) {
  std::fprintf(stderr, " %s %lld/%lld", name,
               static_cast<long long>(misses - disk),
               static_cast<long long>(disk));
}

}  // namespace

Driver::Driver(int argc, char** argv) {
  SweepOptions sweep;
  std::string cache_dir;

  sweep.threads = static_cast<int>(
      util::env_int("MBS_THREADS", sweep.threads, 0, 65536));

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (const char* v = flag_value(arg, "threads")) {
      sweep.threads = parse_int_flag(v, "threads", 0, 65536);
    } else if (const char* v2 = flag_value(arg, "cache-dir")) {
      cache_dir = v2;
    } else if (const char* v3 = flag_value(arg, "spool-dir")) {
      sweep.spool_dir = v3;
    } else if (arg[0] == '-' && arg[1] == '-') {
      // A typo'd engine flag silently falling through to args() would make
      // the run quietly ignore what the user asked for.
      std::fprintf(stderr,
                   "unknown flag '%s' (expected --threads=T, "
                   "--cache-dir=DIR, or --spool-dir=DIR)\n",
                   arg);
      std::abort();
    } else {
      args_.emplace_back(arg);
    }
  }

  if (sweep.spool_dir.empty())
    if (const char* env = std::getenv("MBS_SPOOL_DIR"); env && *env)
      sweep.spool_dir = env;

  if (!cache_dir.empty())
    store_ = std::make_unique<CacheStore>(cache_dir + "/evaluator.mbscache");
  else
    store_ = CacheStore::from_env();
  // A spool without a store would share no results between workers;
  // default the store into the spool directory so the drain composes out
  // of the box (an explicit --cache-dir/MBS_CACHE_DIR still wins).
  if (!store_ && !sweep.spool_dir.empty())
    store_ = std::make_unique<CacheStore>(sweep.spool_dir +
                                          "/cache/evaluator.mbscache");

  eval_ = std::make_unique<Evaluator>(store_.get());
  // One budget for both layers: the sweep pool and the kernel pool draw
  // from the same --threads/MBS_THREADS value (nested kernel use inside
  // sweep workers runs inline, see util/parallel.h).
  util::set_thread_budget(sweep.threads);
  runner_ = SweepRunner(sweep);
}

Driver::~Driver() {
  if (store_ && !store_->save())
    // The run's numbers are unaffected (the store is a cache), but the
    // next run will silently start cold for the lost entries — say so.
    std::fprintf(stderr,
                 "[mbs-engine] WARNING: cache-store save to %s failed "
                 "(%zu entry write failures); the next run starts cold "
                 "for those entries\n",
                 store_->path().c_str(), store_->save_failures());
  const char* stats_env = std::getenv("MBS_ENGINE_STATS");
  if (!stats_env || std::strcmp(stats_env, "1") != 0) return;
  const EvaluatorStats s = eval_->stats();
  std::fprintf(stderr, "[mbs-engine] computed/disk:");
  print_stage("net", s.network_misses, s.network_disk_hits);
  print_stage("sched", s.schedule_misses, s.schedule_disk_hits);
  print_stage("traffic", s.traffic_misses, s.traffic_disk_hits);
  print_stage("step", s.step_misses, s.step_disk_hits);
  print_stage("gpu", s.gpu_misses, s.gpu_disk_hits);
  print_stage("sys", s.systolic_misses, s.systolic_disk_hits);
  std::fprintf(stderr, "\n");
  if (store_)
    std::fprintf(stderr,
                 "[mbs-engine] cache-store %s: %zu loaded, %zu entries, "
                 "%zu save-failures\n",
                 store_->path().c_str(), store_->loaded_entries(),
                 store_->entry_count(), store_->save_failures());

  // Kernel-time breakdown (outermost timers only, so the kinds sum to
  // total time spent in the training kernel layer).
  bool any_kernel = false;
  for (int k = 0; k < static_cast<int>(util::KernelKind::kCount); ++k)
    if (util::kernel_stat(static_cast<util::KernelKind>(k)).calls > 0)
      any_kernel = true;
  if (any_kernel) {
    std::fprintf(stderr, "[mbs-engine] kernels (threads=%d, gemm-isa=%s):",
                 util::thread_budget(),
                 util::to_string(train::active_gemm_isa()));
    for (int k = 0; k < static_cast<int>(util::KernelKind::kCount); ++k) {
      const util::KernelStat s =
          util::kernel_stat(static_cast<util::KernelKind>(k));
      if (s.calls == 0) continue;
      std::fprintf(stderr, " %s %.3fs/%lld",
                   util::to_string(static_cast<util::KernelKind>(k)),
                   s.seconds, static_cast<long long>(s.calls));
      // Kinds whose entry points note FLOPs (the GEMM family, and convs
      // via their internal GEMMs) also report achieved GFLOP/s.
      if (s.flops > 0 && s.seconds > 0)
        std::fprintf(stderr, "(%.1fGF/s)",
                     static_cast<double>(s.flops) * 1e-9 / s.seconds);
    }
    std::fprintf(stderr, "\n");
  }
}

std::vector<ScenarioResult> Driver::run(const std::vector<Scenario>& grid) {
  return runner_.run(grid, *eval_);
}

}  // namespace mbs::engine
