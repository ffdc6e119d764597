// mbs_perf: the repository's benchmark. One process runs the system's
// four stages for a fixed time budget: training (`train`), a cold
// design-space sweep and its save (`sweep_cold`), a warm sweep over the
// saved store (`sweep_warm`) and a query daemon's closed loop (`serve`).
// The stages are set up in that order, then run in interleaved rounds. It
// checks that every output is correct and prints the metrics of all stages
// as the last line of stdout:
//
//   mbs_perf --workload parallel|serial --seed N --seconds S --trace 0|1
//            [--work-dir DIR] [--commit ID]
//
// The workloads differ in the thread budget: `parallel` gives the sweep
// workers and the kernel pool every core (train: at most 2, see below),
// `serial` one thread. --seed drives the inputs of every stage; each
// round shares its time among the stages in fixed proportions.
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// the separate traced run: it reports per-layer metrics from spans around
// the benchmark's calls into each module plus the counters the library
// already exposes, reports what the tracing itself costs
// (trace_overhead_pct), and writes the spans as Chrome trace-event JSON
// under the work directory. perfbench/run.py builds this binary and
// forwards its arguments; BENCHMARK.json at the repository root lists the
// workloads and metrics.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "trace.h"
#include "train/gemm_microkernels.h"
#include "util/cpu.h"
#include "util/parallel.h"

namespace mbs::perf {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::int64_t dir_bytes(const std::string& dir) {
  std::int64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec))
    if (it->is_regular_file(ec))
      total += static_cast<std::int64_t>(it->file_size(ec));
  return total;
}

void remove_tree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

void sync_file_system(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

}  // namespace mbs::perf

namespace {

#ifdef __clang__
constexpr const char* kCompiler = __VERSION__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "mbs_perf: %s\nusage: mbs_perf --workload parallel|serial "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--commit ID]\n",
               why);
  std::exit(2);
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mbs;
  perf::Options opt;
  opt.work_dir = ".bench_build/run";
  std::string commit = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !v.empty();
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end && *end == '\0' && opt.seconds > 0 &&
                     opt.seconds <= 3600;
    } else if (a == "--trace") {
      have_trace = v == "0" || v == "1";
      opt.trace = v == "1";
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else if (a == "--commit") {
      commit = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    usage("--seed, --seconds and --trace need valid values");

  if (opt.workload != "parallel" && opt.workload != "serial")
    usage(("unknown workload '" + opt.workload + "'").c_str());

  // `train`'s kernels are tiny (batch 8-32 on 12x12 images), so a 4-thread
  // barrier stalls whenever the host steals any one core; with 2 threads
  // its step times stayed steady run to run.
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int budget = opt.workload == "serial" ? 1 : nproc;
  const int train_budget = std::min(2, budget);
  const std::string trace_path =
      opt.work_dir + "/trace-" + opt.workload + ".json";
  opt.work_dir += "/" + opt.workload + "-" + std::to_string(::getpid());
  std::filesystem::create_directories(opt.work_dir);

  std::printf("host: nproc=%d threads=%d train_threads=%d gemm_isa=%s "
              "compiler=\"%s\" build=%s commit=%s\n",
              nproc, budget, train_budget,
              util::to_string(train::active_gemm_isa()), kCompiler,
              MBS_PERF_BUILD_TYPE, commit.c_str());
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);

  // Each stage's share of the run and its thread budget. One round gives
  // every stage its share of kRoundSeconds; rounds repeat until --seconds
  // have passed.
  constexpr double kRoundSeconds = 4;
  struct Entry {
    const char* name;
    double share;
    int threads;
    std::unique_ptr<perf::Stage> stage;
    double wall = 0;
  };
  perf::Report rep;
  perf::SweepState sweeps;
  std::vector<Entry> stages;
  try {
    perf::Tracer::instance().set_on(false);
    auto set_up = [&](const char* name, double share, int threads,
                      const std::function<std::unique_ptr<perf::Stage>()>&
                          make) {
      util::set_thread_budget(threads);
      const auto t0 = std::chrono::steady_clock::now();
      stages.push_back({name, share, threads, make()});
      std::printf("stage %s: set up in %.2f s\n", name,
                  perf::seconds_since(t0));
    };
    set_up("train", 0.15, train_budget,
           [&] { return perf::make_train(opt, rep); });
    set_up("sweep_cold", 0.45, budget,
           [&] { return perf::make_sweep_cold(opt, sweeps, rep); });
    set_up("sweep_warm", 0.15, budget,
           [&] { return perf::make_sweep_warm(opt, sweeps, rep); });
    set_up("serve", 0.25, budget,
           [&] { return perf::make_serve(opt, sweeps, rep); });
    int rounds = 0;
    const auto start = std::chrono::steady_clock::now();
    do {
      for (Entry& e : stages) {
        util::set_thread_budget(e.threads);
        const auto t0 = std::chrono::steady_clock::now();
        e.stage->round(e.share * kRoundSeconds);
        e.wall += perf::seconds_since(t0);
      }
      ++rounds;
    } while (perf::seconds_since(start) < opt.seconds);
    std::printf("%d rounds:", rounds);
    for (const Entry& e : stages) std::printf(" %s %.2f s", e.name, e.wall);
    std::printf("\n");
    for (Entry& e : stages) {
      util::set_thread_budget(e.threads);
      e.stage->finish();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mbs_perf: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    perf::remove_tree(opt.work_dir);
    return 1;
  }
  if (opt.trace) {
    std::printf("trace overhead by stage [%%]:");
    for (double pct : rep.overhead_pct) std::printf(" %.2f", pct);
    std::printf("\n");
    rep.add("trace_overhead_pct", perf::mean(rep.overhead_pct), "%");
  } else {
    rep.add("setup_s", rep.setup_s, "s");
    rep.add("peak_rss_mb", perf::peak_rss_mb(), "MiB");
  }
  perf::remove_tree(opt.work_dir);

  if (opt.trace) {
    if (perf::Tracer::instance().write_chrome_json(trace_path))
      std::printf("trace: %zu spans -> %s\n",
                  perf::Tracer::instance().span_count(), trace_path.c_str());
    else
      std::fprintf(stderr, "mbs_perf: cannot write trace %s\n",
                   trace_path.c_str());
  }
  for (const perf::Metric& m : rep.metrics)
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "mbs_perf: metric %s is not finite\n",
                   m.name.c_str());
      rep.correct = false;
    }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              rep.correct ? "true" : "false",
              static_cast<long long>(rep.attempted),
              static_cast<long long>(rep.failed));
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const perf::Metric& m = rep.metrics[i];
    std::printf("%s", i ? ", " : "");
    print_json_string(m.name);
    std::printf(": {\"value\": %.17g, \"unit\": ",
                std::isfinite(m.value) ? m.value : 0.0);
    print_json_string(m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  return 0;
}
