// google-benchmark microbenchmarks of the library's hot paths — the
// systolic GEMM timing model, the scheduler and the network builders — plus
// the engine layer on top of them: single-scenario evaluation (cold vs
// memoized), full Fig. 10-style sweeps (serial vs threaded) and warm
// cache-store loads on 1, 2 and 4 threads, and the
// training kernel layer (blocked GEMM, im2col convolution, whole training
// steps; serial vs pooled via util::set_thread_budget). These bound the
// cost of design-space studies and of the Fig. 6 training reproduction.
// PR 6 adds roofline rows: per-GEMM-kernel GFLOP/s and fraction of the
// measured single-core FMA peak, swept over thread budgets {1,2,4,8} and
// both microkernel families (portable/avx2) — the numbers behind
// BENCH_PR6.json's scaling table. The non-GEMM rows time ReLU backward,
// max pooling and BN/GN forward/backward at an MBS sub-batch and the full
// batch. BM_ParallelForDispatch times one empty pool dispatch, with the
// helper still polling and after it has parked.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "models/zoo.h"
#include "sched/scheduler.h"
#include "sched/traffic.h"
#include "sim/simulator.h"
#include "train/data.h"
#include "train/gemm_microkernels.h"
#include "train/im2col.h"
#include "train/model.h"
#include "train/norm.h"
#include "train/ops.h"
#include "train/trainer.h"
#include "util/cpu.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/units.h"

namespace {

using namespace mbs;

engine::Scenario resnet50_mbs2() {
  engine::Scenario s;
  s.network = "resnet50";
  s.config = sched::ExecConfig::kMbs2;
  return s;
}

// ---- Library primitives -----------------------------------------------------

void BM_SimulateGemm(benchmark::State& state) {
  arch::SystolicConfig cfg;
  const arch::GemmShape shape{100352, 256, 1152};
  for (auto _ : state)
    benchmark::DoNotOptimize(arch::simulate_gemm(cfg, shape));
}
BENCHMARK(BM_SimulateGemm);

// Cycle backend on ResNet-50's conv1 forward GEMM at sub-batch 32
// ({32*112*112, 64, 3*7*7}: thousands of folds), one Arg per dataflow.
void BM_SimulateGemmCycles(benchmark::State& state) {
  const auto df = static_cast<arch::Dataflow>(state.range(0));
  const arch::SystolicConfig cfg;
  const arch::GemmShape shape{32 * 112 * 112, 64, 3 * 7 * 7};
  for (auto _ : state)
    benchmark::DoNotOptimize(arch::simulate_gemm_cycles(cfg, df, shape));
  state.SetLabel(arch::to_string(df));
}
BENCHMARK(BM_SimulateGemmCycles)->Arg(0)->Arg(1)->Arg(2);

// One training step of resnet50 under MBS2 with a 10 MiB buffer, priced by
// each WaveCore step model below.
struct StepCase {
  core::Network net = models::make_network("resnet50");
  sched::Schedule schedule;
  sched::Traffic traffic;
  sim::WaveCoreConfig hw;

  StepCase() {
    sched::ScheduleParams sp;
    sp.buffer_bytes = 10 * util::kMiB;
    schedule = sched::build_schedule(net, sched::ExecConfig::kMbs2, sp);
    traffic = sched::compute_traffic(net, schedule);
  }
};

void BM_SimulateStep(benchmark::State& state) {
  const StepCase c;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        sim::simulate_step(c.net, c.schedule, c.traffic, c.hw));
}
BENCHMARK(BM_SimulateStep);

void BM_SimulateSystolicStep(benchmark::State& state) {
  const StepCase c;
  const arch::SystolicOptions options;
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::simulate_systolic_step(
        c.net, c.schedule, c.traffic, c.hw, options));
}
BENCHMARK(BM_SimulateSystolicStep);

// Grouping-search cases, one Arg each: resnet50 MBS2 at the default
// 10 MiB buffer, and the two slowest greedy searches of the zoo at 10 MiB.
struct ScheduleCase {
  const char* network;
  sched::ExecConfig config;
};
constexpr ScheduleCase kScheduleCases[] = {
    {"resnet50", sched::ExecConfig::kMbs2},
    {"resnet152", sched::ExecConfig::kMbs2},
    {"inception_v4", sched::ExecConfig::kMbs1},
};

void run_build_schedule(benchmark::State& state, bool optimal_grouping) {
  const ScheduleCase& c = kScheduleCases[state.range(0)];
  const core::Network net = models::make_network(c.network);
  sched::ScheduleParams p;
  p.buffer_bytes = 10 * util::kMiB;
  p.optimal_grouping = optimal_grouping;
  for (auto _ : state)
    benchmark::DoNotOptimize(sched::build_schedule(net, c.config, p));
  state.SetLabel(std::string(c.network) + " " + sched::to_string(c.config));
}

void BM_BuildScheduleGreedy(benchmark::State& state) {
  run_build_schedule(state, false);
}
BENCHMARK(BM_BuildScheduleGreedy)->Arg(0)->Arg(1)->Arg(2);

void BM_BuildScheduleOptimalDp(benchmark::State& state) {
  run_build_schedule(state, true);
}
BENCHMARK(BM_BuildScheduleOptimalDp)->Arg(0)->Arg(1)->Arg(2);

void BM_BuildResNet50(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(models::make_network("resnet50"));
}
BENCHMARK(BM_BuildResNet50);

// ---- Engine: memoized scenario evaluation -----------------------------------

// Full cold pipeline: network build + schedule + traffic + simulate_step.
void BM_EvaluateScenarioCold(benchmark::State& state) {
  const engine::Scenario s = resnet50_mbs2();
  for (auto _ : state) {
    engine::Evaluator eval;
    benchmark::DoNotOptimize(engine::evaluate_scenario(s, eval));
  }
}
BENCHMARK(BM_EvaluateScenarioCold);

// Memoized path: every stage is an evaluator cache hit.
void BM_EvaluateScenarioCached(benchmark::State& state) {
  const engine::Scenario s = resnet50_mbs2();
  engine::Evaluator eval;
  engine::evaluate_scenario(s, eval);  // warm the caches
  for (auto _ : state)
    benchmark::DoNotOptimize(engine::evaluate_scenario(s, eval));
}
BENCHMARK(BM_EvaluateScenarioCached);

// ---- Engine: Fig. 10-shaped sweeps (6 networks x 6 configs) -----------------

void BM_SweepFig10Serial(benchmark::State& state) {
  const auto grid = engine::scenario_grid(models::evaluated_network_names(),
                                          sched::paper_tab3_configs());
  engine::SweepOptions opts;
  opts.threads = 1;
  const engine::SweepRunner runner(opts);
  for (auto _ : state) {
    engine::Evaluator eval;
    benchmark::DoNotOptimize(runner.run(grid, eval));
  }
}
BENCHMARK(BM_SweepFig10Serial);

void BM_SweepFig10Threaded(benchmark::State& state) {
  const auto grid = engine::scenario_grid(models::evaluated_network_names(),
                                          sched::paper_tab3_configs());
  const engine::SweepRunner runner;  // hardware_concurrency threads
  for (auto _ : state) {
    engine::Evaluator eval;
    benchmark::DoNotOptimize(runner.run(grid, eval));
  }
}
BENCHMARK(BM_SweepFig10Threaded);

// ---- Engine: warm cache-store loads ------------------------------------------

// A store saved from the Fig. 10 grid and the distinct keys of each stage
// in it; the directory is removed at exit.
struct WarmStore {
  WarmStore() {
    const auto grid = engine::scenario_grid(models::evaluated_network_names(),
                                            sched::paper_tab3_configs());
    {
      engine::CacheStore cold(path);
      engine::Evaluator eval(&cold);
      engine::SweepRunner().run(grid, eval);
      ok = cold.save();
    }
    std::set<std::string> nets, schedules;
    for (const engine::Scenario& s : grid) {
      if (nets.insert(s.network_key()).second)
        network_keys.push_back(s.network_key());
      if (schedules.insert(s.schedule_key()).second)
        schedule_keys.push_back(s.schedule_key());
      step_keys.push_back(s.cache_key());
    }
  }
  ~WarmStore() { std::filesystem::remove_all(dir); }
  std::size_t entries() const {
    return network_keys.size() + 2 * schedule_keys.size() + step_keys.size();
  }

  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("mbs_bm_store_" + std::to_string(::getpid())))
                              .string();
  const std::string path = dir + "/evaluator.mbscache";
  bool ok = false;
  std::vector<std::string> network_keys, schedule_keys, step_keys;
};

// Every entry of the warm store per iteration, from 1, 2 and 4 threads
// sharing one CacheStore: items/s across threads is the warm-load rate a
// sweep with that many workers could reach.
void BM_CacheStoreLoad(benchmark::State& state) {
  static const WarmStore warm;
  static engine::CacheStore store(warm.path);
  if (!warm.ok) {
    state.SkipWithError("saving the warm store failed");
    return;
  }
  std::size_t misses = 0;
  for (auto _ : state) {
    for (const std::string& key : warm.network_keys) {
      core::Network v;
      misses += !store.load_network(key, &v);
      benchmark::DoNotOptimize(v);
    }
    for (const std::string& key : warm.schedule_keys) {
      sched::Schedule v;
      sched::Traffic t;
      misses += !store.load_schedule(key, &v) + !store.load_traffic(key, &t);
      benchmark::DoNotOptimize(v);
      benchmark::DoNotOptimize(t);
    }
    for (const std::string& key : warm.step_keys) {
      sim::StepResult v;
      misses += !store.load_step(key, &v);
      benchmark::DoNotOptimize(v);
    }
  }
  if (misses > 0) state.SkipWithError("warm store missed an entry");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(warm.entries()));
}
BENCHMARK(BM_CacheStoreLoad)->Threads(1)->Threads(2)->Threads(4)->UseRealTime();

// ---- Engine: schedule-group batching (fig12-shaped sweep) -------------------

// Twelve scenarios sharing four schedules (4 configs x 3 memory systems):
// the sweep does one schedule/traffic lookup per schedule group.
void BM_TrafficGrouped(benchmark::State& state) {
  std::vector<engine::Scenario> grid;
  for (auto cfg : {sched::ExecConfig::kBaseline, sched::ExecConfig::kArchOpt,
                   sched::ExecConfig::kIL, sched::ExecConfig::kMbs2})
    for (const auto& mem :
         {arch::hbm2_x2(), arch::gddr5(), arch::lpddr4()}) {
      engine::Scenario s;
      s.network = "resnet50";
      s.config = cfg;
      s.hw.memory = mem;
      grid.push_back(std::move(s));
    }
  const engine::SweepRunner runner;
  for (auto _ : state) {
    engine::Evaluator eval;
    benchmark::DoNotOptimize(runner.run(grid, eval));
  }
}
BENCHMARK(BM_TrafficGrouped);

// ---- Training kernel layer (serial = budget 1, pooled = hardware) -----------

// state.range(0) is the thread budget (0 = hardware concurrency).
void BM_GemmSmall(benchmark::State& state) {
  // M/N/K deliberately not tile multiples.
  util::Rng rng(1);
  const train::Tensor a = train::Tensor::randn({129, 65}, rng);
  const train::Tensor bt = train::Tensor::randn({130, 65}, rng);
  train::Tensor c({129, 130});
  util::set_thread_budget(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    train::matmul_bt_f32_into(a.data(), 129, bt.data(), 130, 65, nullptr,
                              c.data());
    benchmark::DoNotOptimize(c.data());
  }
  util::set_thread_budget(-1);
  state.SetLabel("remainder tiles, no zoo layer");
}
BENCHMARK(BM_GemmSmall)->Arg(1)->Arg(0);

void BM_GemmResNetShaped(benchmark::State& state) {
  // A fig06-scale im2col GEMM: A [N*Ho*Wo, Ci*Kh*Kw] x W^T [K, Co] — the
  // forward GEMM of the fig06 SmallCnn stage-2 3x3 conv (batch 32,
  // Ci=Co=32 @ 12x12: M = 32*12*12 = 4608, K = 32*3*3 = 288).
  util::Rng rng(2);
  const train::Tensor a = train::Tensor::randn({4608, 288}, rng);
  const train::Tensor w = train::Tensor::randn({32, 288}, rng);
  const train::Tensor bias = train::Tensor::randn({32}, rng, 0.1);
  train::Tensor c({4608, 32});
  util::set_thread_budget(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    train::matmul_bt_f32_into(a.data(), 4608, w.data(), 32, 288, bias.data(),
                              c.data());
    benchmark::DoNotOptimize(c.data());
  }
  util::set_thread_budget(-1);
  state.SetLabel("fig06 SmallCnn stage-2 3x3 fwd GEMM");
}
BENCHMARK(BM_GemmResNetShaped)->Arg(1)->Arg(0);

// ---- GEMM roofline (per-kernel GFLOP/s vs the measured FMA peak) ------------
//
// state.range(0) = thread budget, state.range(1) = microkernel family
// (0 = portable, 1 = avx2; avx2 rows degrade to the portable family on
// hosts without it — the label records what actually ran). Counters:
// GFLOPs is the achieved rate, frac_peak the fraction of the measured
// single-core FMA peak (thread budgets > 1 can exceed 1.0 on multi-core
// hosts; on a single-core host they show the oversubscription penalty).

/// Forces MBS_KERNEL for the benchmark's lifetime, restores default after.
struct IsaBenchGuard {
  explicit IsaBenchGuard(bool avx2) {
    setenv("MBS_KERNEL", avx2 ? "avx2" : "portable", 1);
    train::detail::reset_microkernel_dispatch();
  }
  ~IsaBenchGuard() {
    unsetenv("MBS_KERNEL");
    train::detail::reset_microkernel_dispatch();
  }
};

void roofline_counters(benchmark::State& state, double flops_per_iter,
                       const char* shape_label) {
  const double total =
      flops_per_iter * static_cast<double>(state.iterations());
  const double peak = train::detail::measured_peak_gflops() * 1e9;
  state.counters["GFLOPs"] = benchmark::Counter(
      total * 1e-9, benchmark::Counter::kIsRate);
  state.counters["frac_peak"] =
      benchmark::Counter(total / peak, benchmark::Counter::kIsRate);
  state.SetLabel(std::string(shape_label) + " isa=" +
                 util::to_string(train::active_gemm_isa()));
}

void BM_RooflineMatmulF32(benchmark::State& state) {
  // ResNet-50 conv3_x 3x3 fwd shape at batch 1: M = Ho*Wo = 28*28 = 784,
  // K = Ci*3*3 = 128*9 = 1152, N = Co = 128 (models/resnet.cc), with the
  // weights in the forward GEMM's [Co, K] layout.
  IsaBenchGuard isa(state.range(1) != 0);
  util::Rng rng(11);
  const train::Tensor a = train::Tensor::randn({784, 1152}, rng);
  const train::Tensor w = train::Tensor::randn({128, 1152}, rng);
  train::Tensor c({784, 128});
  util::set_thread_budget(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    train::matmul_bt_f32_into(a.data(), 784, w.data(), 128, 1152, nullptr,
                              c.data());
    benchmark::DoNotOptimize(c.data());
  }
  util::set_thread_budget(-1);
  roofline_counters(state, 2.0 * 784 * 1152 * 128,
                    "resnet50 conv3_x 3x3 fwd f32");
}
BENCHMARK(BM_RooflineMatmulF32)
    ->UseRealTime()
    ->ArgNames({"threads", "avx2"})
    ->Args({1, 0})->Args({2, 0})->Args({4, 0})->Args({8, 0})
    ->Args({1, 1})->Args({2, 1})->Args({4, 1})->Args({8, 1});

void BM_RooflineMatmulAt(benchmark::State& state) {
  // ResNet-50 conv3_x weight-gradient GEMM at batch 1, as conv2d_backward
  // runs it: dW[Ci*Kh*Kw, Co] = cols[Ho*Wo, Ci*Kh*Kw]^T x dY[Ho*Wo, Co].
  IsaBenchGuard isa(state.range(1) != 0);
  util::Rng rng(12);
  const train::Tensor cols = train::Tensor::randn({784, 1152}, rng);
  const train::Tensor dy = train::Tensor::randn({784, 128}, rng);
  train::Tensor dw({1152, 128});
  util::set_thread_budget(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    train::matmul_at_into(cols.data(), 1152, dy.data(), 128, 784, dw.data());
    benchmark::DoNotOptimize(dw.data());
  }
  util::set_thread_budget(-1);
  roofline_counters(state, 2.0 * 1152 * 128 * 784,
                    "resnet50 conv3_x wgrad f32");
}
BENCHMARK(BM_RooflineMatmulAt)
    ->UseRealTime()
    ->ArgNames({"threads", "avx2"})
    ->Args({1, 0})->Args({2, 0})->Args({4, 0})->Args({8, 0})
    ->Args({1, 1})->Args({2, 1})->Args({4, 1})->Args({8, 1});

void BM_RooflineMatmulBtF32(benchmark::State& state) {
  // fig06 SmallCnn stage-2 3x3 fwd GEMM with bias seeding (the
  // conv2d_forward production path): M=4608, K=288, N=32.
  IsaBenchGuard isa(state.range(1) != 0);
  util::Rng rng(13);
  const train::Tensor a = train::Tensor::randn({4608, 288}, rng);
  const train::Tensor w = train::Tensor::randn({32, 288}, rng);
  const train::Tensor bias = train::Tensor::randn({32}, rng, 0.1);
  train::Tensor c({4608, 32});
  util::set_thread_budget(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    train::matmul_bt_f32_into(a.data(), 4608, w.data(), 32, 288, bias.data(),
                              c.data());
    benchmark::DoNotOptimize(c.data());
  }
  util::set_thread_budget(-1);
  roofline_counters(state, 2.0 * 4608 * 288 * 32,
                    "fig06 SmallCnn stage-2 3x3 fwd f32+init");
}
BENCHMARK(BM_RooflineMatmulBtF32)
    ->UseRealTime()
    ->ArgNames({"threads", "avx2"})
    ->Args({1, 0})->Args({2, 0})->Args({4, 0})->Args({8, 0})
    ->Args({1, 1})->Args({2, 1})->Args({4, 1})->Args({8, 1});

void BM_Conv2dForward(benchmark::State& state) {
  util::Rng rng(3);
  const train::Tensor x = train::Tensor::randn({4, 32, 28, 28}, rng);
  const train::Tensor w = train::Tensor::randn({32, 32, 3, 3}, rng, 0.2);
  const train::Tensor b = train::Tensor::randn({32}, rng, 0.1);
  train::Tensor y;
  util::set_thread_budget(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    train::conv2d_forward_into(x, w, b, 1, 1, /*cache=*/nullptr, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  util::set_thread_budget(-1);
}
BENCHMARK(BM_Conv2dForward)->Arg(1)->Arg(0);

void BM_Conv2dBackward(benchmark::State& state) {
  util::Rng rng(4);
  const train::Tensor x = train::Tensor::randn({4, 32, 28, 28}, rng);
  const train::Tensor w = train::Tensor::randn({32, 32, 3, 3}, rng, 0.2);
  const train::Tensor dy = train::Tensor::randn({4, 32, 28, 28}, rng);
  train::Conv2dGrads g;
  util::set_thread_budget(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    train::conv2d_backward_into(x, w, dy, 1, 1, /*need_dx=*/true,
                                /*cache=*/nullptr, g);
    benchmark::DoNotOptimize(g.dx.data());
    benchmark::ClobberMemory();
  }
  util::set_thread_budget(-1);
}
BENCHMARK(BM_Conv2dBackward)->Arg(1)->Arg(0);

// Backward consuming the forward's im2col lowering from a per-layer
// ConvCache (the production model path), against persistent gradient
// scratch, on one thread. One Arg per layer shape: the fig06 SmallCnn
// stage-2 conv at batch 8 (an MBS sub-batch) and 32 (the full batch), and
// a stride-2 ResNet downsampling conv, whose data gradient runs over a
// zero-dilated dY.
void BM_Conv2dBackwardCached(benchmark::State& state) {
  struct Case {
    const char* label;
    int n, ci, hw, co, stride;
  };
  static constexpr Case kCases[] = {
      {"SmallCnn conv2 16->32 6x6 b8", 8, 16, 6, 32, 1},
      {"SmallCnn conv2 16->32 6x6 b32", 32, 16, 6, 32, 1},
      {"ResNet 3x3/2 16->32 14x14 b8", 8, 16, 14, 32, 2}};
  const Case& c = kCases[state.range(0)];
  util::Rng rng(4);
  const train::Tensor x = train::Tensor::randn({c.n, c.ci, c.hw, c.hw}, rng);
  const train::Tensor w = train::Tensor::randn({c.co, c.ci, 3, 3}, rng, 0.2);
  train::ConvCache cache;
  train::Conv2dGrads grads;
  train::Tensor y;
  util::set_thread_budget(1);
  train::conv2d_forward_into(x, w, train::Tensor(), c.stride, 1, &cache, y);
  const train::Tensor dy = train::Tensor::randn(y.shape(), rng);
  for (auto _ : state) {
    train::conv2d_backward_into(x, w, dy, c.stride, 1, /*need_dx=*/true,
                                &cache, grads);
    benchmark::DoNotOptimize(grads.dx.data());
    benchmark::ClobberMemory();
  }
  util::set_thread_budget(-1);
  // Useful FLOPs of the weight- and data-gradient passes (zero taps of the
  // lowering excluded), as the per-layer perfbench rows count them.
  const double pass_flops = 2.0 * c.n * c.co * y.dim(2) * y.dim(3) * c.ci * 9;
  roofline_counters(state, 2 * pass_flops, c.label);
}
BENCHMARK(BM_Conv2dBackwardCached)->Arg(0)->Arg(1)->Arg(2);

// ---- The non-GEMM half of the training step ---------------------------------
// ReLU, max pooling and BN/GN on SmallCnn's first-stage activation
// [b, 16, 12, 12] — the largest tensor these kernels see in a fig06 step —
// at an MBS sub-batch (b8) and the full batch (b32), serial and on two
// threads. Outputs are step-persistent, as in the models.

void non_gemm_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"batch", "threads"})
      ->Args({8, 1})->Args({32, 1})->Args({8, 2})->Args({32, 2});
}

/// Seeded [batch, 16, 12, 12] activation; pins the thread budget.
train::Tensor stage1_activation(benchmark::State& state, std::uint64_t seed) {
  util::Rng rng(seed);
  util::set_thread_budget(static_cast<int>(state.range(1)));
  return train::Tensor::randn({static_cast<int>(state.range(0)), 16, 12, 12},
                              rng);
}

void BM_ReluBackward(benchmark::State& state) {
  // y is ~half <= 0, so a branch on it would be a coin flip. Re-masking
  // the same d does the same work every iteration.
  const train::Tensor y = stage1_activation(state, 11);
  train::Tensor d = stage1_activation(state, 12);
  for (auto _ : state) {
    train::relu_backward_inplace(d, y);
    benchmark::DoNotOptimize(d.data());
    benchmark::ClobberMemory();
  }
  util::set_thread_budget(-1);
}
BENCHMARK(BM_ReluBackward)->Apply(non_gemm_args);

void BM_MaxPoolForward(benchmark::State& state) {
  const train::Tensor x = stage1_activation(state, 13);
  train::MaxPoolCache cache;
  train::Tensor y;
  for (auto _ : state) {
    train::maxpool_forward_into(x, 2, 2, cache, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  util::set_thread_budget(-1);
}
BENCHMARK(BM_MaxPoolForward)->Apply(non_gemm_args);

void BM_MaxPoolBackward(benchmark::State& state) {
  const train::Tensor x = stage1_activation(state, 14);
  train::MaxPoolCache cache;
  train::Tensor y, dx;
  train::maxpool_forward_into(x, 2, 2, cache, y);
  util::Rng rng(15);
  const train::Tensor dy = train::Tensor::randn(y.shape(), rng);
  for (auto _ : state) {
    train::maxpool_backward_into(dy, cache, dx);
    benchmark::DoNotOptimize(dx.data());
    benchmark::ClobberMemory();
  }
  util::set_thread_budget(-1);
}
BENCHMARK(BM_MaxPoolBackward)->Apply(non_gemm_args);

/// One NormLayer forward (and, when `backward`, one backward) per
/// iteration; backward timing includes the layer's dgamma/dbeta adds.
void norm_bench(benchmark::State& state, train::NormMode mode, bool backward) {
  const train::Tensor x = stage1_activation(state, 16);
  train::Tensor dy = stage1_activation(state, 17);
  train::NormLayer layer(16, mode, /*groups=*/4);
  layer.forward(x);
  for (auto _ : state) {
    const train::Tensor& out =
        backward ? layer.backward(dy) : layer.forward(x);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  util::set_thread_budget(-1);
}

void BM_BatchNormForward(benchmark::State& state) {
  norm_bench(state, train::NormMode::kBatch, /*backward=*/false);
}
BENCHMARK(BM_BatchNormForward)->Apply(non_gemm_args);

void BM_BatchNormBackward(benchmark::State& state) {
  norm_bench(state, train::NormMode::kBatch, /*backward=*/true);
}
BENCHMARK(BM_BatchNormBackward)->Apply(non_gemm_args);

void BM_GroupNormForward(benchmark::State& state) {
  norm_bench(state, train::NormMode::kGroup, /*backward=*/false);
}
BENCHMARK(BM_GroupNormForward)->Apply(non_gemm_args);

void BM_GroupNormBackward(benchmark::State& state) {
  norm_bench(state, train::NormMode::kGroup, /*backward=*/true);
}
BENCHMARK(BM_GroupNormBackward)->Apply(non_gemm_args);

void BM_TrainStep(benchmark::State& state) {
  // One fig06-style GN+MBS optimizer step (batch 32 as four sub-batches).
  const train::Dataset data = train::make_synthetic_dataset(32, 8, 1, 12, 7);
  train::SmallCnnConfig cfg;
  cfg.norm = train::NormMode::kGroup;
  cfg.classes = 8;
  cfg.stage_channels = {16, 32};
  train::SmallCnn model(cfg);
  train::Sgd opt({/*lr=*/0.05, /*momentum=*/0.9, /*weight_decay=*/1e-4});
  util::set_thread_budget(static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(train::train_step(model, opt, data.images,
                                               data.labels, {8, 8, 8, 8}));
  util::set_thread_budget(-1);
}
BENCHMARK(BM_TrainStep)->Arg(1)->Arg(2)->Arg(0);

void BM_ParallelForDispatch(benchmark::State& state) {
  // What one pool dispatch costs: an empty two-range body at budget 2,
  // timed alone. The arg is the idle gap before each dispatch in us: 0 is
  // back to back, where the helper is still polling for work; 200 is
  // longer than the polling bound, so the helper has parked and is woken.
  const std::chrono::microseconds gap(state.range(0));
  util::set_thread_budget(2);
  for (auto _ : state) {
    if (gap.count() > 0) std::this_thread::sleep_for(gap);
    const auto t0 = std::chrono::steady_clock::now();
    util::parallel_for(2, 1, [](std::int64_t, std::int64_t) {});
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }
  util::set_thread_budget(-1);
}
BENCHMARK(BM_ParallelForDispatch)->Arg(0)->UseManualTime();
// Fixed iterations: the sleeps, not the timed dispatches, set its length.
BENCHMARK(BM_ParallelForDispatch)->Arg(200)->Iterations(2000)->UseManualTime();

}  // namespace

BENCHMARK_MAIN();
