// Tests for the parallel experiment engine: scenario cache keys, evaluator
// memoization, parallel-vs-serial determinism of SweepRunner, the ResultSink
// CSV/JSON writers, disk persistence (CacheStore warm starts and version
// invalidation), and the Driver's flag validation.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "arch/memory.h"
#include "engine/engine.h"
#include "engine/serve.h"
#include "models/zoo.h"
#include "sched/config.h"
#include "train/data.h"
#include "train/model.h"
#include "train/trainer.h"
#include "util/fnv.h"
#include "util/parallel.h"
#include "util/serde.h"

namespace mbs::engine {
namespace {

Scenario mbs2_scenario(const std::string& net = "resnet50") {
  Scenario s;
  s.network = net;
  s.config = sched::ExecConfig::kMbs2;
  return s;
}

bool step_equal(const sim::StepResult& a, const sim::StepResult& b) {
  return a.time_s == b.time_s && a.dram_bytes == b.dram_bytes &&
         a.buffer_bytes == b.buffer_bytes && a.total_macs == b.total_macs &&
         a.systolic_utilization == b.systolic_utilization &&
         a.compute_time_s == b.compute_time_s &&
         a.memory_time_s == b.memory_time_s &&
         a.energy.total() == b.energy.total() &&
         a.time_by_type.total() == b.time_by_type.total();
}

// ---- Scenario keys ----------------------------------------------------------

TEST(Scenario, EqualScenariosShareKeys) {
  const Scenario a = mbs2_scenario();
  const Scenario b = mbs2_scenario();
  EXPECT_EQ(a.cache_key(), b.cache_key());
  EXPECT_EQ(a.schedule_key(), b.schedule_key());
}

TEST(Scenario, ScheduleKeyIgnoresHardware) {
  Scenario a = mbs2_scenario();
  Scenario b = mbs2_scenario();
  b.hw.memory = arch::lpddr4();
  b.hw.unlimited_dram_bw = true;
  EXPECT_EQ(a.schedule_key(), b.schedule_key());
  EXPECT_NE(a.cache_key(), b.cache_key());
}

TEST(Scenario, KeyDistinguishesEveryScheduleField) {
  const Scenario base = mbs2_scenario();
  Scenario s = base;
  s.config = sched::ExecConfig::kMbs1;
  EXPECT_NE(s.schedule_key(), base.schedule_key());
  s = base;
  s.params.buffer_bytes *= 2;
  EXPECT_NE(s.schedule_key(), base.schedule_key());
  s = base;
  s.params.mini_batch = 64;
  EXPECT_NE(s.schedule_key(), base.schedule_key());
  s = base;
  s.params.optimal_grouping = true;
  EXPECT_NE(s.schedule_key(), base.schedule_key());
  s = base;
  s.network = "alexnet";
  EXPECT_NE(s.schedule_key(), base.schedule_key());
}

TEST(Scenario, TransformerNetworksFormDistinctKeys) {
  for (const auto& name : models::transformer_network_names()) {
    Scenario s = mbs2_scenario(name);
    EXPECT_NE(s.schedule_key(), mbs2_scenario().schedule_key());
    EXPECT_EQ(s.network_key(), name);
  }
}

TEST(Scenario, SeqAxisExtendsKeysBackwardCompatibly) {
  // Default seq emits no token, so every pre-seq key — and with it every
  // warm cache written before the axis existed — stays byte-frozen. The
  // override stamps all three key kinds.
  const Scenario base = mbs2_scenario("vit_small");
  EXPECT_EQ(base.network_key(), "vit_small");
  EXPECT_EQ(base.schedule_key().find("seq="), std::string::npos);
  EXPECT_EQ(base.cache_key().find("seq="), std::string::npos);

  Scenario longer = mbs2_scenario("vit_small");
  longer.seq = 256;
  EXPECT_EQ(longer.network_key(), "vit_small;seq=256");
  EXPECT_NE(longer.schedule_key(), base.schedule_key());
  EXPECT_NE(longer.cache_key(), base.cache_key());
  EXPECT_NE(longer.schedule_key().find("seq=256;"), std::string::npos);

  Scenario gpu = longer;
  gpu.device = Device::kGpu;
  EXPECT_NE(gpu.cache_key().find("seq=256;"), std::string::npos);
  EXPECT_NE(gpu.cache_key(), longer.cache_key());
}

TEST(Scenario, SeqRoundTripsThroughParseAndRejectsGarbage) {
  Scenario s;
  std::string err;
  ASSERT_TRUE(parse_scenario("net=vit_small;seq=256;cfg=MBS2;", &s, &err))
      << err;
  EXPECT_EQ(s.seq, 256);
  EXPECT_EQ(s.network_key(), "vit_small;seq=256");
  ASSERT_TRUE(parse_scenario("net=vit_small;cfg=MBS2;", &s, &err)) << err;
  EXPECT_EQ(s.seq, 0);
  EXPECT_FALSE(parse_scenario("net=vit_small;seq=banana;", &s, &err));
  EXPECT_NE(err.find("bad seq"), std::string::npos);
  EXPECT_FALSE(parse_scenario("net=vit_small;seq=-4;", &s, &err));
}

TEST(Scenario, GpuKeyIsDisjointFromWaveCoreKey) {
  Scenario wave = mbs2_scenario();
  Scenario gpu = mbs2_scenario();
  gpu.device = Device::kGpu;
  EXPECT_NE(wave.cache_key(), gpu.cache_key());
}

TEST(Scenario, WaveCoreKeysAreByteFrozenAtTheirPreSystolicValues) {
  // The cycle backend rides in on a new `dev=systolic` tag; pre-existing
  // devices must keep their exact key bytes so warm caches written before
  // the backend landed stay valid. These literals were captured from the
  // tree immediately before the systolic backend merged — a mismatch here
  // means every on-disk cache in the wild just went cold.
  const Scenario s = mbs2_scenario();
  EXPECT_EQ(s.schedule_key(),
            "net=resnet50;cfg=MBS2;buf=10485760;mb=0;opt=0;ft=0;");
  EXPECT_EQ(s.cache_key(),
            "net=resnet50;cfg=MBS2;buf=10485760;mb=0;opt=0;ft=0;"
            "rows=128;cols=128;clk=700000000;acc=131072;mem=HBM2;"
            "membw=322122547200;memcap=8589934592;memch=8;mempj=25;cores=2;"
            "gbuf=10485760;gbw=537944653824;vflops=2870000000000;edram=25;"
            "ebuf=3.1000000000000001;emac=2;evec=0.40000000000000002;"
            "ezero=0.40000000000000002;estat=4;nobw=0;");
  // No systolic axis may leak into the default device's key.
  EXPECT_EQ(s.cache_key().find("dev="), std::string::npos);
  EXPECT_EQ(s.cache_key().find("df="), std::string::npos);
  EXPECT_EQ(s.cache_key().find("spad="), std::string::npos);
}

TEST(Scenario, GpuKeyIsByteFrozenAtItsPreSystolicValue) {
  Scenario s = mbs2_scenario();
  s.device = Device::kGpu;
  EXPECT_EQ(s.cache_key(),
            "dev=gpu;net=resnet50;gmb=64;flops=125000000000000;"
            "bw=900000000000;sm=80;tile=128;bps=2;ko=1.2e-05;"
            "eff=0.55000000000000004;im2col=1;");
}

TEST(Scenario, SystolicKeyIsTaggedAndDistinguishesItsAxes) {
  Scenario s = mbs2_scenario();
  s.device = Device::kSystolic;
  EXPECT_EQ(s.cache_key().rfind("dev=systolic;", 0), 0u);
  EXPECT_NE(s.cache_key().find("df=os;"), std::string::npos);
  EXPECT_NE(s.cache_key().find("spad=524288;"), std::string::npos);
  EXPECT_NE(s.cache_key(), mbs2_scenario().cache_key());
  Scenario ws = s;
  ws.systolic.dataflow = arch::Dataflow::kWeightStationary;
  EXPECT_NE(ws.cache_key(), s.cache_key());
  Scenario big = s;
  big.systolic.scratchpad_bytes *= 2;
  EXPECT_NE(big.cache_key(), s.cache_key());
  // The schedule axis is untouched: both backends share scheduler work,
  // so the sweep runner batches them into one schedule group.
  EXPECT_EQ(s.schedule_key(), mbs2_scenario().schedule_key());
  EXPECT_EQ(ws.schedule_key(), s.schedule_key());
}

TEST(Scenario, GridIsNetworkMajor) {
  const auto grid = scenario_grid({"resnet50", "alexnet"},
                                  {sched::ExecConfig::kBaseline,
                                   sched::ExecConfig::kMbs2});
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid[0].network, "resnet50");
  EXPECT_EQ(grid[0].config, sched::ExecConfig::kBaseline);
  EXPECT_EQ(grid[1].network, "resnet50");
  EXPECT_EQ(grid[1].config, sched::ExecConfig::kMbs2);
  EXPECT_EQ(grid[2].network, "alexnet");
  EXPECT_EQ(grid[3].config, sched::ExecConfig::kMbs2);
}

// ---- Evaluator memoization --------------------------------------------------

TEST(Evaluator, MemoizesNetworkBuilds) {
  Evaluator eval;
  const core::Network& a = eval.network("resnet50");
  const core::Network& b = eval.network("resnet50");
  EXPECT_EQ(&a, &b);  // same cached object, not a rebuild
  const EvaluatorStats stats = eval.stats();
  EXPECT_EQ(stats.network_misses, 1);
  EXPECT_EQ(stats.network_hits, 1);
}

TEST(Evaluator, MemoizesSchedulesAcrossHardwareVariants) {
  Evaluator eval;
  Scenario a = mbs2_scenario();
  Scenario b = mbs2_scenario();
  b.hw.memory = arch::lpddr4();  // different hw, same scheduling problem
  const sched::Schedule& sa = eval.schedule(a);
  const sched::Schedule& sb = eval.schedule(b);
  EXPECT_EQ(&sa, &sb);
}

TEST(Evaluator, CacheHitReturnsIdenticalStepResult) {
  Evaluator eval;
  const Scenario s = mbs2_scenario();
  const sim::StepResult first = eval.step(s);
  const sim::StepResult second = eval.step(s);  // cache hit
  EXPECT_TRUE(step_equal(first, second));
  EXPECT_EQ(&eval.step(s), &eval.step(s));  // same cached object
  const EvaluatorStats stats = eval.stats();
  EXPECT_EQ(stats.step_misses, 1);
  EXPECT_GE(stats.step_hits, 2);
}

TEST(Evaluator, DistinctKeysComputeDistinctResults) {
  Evaluator eval;
  Scenario a = mbs2_scenario();
  Scenario b = mbs2_scenario();
  b.config = sched::ExecConfig::kBaseline;
  EXPECT_NE(eval.step(a).time_s, eval.step(b).time_s);
}

// ---- SweepRunner determinism ------------------------------------------------

TEST(SweepRunner, ParallelMatchesSerialBitForBit) {
  const auto grid = scenario_grid(models::evaluated_network_names(),
                                  sched::paper_tab3_configs());

  // Serial reference: evaluate each scenario in order on one thread.
  Evaluator serial_eval;
  std::vector<ScenarioResult> serial;
  serial.reserve(grid.size());
  for (const Scenario& s : grid)
    serial.push_back(evaluate_scenario(s, serial_eval));

  // Parallel run with an explicit pool.
  SweepOptions opts;
  opts.threads = 8;
  Evaluator par_eval;
  const auto parallel = SweepRunner(opts).run(grid, par_eval);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].scenario.cache_key(), serial[i].scenario.cache_key());
    EXPECT_TRUE(step_equal(parallel[i].step, serial[i].step))
        << "scenario " << i << " diverged between serial and parallel runs";
    EXPECT_EQ(parallel[i].traffic->dram_bytes(),
              serial[i].traffic->dram_bytes());
    EXPECT_EQ(parallel[i].schedule->groups.size(),
              serial[i].schedule->groups.size());
  }

  // The sweep shares intermediates: six network builds serve 36 scenarios.
  const EvaluatorStats stats = par_eval.stats();
  EXPECT_EQ(stats.network_misses, 6);
  EXPECT_EQ(stats.schedule_misses, 36);
}

TEST(SweepRunner, ComposesWithKernelPoolBitIdentically) {
  // The sweep pool and the kernel pool share one thread budget; nested
  // kernel parallelism inside sweep workers runs inline. A threaded sweep
  // of training jobs must therefore be byte-identical to a fully serial
  // run at any core count — the in-tree replacement for the old "needs a
  // >= 4-core host" benchmark caveat.
  const train::Dataset data =
      train::make_synthetic_dataset(16, 4, 1, 12, /*seed=*/71);
  auto gradients = [&](int sweep_threads, int kernel_budget) {
    util::set_thread_budget(kernel_budget);
    SweepOptions opts;
    opts.threads = sweep_threads;
    const SweepRunner runner(opts);
    std::vector<std::function<std::vector<float>()>> jobs;
    for (int seed : {5, 6, 7}) {
      jobs.push_back([&data, seed] {
        train::SmallCnnConfig cfg;
        cfg.norm = train::NormMode::kGroup;
        cfg.seed = seed;
        train::SmallCnn model(cfg);
        train::compute_gradients(model, data.images, data.labels,
                                 {4, 4, 4, 4});
        std::vector<float> flat;
        for (train::Tensor* g : model.gradients())
          flat.insert(flat.end(), g->data(), g->data() + g->size());
        return flat;
      });
    }
    auto per_job = runner.map<std::vector<float>>(jobs);
    util::set_thread_budget(-1);
    std::vector<float> all;
    for (const auto& v : per_job) all.insert(all.end(), v.begin(), v.end());
    return all;
  };

  const std::vector<float> serial = gradients(/*sweep=*/1, /*kernel=*/1);
  for (const auto& [sweep, kernel] :
       std::vector<std::pair<int, int>>{{4, 1}, {1, 8}, {4, 8}, {8, 3}}) {
    const std::vector<float> got = gradients(sweep, kernel);
    ASSERT_EQ(got.size(), serial.size());
    EXPECT_EQ(0, std::memcmp(got.data(), serial.data(),
                             serial.size() * sizeof(float)))
        << "sweep=" << sweep << " kernel=" << kernel
        << ": training gradients diverged from the serial run";
  }
}

// ---- Schedule-group batching ------------------------------------------------

/// The reference SweepRunner is tested against: every scenario evaluated on
/// its own, in order, with no shared schedule-stage work.
std::vector<ScenarioResult> serial_reference(const std::vector<Scenario>& grid,
                                             Evaluator& eval) {
  std::vector<ScenarioResult> out;
  for (const Scenario& s : grid) out.push_back(evaluate_scenario(s, eval));
  return out;
}

/// A fig12-shaped grid: every config's schedule is shared by three
/// hardware variants (12 scenarios, 4 schedule keys).
std::vector<Scenario> schedule_sharing_grid() {
  std::vector<Scenario> grid;
  for (auto cfg : {sched::ExecConfig::kBaseline, sched::ExecConfig::kArchOpt,
                   sched::ExecConfig::kIL, sched::ExecConfig::kMbs2})
    for (const auto& mem :
         {arch::hbm2_x2(), arch::gddr5(), arch::lpddr4()}) {
      Scenario s;
      s.network = "alexnet";
      s.config = cfg;
      s.hw.memory = mem;
      grid.push_back(std::move(s));
    }
  return grid;
}

TEST(ScheduleGroups, GroupedSweepMatchesUngroupedBitForBit) {
  const auto grid = schedule_sharing_grid();

  Evaluator ungrouped_eval;
  const auto reference = serial_reference(grid, ungrouped_eval);

  for (int threads : {1, 4}) {
    SweepOptions opts;
    opts.threads = threads;
    Evaluator eval;
    const auto grouped = SweepRunner(opts).run(grid, eval);
    ASSERT_EQ(grouped.size(), reference.size());
    for (std::size_t i = 0; i < grouped.size(); ++i) {
      EXPECT_TRUE(step_equal(grouped[i].step, reference[i].step))
          << "threads=" << threads << " scenario " << i;
      ASSERT_NE(grouped[i].traffic, nullptr);
      EXPECT_EQ(grouped[i].traffic->dram_bytes(),
                reference[i].traffic->dram_bytes());
      EXPECT_EQ(grouped[i].schedule->groups.size(),
                reference[i].schedule->groups.size());
    }
    // Members of one group share the evaluator's schedule/traffic objects.
    EXPECT_EQ(grouped[0].schedule, grouped[1].schedule);
    EXPECT_EQ(grouped[0].traffic, grouped[2].traffic);
    EXPECT_NE(grouped[0].schedule, grouped[3].schedule);
  }
}

TEST(ScheduleGroups, GroupingReducesTrafficInvocationsToOnePerGroup) {
  const auto grid = schedule_sharing_grid();  // 12 scenarios, 4 keys

  Evaluator grouped_eval;
  SweepRunner().run(grid, grouped_eval);
  const EvaluatorStats grouped = grouped_eval.stats();
  EXPECT_EQ(grouped.traffic_misses, 4);  // one computation per group
  // The 12 steps each read their group's memoized traffic: all hits.
  EXPECT_EQ(grouped.traffic_hits, 12);
  EXPECT_EQ(grouped.schedule_misses, 4);
  EXPECT_EQ(grouped.step_misses, 12);  // per-scenario work is untouched

  Evaluator ungrouped_eval;
  serial_reference(grid, ungrouped_eval);
  const EvaluatorStats ungrouped = ungrouped_eval.stats();
  EXPECT_EQ(ungrouped.traffic_misses, 4);
  // One lookup per scenario (4 misses, 8 hits) plus one per step.
  EXPECT_EQ(ungrouped.traffic_hits, 20);
}

TEST(ScheduleGroups, MixedStageMembersKeepTheirOwnDepth) {
  // Two scenarios share a schedule key but differ in evaluation depth:
  // grouping must not deepen the shallow one's result.
  Scenario shallow = mbs2_scenario("alexnet");
  shallow.stage = Stage::kSchedule;
  Scenario deep = mbs2_scenario("alexnet");
  deep.stage = Stage::kSimulate;

  Evaluator eval;
  const auto results = SweepRunner().run({shallow, deep}, eval);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_NE(results[0].schedule, nullptr);
  EXPECT_EQ(results[0].traffic, nullptr);  // still cut off at kSchedule
  EXPECT_NE(results[1].traffic, nullptr);
  EXPECT_EQ(results[0].schedule, results[1].schedule);
  EXPECT_EQ(eval.stats().traffic_misses, 1);
  EXPECT_EQ(eval.stats().step_misses, 1);
}

TEST(ScheduleGroups, ComposeWithWarmCacheByteIdentically) {
  const auto grid = schedule_sharing_grid();
  const std::string dir = testing::TempDir() + "mbs_groups_" +
                          std::to_string(static_cast<long>(::getpid()));
  const std::string path = dir + "/evaluator.mbscache";
  std::filesystem::remove_all(dir);

  const auto render = [](const std::vector<ScenarioResult>& results) {
    ResultSink sink("groups x cache", {"config", "memory", "time", "dram"});
    for (const ScenarioResult& r : results)
      sink.add_row({sched::to_string(r.scenario.config),
                    r.scenario.hw.memory.name, std::to_string(r.step.time_s),
                    std::to_string(r.step.dram_bytes)});
    std::ostringstream csv, json;
    sink.write_csv(csv);
    sink.write_json(json);
    return csv.str() + json.str();
  };

  // Ungrouped, memory-only reference documents.
  Evaluator ref_eval;
  const std::string reference = render(serial_reference(grid, ref_eval));

  // Grouped runs against one disk cache: cold into the store, then warm
  // from a fresh store over the same path.
  for (const bool warm : {false, true}) {
    CacheStore store(path);
    Evaluator eval(&store);
    EXPECT_EQ(render(SweepRunner().run(grid, eval)), reference)
        << (warm ? "warm" : "cold");
    ASSERT_TRUE(store.save());
    const EvaluatorStats stats = eval.stats();
    if (warm) {
      // The warm run's schedule-group phase was served from disk.
      EXPECT_GT(stats.schedule_disk_hits, 0);
      EXPECT_GT(stats.traffic_disk_hits, 0);
    } else {
      EXPECT_EQ(stats.schedule_disk_hits, 0);
    }
  }
  std::filesystem::remove_all(dir);
}

// ---- Workload axes (transformers x grouping search x memory configs) -------

/// The pareto_sweep-shaped grid: a Transformer network swept over greedy vs
/// DP grouping x buffer sizes, sharing schedules across two bandwidths each.
std::vector<Scenario> workload_axis_grid() {
  std::vector<Scenario> grid;
  for (bool optimal : {false, true})
    for (double mib : {5.0, 10.0})
      for (double bw_scale : {0.5, 1.0}) {
        Scenario s;
        s.network = "transformer_base";
        s.config = sched::ExecConfig::kMbs2;
        s.params.optimal_grouping = optimal;
        s.params.buffer_bytes =
            static_cast<std::int64_t>(mib * 1024 * 1024);
        s.hw.global_buffer_bytes = s.params.buffer_bytes;
        s.hw.memory.bandwidth_bytes_per_s *= bw_scale;
        grid.push_back(std::move(s));
      }
  return grid;
}

TEST(WorkloadAxes, GroupingAxisWarmCachesByteIdentically) {
  // The new axes must compose with every engine feature at once: the grid
  // runs grouped against a disk cache (cold, then warm from a fresh store),
  // and both runs' CSV/JSON documents must be byte-identical to an
  // ungrouped, memory-only reference run.
  const auto grid = workload_axis_grid();
  const std::string dir = testing::TempDir() + "mbs_axes_" +
                          std::to_string(static_cast<long>(::getpid()));
  const std::string path = dir + "/evaluator.mbscache";
  std::filesystem::remove_all(dir);

  const auto render = [](const std::vector<ScenarioResult>& results) {
    ResultSink sink("workload axes",
                    {"grouping", "buffer", "bw", "time", "dram", "groups"});
    for (const ScenarioResult& r : results)
      sink.add_row({r.scenario.params.optimal_grouping ? "dp" : "greedy",
                    std::to_string(r.scenario.params.buffer_bytes),
                    std::to_string(r.scenario.hw.memory.bandwidth_bytes_per_s),
                    std::to_string(r.step.time_s),
                    std::to_string(r.step.dram_bytes),
                    std::to_string(r.schedule->groups.size())});
    std::ostringstream csv, json;
    sink.write_csv(csv);
    sink.write_json(json);
    return csv.str() + json.str();
  };

  Evaluator ref_eval;
  const std::string reference = render(serial_reference(grid, ref_eval));
  // Per grouping search: one network build, two schedules (buffer sizes), four
  // simulations (x bandwidth) — the axes share all upstream stages.
  EXPECT_EQ(ref_eval.stats().network_misses, 1);
  EXPECT_EQ(ref_eval.stats().schedule_misses, 4);
  EXPECT_EQ(ref_eval.stats().step_misses, 8);

  for (const bool warm : {false, true}) {
    CacheStore store(path);
    Evaluator eval(&store);
    EXPECT_EQ(render(SweepRunner().run(grid, eval)), reference)
        << (warm ? "warm" : "cold");
    ASSERT_TRUE(store.save());
    // The warm run's schedule phase was served from disk.
    if (warm) {
      EXPECT_GT(eval.stats().schedule_disk_hits, 0);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(WorkloadAxes, ScheduleRoundTripsThroughDiskStore) {
  const std::string dir = testing::TempDir() + "mbs_schedule_store_" +
                          std::to_string(static_cast<long>(::getpid()));
  const std::string path = dir + "/evaluator.mbscache";
  std::remove(path.c_str());

  const Scenario s = mbs2_scenario("alexnet");
  sched::Schedule computed;
  {
    CacheStore store(path);
    Evaluator eval(&store);
    computed = eval.schedule(s);
    ASSERT_TRUE(store.save());
  }
  CacheStore reloaded(path);
  sched::Schedule from_disk;
  ASSERT_TRUE(reloaded.load_schedule(s.schedule_key(), &from_disk));
  ASSERT_EQ(from_disk.groups.size(), computed.groups.size());
  for (std::size_t g = 0; g < computed.groups.size(); ++g) {
    EXPECT_EQ(from_disk.groups[g].first, computed.groups[g].first);
    EXPECT_EQ(from_disk.groups[g].last, computed.groups[g].last);
    EXPECT_EQ(from_disk.groups[g].sub_batch, computed.groups[g].sub_batch);
    EXPECT_EQ(from_disk.groups[g].iterations, computed.groups[g].iterations);
  }
  EXPECT_EQ(from_disk.block_footprint, computed.block_footprint);
  EXPECT_EQ(from_disk.block_max_sub, computed.block_max_sub);
  std::remove(path.c_str());
}

TEST(SweepRunner, ResultsComeBackInInputOrder) {
  SweepOptions opts;
  opts.threads = 4;
  const SweepRunner runner(opts);
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < 64; ++i) jobs.push_back([i] { return i * i; });
  const std::vector<int> out = runner.map<int>(jobs);
  ASSERT_EQ(out.size(), 64u);
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(SweepRunner, PropagatesWorkerExceptions) {
  SweepOptions opts;
  opts.threads = 2;
  const SweepRunner runner(opts);
  EXPECT_THROW(
      runner.for_each_index(8,
                            [](int i) {
                              if (i == 3) throw std::runtime_error("boom");
                            }),
      std::runtime_error);
}

TEST(SweepRunner, GpuScenariosMapIntoStepFields) {
  Scenario s;
  s.network = "resnet50";
  s.device = Device::kGpu;
  Evaluator eval;
  const auto results = SweepRunner().run({s}, eval);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].schedule, nullptr);
  EXPECT_GT(results[0].gpu.time_s, 0);
  EXPECT_EQ(results[0].step.time_s, results[0].gpu.time_s);
  EXPECT_EQ(results[0].step.dram_bytes, results[0].gpu.dram_bytes);
  // GPU cache activity is counted separately from the WaveCore step cache.
  EXPECT_EQ(eval.stats().gpu_misses, 1);
  EXPECT_EQ(eval.stats().step_misses, 0);
}

TEST(SweepRunner, ShallowStagesSkipLaterPipelineWork) {
  Scenario s = mbs2_scenario();
  s.stage = Stage::kSchedule;
  Evaluator eval;
  const auto results = SweepRunner().run({s}, eval);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_NE(results[0].schedule, nullptr);
  EXPECT_EQ(results[0].traffic, nullptr);
  EXPECT_EQ(eval.stats().step_misses, 0);   // simulate_step never ran
  EXPECT_EQ(eval.stats().traffic_misses, 0);

  // Deepening the same scenario reuses the memoized shallow stages.
  s.stage = Stage::kSimulate;
  const auto deep = SweepRunner().run({s}, eval);
  EXPECT_EQ(deep[0].schedule, results[0].schedule);
  EXPECT_EQ(eval.stats().schedule_misses, 1);
}

// ---- ResultSink -------------------------------------------------------------

TEST(ResultSink, CsvQuotesCommasQuotesAndNewlines) {
  ResultSink sink("Fig. X", {"network", "value", "note"});
  sink.add_row({"resnet50", "1.25", "plain"});
  sink.add_row({"odd,cell", "with \"quotes\"", "multi\nline"});
  std::ostringstream os;
  sink.write_csv(os);
  EXPECT_EQ(os.str(),
            "network,value,note\n"
            "resnet50,1.25,plain\n"
            "\"odd,cell\",\"with \"\"quotes\"\"\",\"multi\nline\"\n");
}

TEST(ResultSink, JsonEscapesQuotesBackslashesTabsAndNewlines) {
  ResultSink sink("Fig. 10a: time \"per step\"", {"network", "t [ms]"});
  sink.add_row({"resnet50", "58.3"});
  sink.add_row({"needs \\escaping\t", "line\nbreak"});
  std::ostringstream os;
  sink.write_json(os);
  EXPECT_EQ(os.str(),
            "{\"title\":\"Fig. 10a: time \\\"per step\\\"\","
            "\"headers\":[\"network\",\"t [ms]\"],"
            "\"rows\":[[\"resnet50\",\"58.3\"],"
            "[\"needs \\\\escaping\\t\",\"line\\nbreak\"]]}\n");
}

TEST(ResultSink, ShortRowsArePaddedToTheHeaderWidth) {
  ResultSink sink("t", {"a", "b", "c"});
  sink.add_row({"only"});  // padded to ("only", "", "") by util::Table
  std::ostringstream csv, json;
  sink.write_csv(csv);
  sink.write_json(json);
  EXPECT_EQ(csv.str(), "a,b,c\nonly,,\n");
  EXPECT_EQ(json.str(),
            "{\"title\":\"t\",\"headers\":[\"a\",\"b\",\"c\"],"
            "\"rows\":[[\"only\",\"\",\"\"]]}\n");
}

// ---- Driver -----------------------------------------------------------------

TEST(DriverDeathTest, ThreadsFlagOutsideTheEnvRangeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto construct = [](const char* flag) {
    char prog[] = "driver_test";
    std::string arg = flag;
    char* argv[] = {prog, arg.data(), nullptr};
    Driver driver(2, argv);
  };
  // Each was once cast to int unchecked: 2^32 + 2 ran with 2 threads, and
  // -3 fell back silently to the env budget.
  for (const char* bad : {"--threads=4294967298", "--threads=-3",
                          "--threads=65537", "--threads=99999999999999999999",
                          "--threads=2x"})
    EXPECT_DEATH(construct(bad), "bad --threads value") << bad;
  // Both ends of MBS_THREADS' range are accepted. Only the budget is set
  // here; no sweep runs, so no thread pool is constructed.
  for (const char* good : {"--threads=0", "--threads=65536"})
    construct(good);
  util::set_thread_budget(-1);
}

// ---- serde ------------------------------------------------------------------

TEST(Serde, RoundTripsEveryTokenKindExactly) {
  util::serde::Writer w;
  w.put_int(-42);
  w.put_double(0.1);               // not representable: exercises %a exactness
  w.put_double(-1.5e300);
  w.put_string("with spaces\nand newline");
  w.put_string("");
  util::serde::Reader r(w.str());
  EXPECT_EQ(r.read_int(), -42);
  EXPECT_EQ(r.read_double(), 0.1);
  EXPECT_EQ(r.read_double(), -1.5e300);
  EXPECT_EQ(r.read_string(), "with spaces\nand newline");
  EXPECT_EQ(r.read_string(), "");
  EXPECT_FALSE(r.fail());
  EXPECT_TRUE(r.at_end());
}

TEST(Serde, HugeStringLengthFailsInsteadOfOverflowing) {
  // 2^64-1 would wrap the bounds arithmetic if accumulated unchecked.
  util::serde::Reader r("18446744073709551615:abc");
  EXPECT_EQ(r.read_string(), "");
  EXPECT_TRUE(r.fail());
  util::serde::Reader r2("999:abc");  // in-range length, out-of-bounds
  EXPECT_EQ(r2.read_string(), "");
  EXPECT_TRUE(r2.fail());
}

// ---- CacheStore -------------------------------------------------------------

std::string test_cache_dir(const char* name) {
  return testing::TempDir() + "mbs_" + name + "_" +
         std::to_string(static_cast<long>(::getpid()));
}

TEST(CacheStore, WarmRunMatchesColdRunAndSkipsAllComputation) {
  const std::string dir = test_cache_dir("warm");
  const std::string path = dir + "/evaluator.mbscache";
  std::remove(path.c_str());

  auto grid = scenario_grid(
      {"alexnet"}, {sched::ExecConfig::kBaseline, sched::ExecConfig::kMbs2});
  Scenario gpu;
  gpu.network = "alexnet";
  gpu.device = Device::kGpu;
  grid.push_back(gpu);

  // Cold run: every stage is computed and recorded.
  CacheStore cold_store(path);
  Evaluator cold_eval(&cold_store);
  const auto cold = SweepRunner().run(grid, cold_eval);
  const EvaluatorStats cold_stats = cold_eval.stats();
  EXPECT_EQ(cold_stats.step_disk_hits, 0);
  EXPECT_EQ(cold_stats.step_misses, 2);
  EXPECT_EQ(cold_stats.gpu_misses, 1);
  EXPECT_TRUE(cold_store.dirty());
  ASSERT_TRUE(cold_store.save());
  EXPECT_FALSE(cold_store.dirty());

  // Warm run: a fresh process-equivalent (new store, new evaluator) serves
  // every miss from disk — bit-identical results, zero recomputation.
  CacheStore warm_store(path);
  Evaluator warm_eval(&warm_store);
  const auto warm = SweepRunner().run(grid, warm_eval);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_TRUE(step_equal(warm[i].step, cold[i].step)) << "scenario " << i;
    if (warm[i].traffic) {
      EXPECT_EQ(warm[i].traffic->dram_bytes(), cold[i].traffic->dram_bytes());
    }
    if (warm[i].schedule) {
      ASSERT_NE(cold[i].schedule, nullptr);
      EXPECT_EQ(warm[i].schedule->groups.size(),
                cold[i].schedule->groups.size());
    }
    EXPECT_EQ(warm[i].network->param_count(), cold[i].network->param_count());
    EXPECT_EQ(warm[i].network->layer_count(), cold[i].network->layer_count());
  }
  const EvaluatorStats warm_stats = warm_eval.stats();
  EXPECT_EQ(warm_stats.network_disk_hits, warm_stats.network_misses);
  EXPECT_EQ(warm_stats.schedule_disk_hits, warm_stats.schedule_misses);
  EXPECT_EQ(warm_stats.traffic_disk_hits, warm_stats.traffic_misses);
  EXPECT_EQ(warm_stats.step_disk_hits, warm_stats.step_misses);
  EXPECT_EQ(warm_stats.gpu_disk_hits, warm_stats.gpu_misses);
  EXPECT_GT(warm_stats.step_disk_hits, 0);
  EXPECT_EQ(warm_store.loaded_entries(), cold_store.entry_count());
  // Nothing new was computed, so there is nothing to save.
  EXPECT_FALSE(warm_store.dirty());
  std::remove(path.c_str());
}

TEST(CacheStore, EntryBytesArePinned) {
  // Every byte of an entry file is part of kSchemaStamp's contract: a field
  // list that reorders, adds or drops a field must bump its stage tag, and
  // this test fails until the pinned hashes are re-captured with it.
  const std::string dir = test_cache_dir("pinned");
  const std::string path = dir + "/evaluator.mbscache";
  std::filesystem::remove_all(dir);
  auto spec = [](const char* text) {
    Scenario s;
    EXPECT_TRUE(parse_scenario(text, &s, nullptr)) << text;
    return s;
  };
  const Scenario mbs2 = spec("net=alexnet;cfg=MBS2;buf=10485760");
  const Scenario vit = spec("net=vit_small");
  const Scenario gpu = spec("net=alexnet;dev=gpu");
  const Scenario sys = spec("net=alexnet;dev=systolic");
  {
    CacheStore store(path);
    Evaluator eval(&store);
    eval.network(vit);
    eval.step(mbs2);  // network, schedule, traffic and step
    eval.gpu_step(gpu);
    eval.systolic_step(sys);
    ASSERT_TRUE(store.save());
  }
  struct Pin {
    const char* stage;
    std::string key;
    std::uint64_t fnv;
  };
  const Pin pins[] = {
      {"net", mbs2.network_key(), 0xcfc9b457b45b9fcfull},
      {"net", vit.network_key(), 0x46ea439bf52f6908ull},
      {"sched", mbs2.schedule_key(), 0x85c241152c1bbd05ull},
      {"traffic", mbs2.schedule_key(), 0x43a0d4dadd44da85ull},
      {"step", mbs2.cache_key(), 0xb3d438a82a7b07caull},
      {"gpu", gpu.cache_key(), 0x64206e4f43e02014ull},
      {"sys", sys.cache_key(), 0x8f5abcd64fb5baa1ull},
  };
  for (const Pin& pin : pins) {
    char name[32];
    std::snprintf(name, sizeof name, "%016llx.rec",
                  static_cast<unsigned long long>(util::fnv1a64(pin.key)));
    std::ifstream in(path + ".d/" + pin.stage + "/" + name, std::ios::binary);
    ASSERT_TRUE(in) << pin.stage << " " << pin.key;
    std::ostringstream text;
    text << in.rdbuf();
    char got[32];
    std::snprintf(got, sizeof got, "0x%016llx",
                  static_cast<unsigned long long>(util::fnv1a64(text.str())));
    EXPECT_EQ(util::fnv1a64(text.str()), pin.fnv)
        << pin.stage << " " << pin.key << " hashes to " << got;
  }
  std::filesystem::remove_all(dir);
}

TEST(CacheStore, VersionStampMismatchStartsCold) {
  // The store is a cache: an entry in any layout but the current one is a
  // plain miss. It is not quarantined (it may be another binary's valid
  // data) and is overwritten by the next save() of the recomputed value.
  struct Entry {
    std::int64_t version;
    std::string stage, key, body;
  };
  struct Input {
    const char* name;
    std::string (*rewrite)(const Entry&);
  };
  const Input inputs[] = {
      // The pre-checksum svc1 layout: record tokens inline after the
      // header, no checksum.
      {"svc1", [](const Entry& e) {
         util::serde::Writer w;
         w.put_string("mbs-entry");
         w.put_int(e.version);
         w.put_string("net1;sched2;traffic1;step1;gpu1;sys1;svc1");
         w.put_string(e.stage);
         w.put_string(e.key);
         return w.str() + e.body + "\n";
       }},
      // The current framing under the stamp of the layout whose groups
      // carried member lists.
      {"sched2", [](const Entry& e) {
         util::serde::Writer w;
         w.put_string("mbs-entry");
         w.put_int(e.version);
         w.put_string("net2;sched2;traffic1;step1;gpu1;sys1;svc2");
         w.put_string(e.stage);
         w.put_string(e.key);
         w.put_int(static_cast<std::int64_t>(util::fnv1a64(e.body)));
         w.put_string(e.body);
         return w.str() + "\n";
       }},
      // The current framing under the stamp of the GPU records whose
      // overhead_s double-charged im2col launches.
      {"gpu1", [](const Entry& e) {
         util::serde::Writer w;
         w.put_string("mbs-entry");
         w.put_int(e.version);
         w.put_string("net2;sched3;traffic1;step1;gpu1;sys1;svc2");
         w.put_string(e.stage);
         w.put_string(e.key);
         w.put_int(static_cast<std::int64_t>(util::fnv1a64(e.body)));
         w.put_string(e.body);
         return w.str() + "\n";
       }},
      // The current framing under a stamp this binary has never seen.
      {"unknown", [](const Entry& e) {
         util::serde::Writer w;
         w.put_string("mbs-entry");
         w.put_int(e.version);
         w.put_string("net9;sched2;traffic1;step1;gpu1;sys1;svc2");
         w.put_string(e.stage);
         w.put_string(e.key);
         w.put_int(static_cast<std::int64_t>(util::fnv1a64(e.body)));
         w.put_string(e.body);
         return w.str() + "\n";
       }},
  };
  const auto slurp = [](const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  };
  const Scenario s = mbs2_scenario("alexnet");
  for (const Input& input : inputs) {
    SCOPED_TRACE(input.name);
    const std::string dir =
        test_cache_dir((std::string("stamp_") + input.name).c_str());
    const std::string path = dir + "/evaluator.mbscache";
    sim::StepResult ref;
    {
      CacheStore store(path);
      Evaluator eval(&store);
      ref = eval.step(s);
      ASSERT_TRUE(store.save());
    }
    std::string step_rec;
    for (const auto& file :
         std::filesystem::recursive_directory_iterator(path + ".d")) {
      if (!file.is_regular_file()) continue;
      const std::string doc = slurp(file.path().string());
      util::serde::Reader r(doc);  // views doc, which must outlive it
      ASSERT_EQ(r.read_string(), "mbs-entry");
      Entry e;
      e.version = r.read_int();
      r.read_string();  // current stamp, replaced
      e.stage = r.read_string();
      e.key = r.read_string();
      r.read_int();  // checksum
      e.body = r.read_string();
      ASSERT_FALSE(r.fail());
      std::ofstream(file.path(), std::ios::binary | std::ios::trunc)
          << input.rewrite(e);
      if (e.stage == "step") step_rec = file.path().string();
    }
    ASSERT_FALSE(step_rec.empty());
    const std::string foreign = slurp(step_rec);

    CacheStore stale(path);
    sim::StepResult out;
    EXPECT_FALSE(stale.load_step(s.cache_key(), &out));
    EXPECT_EQ(stale.corrupt_entries(), 0u);
    EXPECT_EQ(slurp(step_rec), foreign);  // left in place, untouched

    Evaluator eval(&stale);
    EXPECT_TRUE(step_equal(eval.step(s), ref));
    EXPECT_EQ(eval.stats().step_disk_hits, 0);
    ASSERT_TRUE(stale.save());
    const std::string rewritten = slurp(step_rec);
    util::serde::Reader r(rewritten);
    r.read_string();
    r.read_int();
    EXPECT_EQ(r.read_string(), CacheStore::kSchemaStamp);

    CacheStore fresh(path);
    ASSERT_TRUE(fresh.load_step(s.cache_key(), &out));
    EXPECT_TRUE(step_equal(out, ref));
    EXPECT_EQ(fresh.corrupt_entries(), 0u);
    std::filesystem::remove_all(dir);
  }
}

// ---- Analytic vs cycle backend ----------------------------------------------

TEST(BackendDifferential, UnconstrainedCycleTrafficMatchesAnalyticAcrossZoo) {
  // The central conservation law of the cycle backend: it charges DRAM
  // stalls against the schedule's analytic traffic, so with bandwidth out
  // of the picture the two backends must agree on bytes exactly — for
  // every network in the zoo and every dataflow — and the cycle model must
  // report zero stall cycles.
  Evaluator eval;
  for (const std::string& net : models::all_network_names()) {
    Scenario analytic = mbs2_scenario(net);
    analytic.hw.unlimited_dram_bw = true;
    const sim::StepResult& step = eval.step(analytic);
    const double traffic_bytes =
        analytic.hw.cores * eval.traffic(analytic).dram_bytes();
    for (const arch::Dataflow df :
         {arch::Dataflow::kOutputStationary,
          arch::Dataflow::kWeightStationary,
          arch::Dataflow::kInputStationary}) {
      Scenario cycle = analytic;
      cycle.device = Device::kSystolic;
      cycle.systolic.dataflow = df;
      const arch::SystolicStepResult& sys = eval.systolic_step(cycle);
      EXPECT_DOUBLE_EQ(sys.dram_bytes, step.dram_bytes)
          << net << " " << arch::to_string(df);
      EXPECT_DOUBLE_EQ(sys.dram_bytes, traffic_bytes)
          << net << " " << arch::to_string(df);
      EXPECT_DOUBLE_EQ(sys.total_macs, step.total_macs)
          << net << " " << arch::to_string(df);
      EXPECT_EQ(sys.stats.stall_cycles, 0)
          << net << " " << arch::to_string(df);
    }
  }
}

TEST(BackendDifferential, MixedSweepTabulatesCycleMetricsIntoStepFields) {
  Scenario wave = mbs2_scenario("alexnet");
  Scenario cycle = wave;
  cycle.device = Device::kSystolic;
  Evaluator eval;
  const auto results = SweepRunner().run({wave, cycle}, eval);
  const ScenarioResult& r = results[1];
  EXPECT_EQ(r.step.time_s, r.systolic.time_s);
  EXPECT_EQ(r.step.dram_bytes, r.systolic.dram_bytes);
  EXPECT_EQ(r.step.total_macs, r.systolic.total_macs);
  EXPECT_EQ(r.step.systolic_utilization, r.systolic.stats.util);
  EXPECT_EQ(r.step.compute_time_s, r.systolic.compute_time_s);
  EXPECT_EQ(r.step.memory_time_s, r.systolic.stall_time_s);
  // Both backends ran from one shared schedule/traffic pair (they have the
  // same schedule key, so schedule-group batching hands out one object).
  EXPECT_EQ(results[0].schedule, r.schedule);
  EXPECT_EQ(results[0].traffic, r.traffic);
  // The cycle backend inherits the schedule's traffic by construction, so
  // DRAM bytes match the analytic row even under constrained bandwidth.
  EXPECT_DOUBLE_EQ(results[0].step.dram_bytes, r.step.dram_bytes);
}

TEST(CacheStore, SystolicEntriesPersistAndWarmStartFromDisk) {
  const std::string dir = test_cache_dir("sys_warm");
  const std::string path = dir + "/evaluator.mbscache";
  std::remove(path.c_str());

  std::vector<Scenario> grid;
  for (const char* net : {"alexnet", "vit_small"})
    for (int dev = 0; dev < 2; ++dev) {
      Scenario s = mbs2_scenario(net);
      if (dev == 1) s.device = Device::kSystolic;
      grid.push_back(s);
    }

  CacheStore cold_store(path);
  Evaluator cold_eval(&cold_store);
  const auto cold = SweepRunner().run(grid, cold_eval);
  const EvaluatorStats cold_stats = cold_eval.stats();
  EXPECT_EQ(cold_stats.systolic_misses, 2);
  EXPECT_EQ(cold_stats.systolic_disk_hits, 0);
  ASSERT_TRUE(cold_store.save());

  // A fresh process-equivalent serves every systolic entry from disk,
  // bit-identically, and computes nothing new.
  CacheStore warm_store(path);
  Evaluator warm_eval(&warm_store);
  const auto warm = SweepRunner().run(grid, warm_eval);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_TRUE(step_equal(warm[i].step, cold[i].step)) << "scenario " << i;
    EXPECT_EQ(warm[i].systolic.stats.comp_cycles,
              cold[i].systolic.stats.comp_cycles);
    EXPECT_EQ(warm[i].systolic.stats.stall_cycles,
              cold[i].systolic.stats.stall_cycles);
    EXPECT_EQ(warm[i].systolic.stats.util, cold[i].systolic.stats.util);
    EXPECT_EQ(warm[i].systolic.stats.mapping_eff,
              cold[i].systolic.stats.mapping_eff);
    EXPECT_EQ(warm[i].systolic.time_s, cold[i].systolic.time_s);
    EXPECT_EQ(warm[i].systolic.dram_bytes, cold[i].systolic.dram_bytes);
    EXPECT_EQ(warm[i].systolic.bw_ifmap, cold[i].systolic.bw_ifmap);
    EXPECT_EQ(warm[i].systolic.bw_filter, cold[i].systolic.bw_filter);
    EXPECT_EQ(warm[i].systolic.bw_ofmap, cold[i].systolic.bw_ofmap);
  }
  const EvaluatorStats warm_stats = warm_eval.stats();
  EXPECT_EQ(warm_stats.systolic_disk_hits, warm_stats.systolic_misses);
  EXPECT_GT(warm_stats.systolic_disk_hits, 0);
  EXPECT_FALSE(warm_store.dirty());
  std::remove(path.c_str());
}

TEST(CacheStore, CorruptShardEntryMissesOnlyThatKey) {
  const std::string dir = test_cache_dir("shard_corrupt");
  const std::string path = dir + "/evaluator.mbscache";

  const Scenario a = mbs2_scenario("alexnet");
  const Scenario b = mbs2_scenario("resnet50");
  {
    CacheStore store(path);
    Evaluator eval(&store);
    eval.step(a);
    eval.step(b);
    ASSERT_TRUE(store.save());
  }
  // Truncate one per-entry file mid-token. The sharded layout must degrade
  // per key: the mangled entry misses (and is recomputed), every other
  // entry still loads warm — no single bad byte cold-starts the store.
  {
    const std::string victim = path + ".d/step/";
    std::size_t mangled = 0;
    for (const auto& entry : std::filesystem::directory_iterator(victim)) {
      std::filesystem::resize_file(entry.path(), 24);
      ++mangled;
      break;
    }
    ASSERT_EQ(mangled, 1u);
  }
  CacheStore store(path);
  sim::StepResult out_a, out_b;
  const bool a_ok = store.load_step(a.cache_key(), &out_a);
  const bool b_ok = store.load_step(b.cache_key(), &out_b);
  // Exactly one of the two entries was truncated; the other must survive.
  EXPECT_NE(a_ok, b_ok);
  std::filesystem::remove_all(path + ".d");
  std::remove(path.c_str());
}

TEST(CacheStore, BadChecksumEntryIsQuarantinedAndMissesOnlyThatKey) {
  const std::string dir = test_cache_dir("cks_corrupt");
  const std::string path = dir + "/evaluator.mbscache";

  const Scenario a = mbs2_scenario("alexnet");
  const Scenario b = mbs2_scenario("resnet50");
  {
    CacheStore store(path);
    Evaluator eval(&store);
    eval.step(a);
    eval.step(b);
    ASSERT_TRUE(store.save());
  }
  // Flip one byte deep inside a record body: the length prefix still
  // parses, the tokens may even still parse — only the checksum can catch
  // this. The damaged entry must miss AND be quarantined, not deleted.
  std::string victim;
  for (const auto& entry :
       std::filesystem::directory_iterator(path + ".d/step")) {
    victim = entry.path().string();
    break;
  }
  ASSERT_FALSE(victim.empty());
  {
    std::ifstream in(victim, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    std::string bytes = text.str();
    ASSERT_GT(bytes.size(), 60u);
    bytes[bytes.size() - 20] ^= 0x01;
    std::ofstream(victim, std::ios::binary | std::ios::trunc) << bytes;
  }
  CacheStore store(path);
  sim::StepResult out_a, out_b;
  const bool a_ok = store.load_step(a.cache_key(), &out_a);
  const bool b_ok = store.load_step(b.cache_key(), &out_b);
  EXPECT_NE(a_ok, b_ok);  // exactly the damaged key misses
  EXPECT_EQ(store.corrupt_entries(), 1u);
  EXPECT_FALSE(std::filesystem::exists(victim));  // moved, not left behind
  std::size_t quarantined = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(path + ".d/quarantine"))
    if (entry.is_regular_file()) ++quarantined;
  EXPECT_EQ(quarantined, 1u);
  std::filesystem::remove_all(dir);
}

TEST(CacheStore, WrongStageHeaderIsQuarantined) {
  const std::string dir = test_cache_dir("stage_corrupt");
  const std::string path = dir + "/evaluator.mbscache";

  const Scenario s = mbs2_scenario("alexnet");
  {
    CacheStore store(path);
    Evaluator eval(&store);
    evaluate_scenario(s, eval);  // warms every stage incl. traffic
    ASSERT_TRUE(store.save());
  }
  // Cross-wire the tiers: drop a step-stage record where a traffic-stage
  // record should be (a misdirected rename / cosmic rename target). The
  // stage token in the header disagrees with the directory — quarantine,
  // never deserialize a step body as traffic.
  std::string step_rec;
  for (const auto& entry :
       std::filesystem::directory_iterator(path + ".d/step")) {
    step_rec = entry.path().string();
    break;
  }
  ASSERT_FALSE(step_rec.empty());
  std::string traffic_rec;
  for (const auto& entry :
       std::filesystem::directory_iterator(path + ".d/traffic")) {
    traffic_rec = entry.path().string();
    break;
  }
  ASSERT_FALSE(traffic_rec.empty());
  std::filesystem::copy_file(
      step_rec, traffic_rec,
      std::filesystem::copy_options::overwrite_existing);

  CacheStore store(path);
  sched::Traffic out;
  EXPECT_FALSE(store.load_traffic(s.schedule_key(), &out));
  EXPECT_EQ(store.corrupt_entries(), 1u);
  EXPECT_TRUE(std::filesystem::exists(path + ".d/quarantine"));
  std::filesystem::remove_all(dir);
}

TEST(CacheStore, UnrunnableScheduleEntriesAreQuarantined) {
  const std::string dir = test_cache_dir("bad_schedule");
  const std::string path = dir + "/evaluator.mbscache";

  // Two checksummed schedule entries that no step can run: a zero
  // sub-batch (chunk_classes would divide by zero) and a dropped last group
  // (the last blocks would belong to no group).
  const std::string specs[] = {"net=resnet50;cfg=MBS2;buf=10485760",
                               "net=resnet50;cfg=MBS1;buf=10485760"};
  Scenario scenarios[2];
  for (int i = 0; i < 2; ++i)
    ASSERT_TRUE(parse_scenario(specs[i], &scenarios[i], nullptr));
  auto write_bad_entries = [&] {
    Evaluator eval;
    sched::Schedule zero_sub = eval.schedule(scenarios[0]);
    zero_sub.groups[0].sub_batch = 0;
    sched::Schedule uncovered = eval.schedule(scenarios[1]);
    ASSERT_GT(uncovered.groups.size(), 1u);
    uncovered.groups.pop_back();
    CacheStore store(path);
    store.put_schedule(scenarios[0].schedule_key(), zero_sub);
    store.put_schedule(scenarios[1].schedule_key(), uncovered);
    ASSERT_TRUE(store.save());
  };

  ASSERT_NO_FATAL_FAILURE(write_bad_entries());
  {
    CacheStore store(path);
    sched::Schedule out;
    ASSERT_FALSE(store.load_schedule(scenarios[0].schedule_key(), &out));
    ASSERT_FALSE(store.load_schedule(scenarios[1].schedule_key(), &out));
    EXPECT_EQ(store.corrupt_entries(), 2u);
  }

  // A serve query that meets the same entries recomputes the schedule and
  // answers exactly as a store-less evaluation does.
  ASSERT_NO_FATAL_FAILURE(write_bad_entries());
  CacheStore store(path);
  ServeCore core(&store);
  Evaluator batch;
  for (int i = 0; i < 2; ++i) {
    const ServeCore::Answer a = core.query(specs[i]);
    EXPECT_TRUE(a.ok) << a.text;
    EXPECT_EQ(a.text,
              ServeCore::format_answer(
                  scenarios[i], evaluate_scenario(scenarios[i], batch)));
  }
  EXPECT_EQ(core.stats().degraded, 2u);
  std::filesystem::remove_all(dir);
}

TEST(CacheStore, ScheduleForAnotherNetworkBuildIsRecomputed) {
  const std::string dir = test_cache_dir("short_schedule");
  const std::string path = dir + "/evaluator.mbscache";
  std::filesystem::remove_all(dir);

  // A checksummed, runnable schedule under resnet50's real key that covers
  // only its first 3 blocks: it tiles its own footprint, so the store
  // accepts it, but the step walk would meet blocks with no group.
  Scenario s;
  ASSERT_TRUE(parse_scenario("net=resnet50;cfg=MBS2;buf=10485760", &s,
                             nullptr));
  Evaluator batch;
  const sched::Schedule ref = batch.schedule(s);
  sched::Schedule cut = ref;
  cut.groups.resize(1);
  cut.groups[0].first = 0;
  cut.groups[0].last = 2;
  cut.block_footprint.resize(3);
  cut.block_max_sub.resize(3);
  {
    CacheStore store(path);
    store.put_schedule(s.schedule_key(), cut);
    ASSERT_TRUE(store.save());
    sched::Schedule out;
    ASSERT_TRUE(store.load_schedule(s.schedule_key(), &out));
  }

  CacheStore store(path);
  Evaluator eval(&store);
  EXPECT_TRUE(step_equal(eval.step(s), batch.step(s)));
  EXPECT_EQ(eval.stats().schedule_disk_hits, 0);
  ASSERT_TRUE(store.save());

  // The recomputed schedule replaced the entry.
  CacheStore reread(path);
  sched::Schedule out;
  ASSERT_TRUE(reread.load_schedule(s.schedule_key(), &out));
  ASSERT_EQ(out.groups.size(), ref.groups.size());
  EXPECT_EQ(out.groups.back().last, ref.groups.back().last);
  EXPECT_EQ(out.block_footprint, ref.block_footprint);
  std::filesystem::remove_all(dir);
}

TEST(CacheStore, ConcurrentLoadsMatchSerialLoads) {
  const std::string dir = test_cache_dir("concurrent");
  const std::string path = dir + "/evaluator.mbscache";
  std::filesystem::remove_all(dir);

  std::vector<Scenario> grid;
  for (const char* net : {"alexnet", "resnet50", "vit_small"})
    for (const auto cfg : {sched::ExecConfig::kBaseline,
                           sched::ExecConfig::kMbs2})
      for (const Device dev :
           {Device::kWaveCore, Device::kSystolic, Device::kGpu}) {
        Scenario s = mbs2_scenario(net);
        s.config = cfg;
        s.device = dev;
        grid.push_back(s);
      }
  {
    CacheStore store(path);
    Evaluator eval(&store);
    SweepRunner().run(grid, eval);
    ASSERT_TRUE(store.save());
  }

  // Reads every entry `s` touches from `from` and puts it into `to`.
  auto copy = [](CacheStore& from, CacheStore& to, const Scenario& s) {
    core::Network net;
    bool ok = from.load_network(s.network_key(), &net);
    to.put_network(s.network_key(), net);
    if (s.device == Device::kGpu) {
      arch::GpuStepResult gpu;
      ok = ok && from.load_gpu_step(s.cache_key(), &gpu);
      to.put_gpu_step(s.cache_key(), gpu);
      return ok;
    }
    sched::Schedule schedule;
    sched::Traffic traffic;
    ok = ok && from.load_schedule(s.schedule_key(), &schedule) &&
         from.load_traffic(s.schedule_key(), &traffic);
    to.put_schedule(s.schedule_key(), schedule);
    to.put_traffic(s.schedule_key(), traffic);
    if (s.device == Device::kSystolic) {
      arch::SystolicStepResult sys;
      ok = ok && from.load_systolic_step(s.cache_key(), &sys);
      to.put_systolic_step(s.cache_key(), sys);
    } else {
      sim::StepResult step;
      ok = ok && from.load_step(s.cache_key(), &step);
      to.put_step(s.cache_key(), step);
    }
    return ok;
  };
  auto copy_path = [&](int thread, int pass) {
    return dir + "/copy" + std::to_string(thread) + std::to_string(pass) +
           "/evaluator.mbscache";
  };

  // Four threads read one store: first every thread the grid in order (the
  // same keys at once), then each from its own offset (distinct keys at
  // once). Each pass's reads are put into a store of the thread's own, and
  // its saved files must equal the serially saved store's byte for byte, so
  // every value loaded equals the one computed.
  constexpr int kThreads = 4;
  CacheStore store(path);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      const std::size_t n = grid.size();
      for (int pass = 0; pass < 2; ++pass) {
        CacheStore out(copy_path(t, pass));
        for (std::size_t i = 0; i < n; ++i)
          if (!copy(store, out, grid[(i + pass * t * n / kThreads) % n]))
            ++failures;
        if (!out.save()) ++failures;
      }
    });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(store.corrupt_entries(), 0u);

  const auto slurp = [](const std::filesystem::path& file) {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  };
  const std::filesystem::path shards = path + ".d";
  for (int t = 0; t < kThreads; ++t)
    for (int pass = 0; pass < 2; ++pass) {
      std::size_t files = 0;
      for (const auto& f :
           std::filesystem::recursive_directory_iterator(shards)) {
        if (!f.is_regular_file()) continue;
        ++files;
        const auto rel = std::filesystem::relative(f.path(), shards);
        EXPECT_EQ(slurp(copy_path(t, pass) + ".d/" + rel.string()),
                  slurp(f.path()))
            << "thread " << t << " pass " << pass << " " << rel;
      }
      EXPECT_GT(files, grid.size());
    }
  std::filesystem::remove_all(dir);
}

TEST(CacheStore, ZeroLengthShardFileMissesCleanly) {
  const std::string dir = test_cache_dir("zero_len");
  const std::string path = dir + "/evaluator.mbscache";

  const Scenario s = mbs2_scenario("alexnet");
  {
    CacheStore store(path);
    Evaluator eval(&store);
    eval.step(s);
    ASSERT_TRUE(store.save());
  }
  // A crash between open and first write leaves a zero-length file (the
  // one layout the tmp+rename discipline cannot rule out under torn-write
  // injection). It must read as a clean miss and recompute warm.
  for (const auto& entry :
       std::filesystem::directory_iterator(path + ".d/step"))
    std::filesystem::resize_file(entry.path(), 0);

  CacheStore store(path);
  Evaluator eval(&store);
  const sim::StepResult recomputed = eval.step(s);
  EXPECT_GT(recomputed.time_s, 0.0);
  EXPECT_EQ(eval.stats().step_disk_hits, 0);
  EXPECT_EQ(eval.stats().step_misses, 1);
  std::filesystem::remove_all(dir);
}

TEST(CacheStore, OverlappingWritersLastRenameWinsCleanly) {
  const std::string dir = test_cache_dir("overlap");
  const std::string path = dir + "/evaluator.mbscache";

  // Two workers race to save the SAME key (both computed it before either
  // flushed — the common spool interleaving). Each write is tmp+rename,
  // so whichever rename lands last must leave a complete, loadable record
  // — never a spliced one.
  const Scenario s = mbs2_scenario("alexnet");
  sim::StepResult ref;
  {
    CacheStore store_a(path);
    CacheStore store_b(path);
    Evaluator eval_a(&store_a);
    Evaluator eval_b(&store_b);
    ref = eval_a.step(s);
    const sim::StepResult dup = eval_b.step(s);
    ASSERT_TRUE(step_equal(dup, ref));
    ASSERT_TRUE(store_a.save());
    ASSERT_TRUE(store_b.save());
  }
  CacheStore reader(path);
  sim::StepResult out;
  ASSERT_TRUE(reader.load_step(s.cache_key(), &out));
  EXPECT_TRUE(step_equal(out, ref));
  EXPECT_EQ(reader.corrupt_entries(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(CacheStore, TwoStoresOverOnePathShareEntriesThroughShardDir) {
  const std::string dir = test_cache_dir("shared");
  const std::string path = dir + "/evaluator.mbscache";

  // Two store instances over one path — the in-process stand-in for two
  // spool workers flushing to one shared store. Each computes a disjoint
  // slice and saves; a third reader sees the union, warm.
  const Scenario a = mbs2_scenario("alexnet");
  const Scenario b = mbs2_scenario("resnet50");
  sim::StepResult ref_a, ref_b;
  {
    CacheStore store_a(path);
    CacheStore store_b(path);
    Evaluator eval_a(&store_a);
    Evaluator eval_b(&store_b);
    ref_a = eval_a.step(a);
    ref_b = eval_b.step(b);
    ASSERT_TRUE(store_a.save());
    ASSERT_TRUE(store_b.save());
  }
  CacheStore reader(path);
  sim::StepResult out_a, out_b;
  ASSERT_TRUE(reader.load_step(a.cache_key(), &out_a));
  ASSERT_TRUE(reader.load_step(b.cache_key(), &out_b));
  EXPECT_TRUE(step_equal(out_a, ref_a));
  EXPECT_TRUE(step_equal(out_b, ref_b));
  std::filesystem::remove_all(path + ".d");
}

}  // namespace
}  // namespace mbs::engine
