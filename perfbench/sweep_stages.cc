// Stages `sweep_cold` and `sweep_warm`: one design-space grid of about
// 4.5k scenarios, 9 zoo networks x 6 Tab. 3 configurations x 5 buffer
// sizes x 4 Tab. 4 memories x {WaveCore, systolic os/ws/is}, plus the GPU
// comparators, Fig. 12's 64-sample ResNet50 points, Fig. 14's
// unlimited-bandwidth (nobw) points and the points serve queries. --seed
// shuffles the grid's order.
//
// sweep_cold: a fresh Evaluator with no store runs the grid through
// SweepRunner. Here sched and sim/arch do almost all the work. The
// paper-fidelity ledger (paper_gap_pct) is computed from the first sweep's
// results, and CacheStore::put/save write them into an empty directory:
// the store sweep_warm and serve read. A traced run also times further
// saves on their own (store.save_s).
//
// sweep_warm: a fresh Evaluator over that store runs the same grid: the
// read path of cache_store does the work, sched and sim do none.
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "arch/memory.h"
#include "bench.h"
#include "engine/engine.h"
#include "engine/serve.h"
#include "models/zoo.h"
#include "sched/scheduler.h"
#include "trace.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/units.h"

namespace mbs::perf {

namespace {

using engine::Device;
using engine::Scenario;
using engine::ScenarioResult;
using sched::ExecConfig;

constexpr double kGiB = static_cast<double>(util::kGiB);

Scenario point(const std::string& net, ExecConfig cfg, std::int64_t buf_mib,
               const arch::MemoryConfig& mem) {
  Scenario s;
  s.network = net;
  s.config = cfg;
  s.params.buffer_bytes = buf_mib * util::kMiB;
  s.hw.global_buffer_bytes = s.params.buffer_bytes;
  s.hw.memory = mem;
  return s;
}

Scenario systolic_twin(Scenario s, arch::Dataflow df) {
  s.device = Device::kSystolic;
  s.systolic.dataflow = df;
  return s;
}

Scenario gpu_point(const std::string& net) {
  Scenario s;
  s.network = net;
  s.device = Device::kGpu;
  s.gpu_mini_batch = 64;  // Fig. 13: the global mini-batch of two cores
  return s;
}

Scenario fig12_point(ExecConfig cfg, const arch::MemoryConfig& mem) {
  Scenario s = point("resnet50", cfg, 10, mem);
  s.params.mini_batch = 64;
  return s;
}

Scenario nobw_point(const std::string& net, ExecConfig cfg) {
  Scenario s = point(net, cfg, 10, arch::hbm2());
  s.hw.unlimited_dram_bw = true;
  return s;
}

const arch::Dataflow kDataflows[] = {arch::Dataflow::kOutputStationary,
                                     arch::Dataflow::kWeightStationary,
                                     arch::Dataflow::kInputStationary};

std::vector<Scenario> design_grid(std::uint64_t seed) {
  std::vector<Scenario> g;
  for (const std::string& net : models::all_network_names())
    for (ExecConfig cfg : sched::all_exec_configs())
      for (std::int64_t mib : {5, 10, 20, 30, 40})
        for (const arch::MemoryConfig& mem : arch::all_memory_configs()) {
          const Scenario s = point(net, cfg, mib, mem);
          g.push_back(s);
          for (arch::Dataflow df : kDataflows)
            g.push_back(systolic_twin(s, df));
        }
  for (const std::string& net : models::all_network_names())
    g.push_back(gpu_point(net));
  for (ExecConfig cfg : {ExecConfig::kBaseline, ExecConfig::kArchOpt,
                         ExecConfig::kIL, ExecConfig::kMbs2})
    for (const arch::MemoryConfig& mem :
         {arch::hbm2_x2(), arch::gddr5(), arch::lpddr4()})
      g.push_back(fig12_point(cfg, mem));
  for (const std::string& net : models::evaluated_network_names())
    for (ExecConfig cfg : sched::all_exec_configs())
      g.push_back(nobw_point(net, cfg));
  // The points serve queries (default global buffer and memory), where the
  // grid lacks them.
  std::set<std::string> keys;
  for (const Scenario& s : g) keys.insert(s.cache_key());
  for (const std::string& spec : serve_specs()) {
    Scenario s;
    std::string error;
    if (!engine::parse_scenario(spec, &s, &error))
      throw std::runtime_error("bad spec '" + spec + "': " + error);
    if (keys.insert(s.cache_key()).second) g.push_back(s);
  }
  util::Rng rng(seed);
  for (std::size_t i = g.size() - 1; i > 0; --i)
    std::swap(g[i], g[rng.uniform_int(i + 1)]);
  return g;
}

std::vector<std::string> answers_of(const std::vector<ScenarioResult>& rs) {
  std::vector<std::string> out;
  out.reserve(rs.size());
  for (const ScenarioResult& r : rs)
    out.push_back(engine::ServeCore::format_answer(r.scenario, r));
  return out;
}

std::int64_t computed(const engine::EvaluatorStats& st) {
  return st.network_misses - st.network_disk_hits + st.schedule_misses -
         st.schedule_disk_hits + st.traffic_misses - st.traffic_disk_hits +
         st.step_misses - st.step_disk_hits + st.gpu_misses -
         st.gpu_disk_hits + st.systolic_misses - st.systolic_disk_hits;
}

/// engine.<stage>.computed from a cold sweep's counters and
/// engine.<stage>.disk_hits from a warm sweep's.
void add_engine_metrics(const engine::EvaluatorStats& cold,
                        const engine::EvaluatorStats& warm, Report& rep) {
  using St = engine::EvaluatorStats;
  const struct {
    const char* name;
    std::int64_t St::*misses;
    std::int64_t St::*disk;
  } stages[] = {{"network", &St::network_misses, &St::network_disk_hits},
                {"schedule", &St::schedule_misses, &St::schedule_disk_hits},
                {"traffic", &St::traffic_misses, &St::traffic_disk_hits},
                {"step", &St::step_misses, &St::step_disk_hits},
                {"gpu", &St::gpu_misses, &St::gpu_disk_hits},
                {"systolic", &St::systolic_misses, &St::systolic_disk_hits}};
  for (const auto& s : stages) {
    rep.add(std::string("engine.") + s.name + ".computed",
            static_cast<double>(cold.*s.misses - cold.*s.disk), "count");
    rep.add(std::string("engine.") + s.name + ".disk_hits",
            static_cast<double>(warm.*s.disk), "count");
  }
}

// ---- Paper-fidelity ledger and modelled per-configuration values ----------

/// Looks a grid point up by its cache key.
class ResultIndex {
 public:
  explicit ResultIndex(const std::vector<ScenarioResult>& rs) {
    for (const ScenarioResult& r : rs) by_key_[r.scenario.cache_key()] = &r;
  }
  const ScenarioResult& at(const Scenario& s) const {
    auto it = by_key_.find(s.cache_key());
    if (it == by_key_.end())
      throw std::runtime_error("grid lacks " + s.cache_key());
    return *it->second;
  }

 private:
  std::unordered_map<std::string, const ScenarioResult*> by_key_;
};

template <typename Fn>
double mean_over_cnns(Fn fn) {
  const auto nets = models::evaluated_network_names();
  double s = 0;
  for (const std::string& net : nets) s += fn(net);
  return s / static_cast<double>(nets.size());
}

struct LedgerRow {
  std::string figure, metric;
  double paper_lo, paper_hi;  ///< a published point has lo == hi
  double reproduced;
  const char* note;

  /// Distance from the published value (or the nearest end of the
  /// published range) as a fraction of that value.
  double gap() const {
    if (reproduced >= paper_lo && reproduced <= paper_hi) return 0;
    const double end = reproduced < paper_lo ? paper_lo : paper_hi;
    const double scale = end != 0 ? std::fabs(end) : paper_hi - paper_lo;
    return std::fabs(reproduced - end) / scale;
  }
};

std::vector<LedgerRow> paper_ledger(const ResultIndex& ix) {
  std::vector<LedgerRow> rows;
  auto at10 = [&](const std::string& net, ExecConfig cfg,
                  const arch::MemoryConfig& mem) -> const sim::StepResult& {
    return ix.at(point(net, cfg, 10, mem)).step;
  };
  const arch::MemoryConfig hbm2 = arch::hbm2();
  rows.push_back(
      {"abstract", "DRAM traffic reduction, MBS2 vs Baseline [%]", 75, 75,
       100 * mean_over_cnns([&](const std::string& n) {
         return 1 - at10(n, ExecConfig::kMbs2, hbm2).dram_bytes /
                        at10(n, ExecConfig::kBaseline, hbm2).dram_bytes;
       }),
       ""});
  rows.push_back(
      {"abstract", "performance gain, MBS2 vs Baseline [%]", 53, 53,
       100 * mean_over_cnns([&](const std::string& n) {
         return at10(n, ExecConfig::kBaseline, hbm2).time_s /
                    at10(n, ExecConfig::kMbs2, hbm2).time_s -
                1;
       }),
       ""});
  rows.push_back(
      {"abstract", "energy reduction, MBS2 vs Baseline [%]", 26, 26,
       100 * mean_over_cnns([&](const std::string& n) {
         return 1 - at10(n, ExecConfig::kMbs2, hbm2).energy.total() /
                        at10(n, ExecConfig::kBaseline, hbm2).energy.total();
       }),
       ""});
  auto lpddr4_loss = [&](ExecConfig cfg) {
    return 100 * (1 - ix.at(fig12_point(cfg, arch::hbm2_x2())).step.time_s /
                          ix.at(fig12_point(cfg, arch::lpddr4())).step.time_s);
  };
  rows.push_back({"Fig. 12", "ResNet50 Baseline loss, HBM2x2 -> LPDDR4 [%]",
                  40, 40, lpddr4_loss(ExecConfig::kBaseline), "known gap"});
  rows.push_back({"Fig. 12", "ResNet50 MBS2 loss, HBM2x2 -> LPDDR4 [%]", 0,
                  15, lpddr4_loss(ExecConfig::kMbs2), ""});
  for (const char* net : {"resnet50", "resnet101", "resnet152",
                          "inception_v3"}) {
    const double gpu = ix.at(gpu_point(net)).step.time_s;
    double speedup = 0;
    const auto mems = {arch::hbm2_x2(), arch::gddr5(), arch::hbm2(),
                       arch::lpddr4()};
    for (const arch::MemoryConfig& mem : mems)
      speedup += gpu / at10(net, ExecConfig::kMbs2, mem).time_s;
    rows.push_back({"Fig. 13",
                    std::string(net) +
                        " speedup over V100, mean of 4 memories [x]",
                    1.06, 1.27, speedup / static_cast<double>(mems.size()),
                    "known gap"});
  }
  const std::pair<ExecConfig, double> fig14[] = {
      {ExecConfig::kBaseline, 0.538}, {ExecConfig::kArchOpt, 0.815},
      {ExecConfig::kMbsFs, 0.667},    {ExecConfig::kMbs1, 0.786},
      {ExecConfig::kMbs2, 0.786}};
  for (const auto& [cfg, paper] : fig14)
    rows.push_back({"Fig. 14",
                    std::string("average utilization, ") +
                        sched::to_string(cfg),
                    paper, paper, mean_over_cnns([&](const std::string& n) {
                      return ix.at(nobw_point(n, cfg)).step.systolic_utilization;
                    }),
                    "known gap"});
  return rows;
}

double print_ledger(const std::vector<LedgerRow>& rows) {
  std::printf("\npaper-fidelity ledger (gap = |reproduced - paper| / paper; "
              "ranges use the nearest end):\n");
  std::printf("%-9s %-55s %13s %11s %8s  %s\n", "figure", "metric", "paper",
              "reproduced", "gap [%]", "note");
  double total = 0;
  for (const LedgerRow& r : rows) {
    char paper[32];
    if (r.paper_lo == r.paper_hi)
      std::snprintf(paper, sizeof paper, "%g", r.paper_lo);
    else
      std::snprintf(paper, sizeof paper, "%g-%g", r.paper_lo, r.paper_hi);
    std::printf("%-9s %-55s %13s %11.4f %8.2f  %s\n", r.figure.c_str(),
                r.metric.c_str(), paper, r.reproduced, 100 * r.gap(), r.note);
    total += r.gap();
  }
  const double pct = 100 * total / static_cast<double>(rows.size());
  std::printf("paper_gap_pct (mean gap over %zu rows) = %.6f\n\n",
              rows.size(), pct);
  return pct;
}

/// model.*: deterministic modelled values per Tab. 3 configuration, means
/// over the six evaluated CNNs at 10 MiB on HBM2 (utilization in Fig. 14's
/// nobw mode).
void add_model_metrics(const ResultIndex& ix, Report& rep) {
  const std::pair<ExecConfig, const char*> cfgs[] = {
      {ExecConfig::kBaseline, "baseline"}, {ExecConfig::kArchOpt, "archopt"},
      {ExecConfig::kIL, "il"},             {ExecConfig::kMbsFs, "mbs_fs"},
      {ExecConfig::kMbs1, "mbs1"},         {ExecConfig::kMbs2, "mbs2"}};
  auto at10 = [&](const std::string& n, ExecConfig c) -> const ScenarioResult& {
    return ix.at(point(n, c, 10, arch::hbm2()));
  };
  for (const auto& [cfg, name] : cfgs) {
    const std::string sfx = std::string(".") + name;
    rep.add("model.dram_gib" + sfx, mean_over_cnns([&](const std::string& n) {
              return at10(n, cfg).step.dram_bytes / kGiB;
            }),
            "GiB");
    rep.add("model.step_ms" + sfx, mean_over_cnns([&](const std::string& n) {
              return at10(n, cfg).step.time_s * 1e3;
            }),
            "ms_modelled");
    rep.add("model.util" + sfx, mean_over_cnns([&](const std::string& n) {
              return ix.at(nobw_point(n, cfg)).step.systolic_utilization;
            }),
            "ratio");
    rep.add("model.energy_j" + sfx, mean_over_cnns([&](const std::string& n) {
              return at10(n, cfg).step.energy.total();
            }),
            "J");
  }
  const std::pair<sched::TrafficClass, const char*> classes[] = {
      {sched::TrafficClass::kInput, "input"},
      {sched::TrafficClass::kFeature, "feature"},
      {sched::TrafficClass::kGradient, "gradient"},
      {sched::TrafficClass::kWeight, "weight"},
      {sched::TrafficClass::kWgradPartial, "wgrad_partial"},
      {sched::TrafficClass::kStash, "stash"},
      {sched::TrafficClass::kMask, "mask"}};
  for (const auto& [cls, name] : classes)
    rep.add(std::string("model.mbs2_dram_gib.") + name,
            mean_over_cnns([&](const std::string& n) {
              return at10(n, ExecConfig::kMbs2)
                         .traffic->dram_bytes_by_class(cls) /
                     kGiB;
            }),
            "GiB");
  for (arch::Dataflow df : kDataflows)
    rep.add(std::string("model.stall_frac.") + arch::to_string(df),
            mean_over_cnns([&](const std::string& n) {
              const auto& r = ix.at(systolic_twin(
                  point(n, ExecConfig::kMbs2, 10, arch::hbm2()), df));
              return r.systolic.stall_time_s / r.systolic.time_s;
            }),
            "ratio");
}

// ---- Correctness checks of the cold sweep ---------------------------------

/// A seeded sample of the grid evaluated serially by evaluate_scenario on
/// a fresh in-memory Evaluator must match the threaded sweep bit for bit,
/// and every systolic scenario must move exactly the DRAM bytes of its
/// analytic (WaveCore) twin.
void check_sweep(const std::vector<Scenario>& grid,
                 const std::vector<std::string>& answers,
                 const ResultIndex& ix, std::uint64_t seed, Report& rep) {
  engine::Evaluator serial;
  util::Rng rng(seed ^ 0x5e41a1ull);
  int mismatches = 0;
  for (int k = 0; k < 32; ++k) {
    const std::size_t i = rng.uniform_int(grid.size());
    const bool ok = engine::ServeCore::format_answer(
                        grid[i], engine::evaluate_scenario(grid[i], serial)) ==
                    answers[i];
    mismatches += !ok;
    rep.check(ok);
  }
  int twins = 0, twin_mismatches = 0;
  for (const Scenario& s : grid) {
    if (s.device != Device::kSystolic) continue;
    Scenario twin = s;
    twin.device = Device::kWaveCore;
    twin.systolic = {};
    const bool ok = ix.at(s).systolic.dram_bytes == ix.at(twin).step.dram_bytes;
    ++twins;
    twin_mismatches += !ok;
    rep.check(ok);
  }
  std::printf("check: 32 serial samples, %d mismatches; %d systolic/analytic "
              "DRAM twins, %d mismatches\n",
              mismatches, twins, twin_mismatches);
}

// ---- The staged (traced) sweep --------------------------------------------

struct PassStats {
  double wall = 0;
  double busy = 0;       ///< summed unit time across workers
  double max_group = 0;  ///< slowest schedule group
};

/// The grid evaluated by a fresh storeless Evaluator one stage call at a
/// time, with a span around each call: networks first, then one unit per
/// schedule key (schedule, traffic, then every member's step), then the GPU
/// points, in SweepRunner's grouping. A stage's own calls to earlier stages
/// are memo hits by then, so each span times the stage it names. Returns
/// the answers in grid order and fills the per-pass numbers.
std::vector<std::string> staged_pass(const std::vector<Scenario>& grid,
                                     PassStats& ps) {
  const engine::SweepRunner runner;
  engine::Evaluator eval;
  Span pass("engine.sweep.pass");
  const std::int64_t pass_id = pass.id();

  std::set<std::string> net_keys;
  std::vector<const Scenario*> net_owner;  // first scenario of each network
  std::vector<std::vector<std::size_t>> groups;
  std::unordered_map<std::string, std::size_t> group_index;
  std::vector<std::size_t> gpu;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Scenario& s = grid[i];
    if (net_keys.insert(s.network_key()).second) net_owner.push_back(&s);
    if (s.device == Device::kGpu) {
      gpu.push_back(i);
      continue;
    }
    auto [it, fresh] = group_index.emplace(s.schedule_key(), groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].push_back(i);
  }

  const std::size_t n_nets = net_owner.size();
  std::vector<double> unit_s(n_nets + groups.size() + gpu.size());
  runner.for_each_index(static_cast<int>(n_nets), [&](int k) {
    Span sp("models.make_network", pass_id);
    eval.network(*net_owner[static_cast<std::size_t>(k)]);
    unit_s[static_cast<std::size_t>(k)] = sp.stop();
  });
  runner.for_each_index(static_cast<int>(groups.size()), [&](int gi) {
    const std::size_t g = static_cast<std::size_t>(gi);
    Span unit("engine.group", pass_id);
    const Scenario& first = grid[groups[g][0]];
    {
      Span sp("sched.build_schedule");
      eval.schedule(first);
    }
    {
      Span sp("sched.compute_traffic");
      eval.traffic(first);
    }
    for (std::size_t i : groups[g]) {
      const Scenario& s = grid[i];
      if (s.device == Device::kSystolic) {
        Span sp("arch.simulate_systolic_step");
        eval.systolic_step(s);
      } else {
        Span sp("sim.simulate_step");
        eval.step(s);
      }
    }
    unit_s[n_nets + g] = unit.stop();
  });
  runner.for_each_index(static_cast<int>(gpu.size()), [&](int k) {
    Span sp("arch.simulate_gpu_step", pass_id);
    eval.gpu_step(grid[gpu[static_cast<std::size_t>(k)]]);
    unit_s[n_nets + groups.size() + static_cast<std::size_t>(k)] = sp.stop();
  });
  ps.wall = pass.stop();
  ps.busy = sum(unit_s);
  ps.max_group = 0;
  for (std::size_t g = 0; g < groups.size(); ++g)
    ps.max_group = std::max(ps.max_group, unit_s[n_nets + g]);

  // Every stage is memoized now: this only gathers the answers.
  std::vector<ScenarioResult> results;
  results.reserve(grid.size());
  for (const Scenario& s : grid)
    results.push_back(engine::evaluate_scenario(s, eval));
  return answers_of(results);
}

/// Adds p50 (and optionally p99) of a span's durations in `scale` units.
void add_span_quantiles(const char* span, const std::string& metric,
                        double scale, const char* unit, bool p99,
                        Report& rep) {
  const std::vector<double> d = Tracer::instance().durations(span);
  rep.add(metric + ".p50", median(d) * scale, unit);
  if (p99) rep.add(metric + ".p99", quantile(d, 0.99) * scale, unit);
}

/// Wall times of the staged passes, untraced and traced, and the traced
/// passes' worker efficiency and slowest group.
struct StagedPasses {
  std::vector<double> plain, traced, eff, max_group;
};

/// One untraced and one traced staged pass; both must give the sweep's
/// answers.
void staged_pass_pair(const std::vector<Scenario>& grid,
                      const std::vector<std::string>& reference,
                      StagedPasses& acc, Report& rep) {
  Tracer& tracer = Tracer::instance();
  for (int on = 0; on < 2; ++on) {
    PassStats ps;
    tracer.set_on(on == 1);
    const std::vector<std::string> answers = staged_pass(grid, ps);
    tracer.set_on(false);
    (on ? acc.traced : acc.plain).push_back(ps.wall);
    if (on) {
      acc.eff.push_back(ps.busy / (ps.wall * util::thread_budget()));
      acc.max_group.push_back(ps.max_group);
    }
    int bad = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const bool ok = answers[i] == reference[i];
      bad += !ok;
      rep.check(ok);
    }
    if (bad)
      std::printf("check: staged pass disagrees with the sweep on %d "
                  "scenarios\n", bad);
  }
}

void add_staged_metrics(const StagedPasses& acc, Report& rep) {
  const Tracer& tracer = Tracer::instance();
  const double passes = static_cast<double>(acc.traced.size());
  auto per_pass = [&](const char* span) {
    return sum(tracer.durations(span)) / passes;
  };
  auto count_per_pass = [&](const char* span) {
    return static_cast<double>(tracer.durations(span).size()) / passes;
  };
  rep.add("models.make_network_ms",
          median(tracer.durations("models.make_network")) * 1e3, "ms");
  add_span_quantiles("sched.build_schedule", "sched.build_schedule_ms", 1e3,
                     "ms", true, rep);
  rep.add("sched.build_schedule_s", per_pass("sched.build_schedule"), "s");
  rep.add("sched.schedules", count_per_pass("sched.build_schedule"), "count");
  add_span_quantiles("sched.compute_traffic", "sched.compute_traffic_ms", 1e3,
                     "ms", false, rep);
  rep.add("sched.compute_traffic_s", per_pass("sched.compute_traffic"), "s");
  add_span_quantiles("sim.simulate_step", "sim.step_us", 1e6, "us", false,
                     rep);
  rep.add("sim.step_s", per_pass("sim.simulate_step"), "s");
  rep.add("sim.steps", count_per_pass("sim.simulate_step"), "count");
  add_span_quantiles("arch.simulate_systolic_step", "arch.systolic_us", 1e6,
                     "us", false, rep);
  rep.add("arch.systolic_s", per_pass("arch.simulate_systolic_step"), "s");
  rep.add("arch.systolic_steps",
          count_per_pass("arch.simulate_systolic_step"), "count");
  add_span_quantiles("arch.simulate_gpu_step", "arch.gpu_us", 1e6, "us",
                     false, rep);
  rep.add("engine.sweep.parallel_eff", median(acc.eff), "ratio");
  rep.add("engine.sweep.max_group_ms", median(acc.max_group) * 1e3, "ms");
  rep.overhead_pct.push_back(overhead_pct(acc.plain, acc.traced));
}

/// Writes a sweep's results into a new store at `path` through the public
/// put_* calls (each distinct key once) and saves it. Returns the store's
/// save failures, or -1 when save() itself failed.
long put_and_save(const std::vector<ScenarioResult>& rs,
                  const std::string& path) {
  engine::CacheStore store(path);
  std::set<std::string> nets, schedules;
  for (const ScenarioResult& r : rs) {
    const Scenario& s = r.scenario;
    if (nets.insert(s.network_key()).second)
      store.put_network(s.network_key(), *r.network);
    if (s.device == Device::kGpu) {
      store.put_gpu_step(s.cache_key(), r.gpu);
      continue;
    }
    if (schedules.insert(s.schedule_key()).second) {
      store.put_schedule(s.schedule_key(), *r.schedule);
      store.put_traffic(s.schedule_key(), *r.traffic);
    }
    if (s.device == Device::kSystolic)
      store.put_systolic_step(s.cache_key(), r.systolic);
    else
      store.put_step(s.cache_key(), r.step);
  }
  return store.save() ? static_cast<long>(store.save_failures()) : -1;
}

/// Keys grid scenarios: the CPU probe of the sweeps' and saves' pinning.
std::size_t key_probe(const std::vector<Scenario>& grid) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(300, grid.size()); ++i)
    n += grid[i].cache_key().size();
  return n;
}

/// Stage `sweep_cold`. Set-up and the first sweep happen at construction,
/// so the later stages find the store; each round sweeps again (traced:
/// staged pass pairs and timed saves).
class ColdStage : public Stage {
 public:
  ColdStage(const Options& opt, SweepState& state, Report& rep)
      : opt_(opt), state_(state), rep_(rep) {
    // Set-up, nine times after an untimed one, each on this thread alone
    // pinned to the fastest CPU: the grid, a fresh Evaluator, and the zoo
    // networks the grid names built into it.
    state.grid = design_grid(opt.seed);
    std::vector<double> setups;
    for (int i = 0; i < 9; ++i) {
      CpuPinner pinner;
      pinner.pin_fastest([&] { sink_ += key_probe(state.grid); });
      const auto t0 = std::chrono::steady_clock::now();
      state.grid = design_grid(opt.seed);
      engine::Evaluator eval;
      for (const Scenario& s : state.grid) eval.network(s);
      setups.push_back(seconds_since(t0));
    }
    rep.setup_s += median(setups);
    std::printf("sweep_cold: %zu scenarios\n", state.grid.size());

    // The first sweep's Evaluator and results are kept: they feed the
    // checks, the ledger, the saves and the later stages' expected answers.
    state.eval = std::make_unique<engine::Evaluator>();
    state.results = sweep(*state.eval);
    state.reference = answers_of(state.results);
    state.cold_stats = state.eval->stats();
    const ResultIndex ix(state.results);
    check_sweep(state.grid, state.reference, ix, opt.seed, rep);
    gap_ = print_ledger(paper_ledger(ix));
    if (opt.trace) add_model_metrics(ix, rep);
    state.store_path = opt.work_dir + "/store/evaluator.mbscache";
    const long failures = put_and_save(state.results, state.store_path);
    rep.check(failures == 0);
    state.save_failures = failures < 0 ? 0 : static_cast<std::size_t>(failures);
  }

  void round(double seconds) override {
    const auto start = std::chrono::steady_clock::now();
    if (!opt_.trace) {
      do {
        engine::Evaluator fresh;
        rep_.check(answers_of(sweep(fresh)) == state_.reference);
      } while (seconds_since(start) < seconds);
      return;
    }
    // Traced: staged pass pairs for half the round, then saves into an
    // empty directory (store.save_s).
    do {
      staged_pass_pair(state_.grid, state_.reference, passes_, rep_);
    } while (seconds_since(start) < seconds / 2);
    do {
      const std::string dir = opt_.work_dir + "/save";
      sync_file_system(opt_.work_dir);
      CpuPinner pinner;
      pinner.pin_fastest([&] { sink_ += key_probe(state_.grid); });
      Span save("cache_store.save");
      const long failures =
          put_and_save(state_.results, dir + "/evaluator.mbscache");
      save_s_.push_back(save.stop());
      rep_.check(failures == 0);
      remove_tree(dir);
    } while (seconds_since(start) < seconds);
  }

  void finish() override {
    rep_.check(sink_ > 0);
    if (opt_.trace) {
      add_staged_metrics(passes_, rep_);
      std::printf("sweep_cold: %zu saves, %.3f/%.3f/%.3f s min/median/max\n",
                  save_s_.size(), quantile(save_s_, 0), median(save_s_),
                  quantile(save_s_, 1));
      rep_.add("store.save_s", quantile(save_s_, kReportQuantile), "s");
      return;
    }
    std::printf("sweep_cold: %zu sweeps, %.3f/%.3f/%.3f s min/median/max\n",
                sweep_s_.size(), quantile(sweep_s_, 0), median(sweep_s_),
                quantile(sweep_s_, 1));
    rep_.add("paper_gap_pct", gap_, "%");
    rep_.add("scenarios_per_s_cold",
             static_cast<double>(state_.grid.size()) /
                 quantile(sweep_s_, kReportQuantile),
             "1/s");
  }

 private:
  /// One timed sweep. A one-thread sweep runs on this thread, kept on the
  /// fastest CPU; a threaded one is never pinned, since its workers would
  /// inherit the one-CPU mask.
  std::vector<ScenarioResult> sweep(engine::Evaluator& eval) {
    CpuPinner pinner;
    if (util::thread_budget() == 1)
      pinner.pin_fastest([&] { sink_ += key_probe(state_.grid); });
    Span sp("engine.sweep.run");
    std::vector<ScenarioResult> rs = runner_.run(state_.grid, eval);
    sweep_s_.push_back(sp.stop());
    return rs;
  }

  const Options opt_;
  SweepState& state_;
  Report& rep_;
  const engine::SweepRunner runner_;
  double gap_ = 0;
  std::size_t sink_ = 0;
  std::vector<double> sweep_s_, save_s_;
  StagedPasses passes_;
};

struct StoreCounts {
  std::size_t entries = 0, loaded = 0, corrupt = 0;
};

/// Every key of every stage the grid touches, read through a fresh
/// CacheStore over the warm directory with a span per load.
StoreCounts store_load_pass(const std::vector<Scenario>& grid,
                            const std::string& path, bool traced,
                            std::vector<double>& pass_s, Report& rep) {
  engine::CacheStore store(path);
  Tracer::instance().set_on(traced);
  Span pass("store.load_pass");
  std::set<std::string> nets, schedules;
  int misses = 0;
  auto load = [&](const char* span, auto fn) {
    Span sp(span);
    misses += !fn();
  };
  for (const Scenario& s : grid) {
    if (nets.insert(s.network_key()).second)
      load("store.load.network", [&] {
        core::Network v;
        return store.load_network(s.network_key(), &v);
      });
    if (s.device == Device::kGpu) {
      load("store.load.gpu", [&] {
        arch::GpuStepResult v;
        return store.load_gpu_step(s.cache_key(), &v);
      });
      continue;
    }
    if (schedules.insert(s.schedule_key()).second) {
      load("store.load.schedule", [&] {
        sched::Schedule v;
        return store.load_schedule(s.schedule_key(), &v);
      });
      load("store.load.traffic", [&] {
        sched::Traffic v;
        return store.load_traffic(s.schedule_key(), &v);
      });
    }
    if (s.device == Device::kSystolic)
      load("store.load.systolic", [&] {
        arch::SystolicStepResult v;
        return store.load_systolic_step(s.cache_key(), &v);
      });
    else
      load("store.load.step", [&] {
        sim::StepResult v;
        return store.load_step(s.cache_key(), &v);
      });
  }
  pass_s.push_back(pass.stop());
  Tracer::instance().set_on(false);
  rep.check(misses == 0 && store.corrupt_entries() == 0);
  return {store.entry_count(), store.loaded_entries(),
          store.corrupt_entries()};
}

engine::SweepOptions one_worker() {
  engine::SweepOptions o;
  o.threads = 1;
  return o;
}

/// Stage `sweep_warm`: a fresh Evaluator over the cold sweep's store per
/// sweep. The sweeps run on one worker, this thread, kept on the fastest
/// CPU: CacheStore holds its single mutex across each entry's file read
/// and parse, so more workers only queue on it (2 and 4 workers ran 10-20%
/// slower than one and spread more from sweep to sweep).
class WarmStage : public Stage {
 public:
  WarmStage(const Options& opt, const SweepState& state, Report& rep)
      : opt_(opt), state_(state), rep_(rep) {
    std::printf("sweep_warm: %zu scenarios over a %.1f MB store\n",
                state.grid.size(),
                static_cast<double>(dir_bytes(state.store_path + ".d")) / 1e6);
  }

  void round(double seconds) override {
    const auto start = std::chrono::steady_clock::now();
    CpuPinner pinner;
    do {
      pinner.pin_fastest([&] { sink_ += key_probe(state_.grid); });
      engine::CacheStore store(state_.store_path);
      engine::Evaluator eval(&store);
      Span sweep("engine.sweep.run");
      const std::vector<ScenarioResult> rs = runner_.run(state_.grid, eval);
      warm_s_.push_back(sweep.stop());
      stats_ = eval.stats();
      rep_.check(computed(stats_) == 0 && answers_of(rs) == state_.reference);
      if (!opt_.trace) continue;
      // Traced: every key of the store read through a fresh CacheStore,
      // untraced and traced.
      store_load_pass(state_.grid, state_.store_path, false, plain_, rep_);
      counts_ = store_load_pass(state_.grid, state_.store_path, true, traced_,
                                rep_);
    } while (seconds_since(start) < seconds);
  }

  void finish() override {
    rep_.check(sink_ > 0);
    if (!opt_.trace) {
      std::printf("sweep_warm: %zu sweeps, %.3f/%.3f/%.3f s min/median/max\n",
                  warm_s_.size(), quantile(warm_s_, 0), median(warm_s_),
                  quantile(warm_s_, 1));
      rep_.add("scenarios_per_s_warm",
               static_cast<double>(state_.grid.size()) /
                   quantile(warm_s_, kReportQuantile),
               "1/s");
      return;
    }
    add_engine_metrics(state_.cold_stats, stats_, rep_);
    rep_.add("store.entries", static_cast<double>(counts_.entries), "count");
    rep_.add("store.loaded_entries", static_cast<double>(counts_.loaded),
             "count");
    rep_.add("store.corrupt_entries", static_cast<double>(counts_.corrupt),
             "count");
    for (const char* stage :
         {"network", "schedule", "traffic", "step", "gpu", "systolic"})
      add_span_quantiles((std::string("store.load.") + stage).c_str(),
                         std::string("store.load_us.") + stage, 1e6, "us",
                         false, rep_);
    rep_.add("store.disk_mb",
             static_cast<double>(dir_bytes(state_.store_path + ".d")) / 1e6,
             "MB");
    rep_.add("store.save_failures", static_cast<double>(state_.save_failures),
             "count");
    rep_.overhead_pct.push_back(overhead_pct(plain_, traced_));
  }

 private:
  const Options opt_;
  const SweepState& state_;
  Report& rep_;
  const engine::SweepRunner runner_{one_worker()};
  std::size_t sink_ = 0;
  std::vector<double> warm_s_, plain_, traced_;
  engine::EvaluatorStats stats_;
  StoreCounts counts_;
};

}  // namespace

std::unique_ptr<Stage> make_sweep_cold(const Options& opt, SweepState& state,
                                       Report& rep) {
  return std::make_unique<ColdStage>(opt, state, rep);
}

std::unique_ptr<Stage> make_sweep_warm(const Options& opt,
                                       const SweepState& state, Report& rep) {
  return std::make_unique<WarmStage>(opt, state, rep);
}

}  // namespace mbs::perf
