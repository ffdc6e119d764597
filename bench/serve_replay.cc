// Traffic replay against the serve layer: thousands of mixed hot / warm /
// cold Scenario queries fired at a ServeCore over this run's cache store,
// reporting per-class latency percentiles (p50/p99/max), hit rates, and —
// the property everything else rests on — that every served answer is
// bit-identical to the batch Evaluator's result for the same Scenario key
// (the answers are %.17g-rendered, so string equality is double-bit
// equality; any mismatch fails the run).
//
// Query mix (deterministic SplitMix64 trace, seed fixed): 90% of queries
// draw from a 12-key hot set (they stay resident in the LRU), 9% from the
// 42-key warm tail (mostly evicted between visits: exercises the
// store-hit tier), 1% from cold keys outside the pre-warmed grid
// (exercises the compute tier and the write-through path). The replay
// summary table (counts, hit rates, verification, answer fingerprint) is
// deterministic; the latency table below it is wall-clock and is not.
//
// Usage: serve_replay
//   MBS_REPLAY_QUERIES=N   queries to fire (default 4000)
//   MBS_SERVE_HOT=N        ServeCore LRU capacity (default 32)
// The answers-fingerprint line is the cross-run identity check: it must
// not move across MBS_THREADS settings, warm vs cold stores, or spool
// drains (the sweep-service CI job asserts this).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/serve.h"
#include "models/zoo.h"
#include "util/env.h"
#include "util/fnv.h"
#include "util/rng.h"
#include "util/units.h"

namespace {

struct ClassStats {
  std::vector<double> latencies_us;
  std::size_t queries = 0;
  std::size_t hot_hits = 0;

  void record(double us, bool hot) {
    latencies_us.push_back(us);
    ++queries;
    if (hot) ++hot_hits;
  }

  double percentile(double p) {
    if (latencies_us.empty()) return 0;
    std::sort(latencies_us.begin(), latencies_us.end());
    std::size_t i = static_cast<std::size_t>(p * (latencies_us.size() - 1));
    return latencies_us[i];
  }
};

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mbs;
  engine::Driver driver(argc, argv);

  const long n_queries =
      util::env_int("MBS_REPLAY_QUERIES", 4000, 1, 100000000);
  const std::size_t hot_capacity = static_cast<std::size_t>(
      util::env_int("MBS_SERVE_HOT", 32, 1, 1 << 24));

  // ---- Key space. Specs are the ground truth; the warm grid is parsed
  // from them so the served and batch sides share one Scenario per spec.
  const std::vector<std::string> networks = models::evaluated_network_names();
  std::vector<std::string> specs;        // warm keys: served AND pre-warmed
  std::vector<std::string> cold_specs;   // cold keys: served, never warmed
  for (const std::string& net : networks)
    for (const char* cfg : {"MBS1", "MBS2"})
      for (long mib : {8, 16})
        specs.push_back("net=" + net + ";cfg=" + std::string(cfg) +
                        ";buf=" + std::to_string(mib * 1024 * 1024));
  for (const std::string& net : networks)
    for (long mib : {8, 16})
      specs.push_back("net=" + net + ";cfg=MBS2;dev=systolic;buf=" +
                      std::to_string(mib * 1024 * 1024));
  for (const std::string& net : networks) specs.push_back("net=" + net + ";dev=gpu");
  for (const std::string& net : networks)
    specs.push_back("net=" + net + ";cfg=MBS2;stage=traffic;buf=" +
                    std::to_string(8 * 1024 * 1024));
  for (const std::string& net : networks)
    cold_specs.push_back("net=" + net + ";cfg=MBS2;buf=" +
                         std::to_string(12 * 1024 * 1024));

  std::vector<engine::Scenario> grid;
  std::vector<engine::Scenario> all_scenarios;  // warm + cold, spec order
  for (const std::vector<std::string>* list : {&specs, &cold_specs})
    for (const std::string& spec : *list) {
      engine::Scenario s;
      std::string error;
      if (!engine::parse_scenario(spec, &s, &error)) {
        std::fprintf(stderr, "serve_replay: bad spec '%s': %s\n",
                     spec.c_str(), error.c_str());
        return 1;
      }
      all_scenarios.push_back(s);
      if (list == &specs) grid.push_back(s);
    }

  // ---- Warm phase: batch-evaluate the warm grid through the driver (the
  // normal sweep path: schedule groups, thread pool, cache store), then
  // flush so the serve tiers below start from a genuinely warm store.
  driver.run(grid);
  if (driver.store()) driver.store()->save();

  // ---- Expected answers: an INDEPENDENT in-memory batch Evaluator (no
  // store — it must not warm the one the serve path reads) computes every
  // spec, rendered by the same formatter the serve path uses. Cold specs
  // therefore genuinely exercise ServeCore's compute tier below.
  engine::Evaluator ref_eval;
  std::vector<std::string> expected;
  for (const engine::Scenario& s : all_scenarios)
    expected.push_back(engine::ServeCore::format_answer(
        s, engine::evaluate_scenario(s, ref_eval)));

  // ---- Replay. Classes: hot = first 12 warm specs (90% of draws), warm
  // tail = the rest of the warm grid (9%), cold = outside the grid (1%).
  const std::size_t n_hot = 12;
  engine::ServeCore core(driver.store(), hot_capacity);
  util::Rng rng(42);  // fixed seed: the trace is part of the bench
  ClassStats cls[3];
  const char* cls_name[3] = {"hot", "warm-tail", "cold"};
  std::uint64_t fingerprint = util::fnv1a64("serve-replay-v1");
  long mismatches = 0;

  for (long q = 0; q < n_queries; ++q) {
    const double draw = rng.uniform();
    int c;
    std::size_t idx;
    if (draw < 0.90) {
      c = 0;
      idx = rng.uniform_int(n_hot);
    } else if (draw < 0.99) {
      c = 1;
      idx = n_hot + rng.uniform_int(specs.size() - n_hot);
    } else {
      c = 2;
      idx = specs.size() + rng.uniform_int(cold_specs.size());
    }
    const std::string& spec =
        c == 2 ? cold_specs[idx - specs.size()] : specs[idx];
    const auto t0 = std::chrono::steady_clock::now();
    const engine::ServeCore::Answer a = core.query(spec);
    const auto t1 = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    cls[c].record(us, a.source == engine::ServeCore::Source::kHot);
    if (!a.ok || a.text != expected[idx]) {
      ++mismatches;
      if (mismatches <= 5)
        std::fprintf(stderr,
                     "serve_replay: MISMATCH on '%s'\n  served:   %s\n"
                     "  expected: %s\n",
                     spec.c_str(), a.text.c_str(), expected[idx].c_str());
    }
    fingerprint = util::fnv1a64(a.text, fingerprint);
  }

  const engine::ServeStats st = core.stats();
  const double hot_rate =
      cls[0].queries ? static_cast<double>(cls[0].hot_hits) /
                           static_cast<double>(cls[0].queries)
                     : 0.0;

  // ---- Deterministic replay summary (fixed trace => fixed counts).
  engine::ResultSink summary(
      "serve_replay: deterministic replay summary",
      {"metric", "value"});
  summary.add_row({"queries", std::to_string(st.queries)});
  summary.add_row({"hot_class_queries", std::to_string(cls[0].queries)});
  summary.add_row({"warm_tail_queries", std::to_string(cls[1].queries)});
  summary.add_row({"cold_queries", std::to_string(cls[2].queries)});
  summary.add_row({"lru_hits", std::to_string(st.hot_hits)});
  summary.add_row({"store_hits", std::to_string(st.store_hits)});
  summary.add_row({"computed", std::to_string(st.computed)});
  char rate_buf[32];
  std::snprintf(rate_buf, sizeof rate_buf, "%.4f", hot_rate);
  summary.add_row({"hot_query_hit_rate", rate_buf});
  summary.add_row({"answers_verified",
                   std::to_string(st.queries - static_cast<std::size_t>(
                                                   mismatches)) +
                       "/" + std::to_string(st.queries)});
  char fp_buf[32];
  std::snprintf(fp_buf, sizeof fp_buf, "%016llx",
                static_cast<unsigned long long>(fingerprint));
  summary.add_row({"answers_fingerprint", fp_buf});
  summary.print(std::cout);
  summary.export_files("serve_replay_summary");

  // ---- Latency table (wall-clock: NOT byte-stable run to run).
  engine::ResultSink lat("serve_replay: latency by class (microseconds)",
                         {"class", "queries", "p50_us", "p99_us", "max_us"});
  for (int c = 0; c < 3; ++c) {
    lat.add_row({cls_name[c], std::to_string(cls[c].queries),
                 fmt(cls[c].percentile(0.50)), fmt(cls[c].percentile(0.99)),
                 fmt(cls[c].percentile(1.0))});
  }
  lat.print(std::cout);
  lat.export_files("serve_replay");

  std::printf("\nserve_replay: %s — %ld/%ld answers bit-identical to the "
              "batch evaluator, hot-query hit rate %.1f%%\n",
              mismatches == 0 && hot_rate >= 0.95 ? "PASS" : "FAIL",
              static_cast<long>(st.queries) - mismatches,
              static_cast<long>(st.queries), 100.0 * hot_rate);
  return (mismatches == 0 && hot_rate >= 0.95) ? 0 : 1;
}
