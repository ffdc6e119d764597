// Ablation (footnote 1): greedy layer grouping vs the optimal contiguous
// partition found by dynamic programming. The paper reports the exhaustive
// search improves traffic and performance by roughly 1%. Greedy and DP
// schedules for all (network, config) pairs come from one engine sweep —
// the DP points differ only in ScheduleParams::optimal_grouping, so they
// memoize under distinct schedule keys.
#include <cstdio>
#include <iostream>

#include "engine/engine.h"
#include "models/zoo.h"

int main(int argc, char** argv) {
  using namespace mbs;
  engine::Driver driver(argc, argv);

  std::printf("=== Ablation: greedy vs optimal (DP) layer grouping "
              "(paper footnote 1: optimal is ~1%% better) ===\n\n");

  const std::vector<sched::ExecConfig> configs = {sched::ExecConfig::kMbs1,
                                                  sched::ExecConfig::kMbs2};
  std::vector<engine::Scenario> grid;
  for (const std::string& name : models::evaluated_network_names())
    for (sched::ExecConfig cfg : configs)
      for (bool optimal : {false, true}) {
        engine::Scenario s;
        s.network = name;
        s.config = cfg;
        s.params.optimal_grouping = optimal;
        s.stage = engine::Stage::kTraffic;  // no step simulation needed
        grid.push_back(std::move(s));
      }

  // One output row per (network, config): row r reads the greedy/DP pair at
  // scenarios 2*r and 2*r+1.
  const auto results = driver.run(grid);

  engine::ResultSink sink(
      "", {"network", "config", "greedy groups", "DP groups",
           "greedy DRAM [GiB]", "DP DRAM [GiB]", "DP gain"});
  for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
    const engine::ScenarioResult& greedy = results[i];
    const engine::ScenarioResult& dp = results[i + 1];
    const double tg = greedy.traffic->dram_bytes();
    const double td = dp.traffic->dram_bytes();
    sink.add_row({greedy.network->name,
                  sched::to_string(greedy.scenario.config),
                  std::to_string(greedy.schedule->groups.size()),
                  std::to_string(dp.schedule->groups.size()),
                  util::fmt(tg / (1024.0 * 1024 * 1024), 3),
                  util::fmt(td / (1024.0 * 1024 * 1024), 3),
                  util::fmt(100.0 * (tg - td) / tg, 2) + "%"});
  }
  sink.print(std::cout);
  sink.export_files("ablation_grouping");
  return 0;
}
