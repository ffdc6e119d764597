// Ablation of the individual MBS design choices DESIGN.md calls out:
//   (1) inter-branch reuse (MBS2 vs MBS1) — Sec. 1 claims +20% traffic
//       without it;
//   (2) the 1-bit ReLU gradient masks (Sec. 3) — traffic attributable to
//       activation stashing vs masks;
//   (3) the weight-gradient partial-sum overhead of serialization (Sec. 3
//       "Data Synchronization").
// One engine sweep provides every schedule/traffic pair; the MBS2 results
// are shared between parts (1), (2) and (3) through the evaluator cache.
#include <cstdio>
#include <iostream>

#include "engine/engine.h"
#include "models/zoo.h"

int main(int argc, char** argv) {
  using namespace mbs;
  using sched::TrafficClass;
  engine::Driver driver(argc, argv);

  const std::vector<std::string> all_nets = models::evaluated_network_names();
  const auto grid = engine::scenario_grid(
      all_nets, {sched::ExecConfig::kMbs1, sched::ExecConfig::kMbs2}, {}, {},
      engine::Stage::kTraffic);
  // Tables (1) and (2) emit one row per network; row ni reads the MBS1/MBS2
  // pair at scenarios 2*ni and 2*ni+1.
  const auto results = driver.run(grid);

  std::printf("=== Ablation: MBS feature contributions ===\n\n");

  engine::ResultSink t1(
      "(1) inter-branch reuse: MBS1 traffic relative to MBS2 "
      "(paper: ~1.2x without it)",
      {"network", "MBS1 [GiB]", "MBS2 [GiB]", "MBS1/MBS2"});
  for (std::size_t ni = 0; ni < all_nets.size(); ++ni) {
    const double m1 = results[ni * 2].traffic->dram_bytes();
    const double m2 = results[ni * 2 + 1].traffic->dram_bytes();
    t1.add_row({results[ni * 2].network->name,
                util::fmt(m1 / (1024.0 * 1024 * 1024), 2),
                util::fmt(m2 / (1024.0 * 1024 * 1024), 2),
                util::fmt(m1 / m2, 2)});
  }
  t1.print(std::cout);
  t1.export_files("ablation_inter_branch");

  engine::ResultSink t2(
      "(2) ReLU 1-bit masks: mask traffic vs the 16b activation re-reads "
      "they replace",
      {"network", "mask traffic [MiB]", "16b equivalent [MiB]", "savings"});
  for (std::size_t ni = 0; ni < all_nets.size(); ++ni) {
    const sched::Traffic& traffic = *results[ni * 2 + 1].traffic;  // MBS2
    const double mask = traffic.dram_bytes_by_class(TrafficClass::kMask);
    const double equivalent = mask * 16.0;  // 1b vs 16b per element
    t2.add_row({results[ni * 2 + 1].network->name,
                util::fmt(mask / (1024.0 * 1024), 1),
                util::fmt(equivalent / (1024.0 * 1024), 1),
                util::fmt((equivalent - mask) / (1024.0 * 1024), 1) + " MiB"});
  }
  std::printf("\n");
  t2.print(std::cout);
  t2.export_files("ablation_relu_masks");

  // Part (3) adds Baseline and MBS-FS points for two networks; the MBS2
  // points are evaluator cache hits from the sweep above.
  const auto wgrad_grid = engine::scenario_grid(
      {"resnet50", "alexnet"},
      {sched::ExecConfig::kBaseline, sched::ExecConfig::kMbsFs,
       sched::ExecConfig::kMbs2},
      {}, {}, engine::Stage::kTraffic);
  const auto wgrad_results = driver.run(wgrad_grid);

  engine::ResultSink t3(
      "(3) weight-gradient partial-sum overhead of serialization",
      {"network", "config", "iterations", "wgrad traffic [MiB]",
       "share of total"});
  for (std::size_t i = 0; i < wgrad_results.size(); ++i) {
    const engine::ScenarioResult& r = wgrad_results[i];
    const double wg =
        r.traffic->dram_bytes_by_class(TrafficClass::kWgradPartial);
    t3.add_row({r.network->name, sched::to_string(r.scenario.config),
                std::to_string(r.schedule->total_iterations()),
                util::fmt(wg / (1024.0 * 1024), 1),
                util::fmt(100.0 * wg / r.traffic->dram_bytes(), 1) + "%"});
  }
  std::printf("\n");
  t3.print(std::cout);
  t3.export_files("ablation_wgrad");
  return 0;
}
