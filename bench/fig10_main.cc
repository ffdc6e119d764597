// Fig. 10: per-training-step execution time (a), energy (b) and DRAM
// traffic (c) for the six evaluated CNNs under the six Tab. 3
// configurations. Bars in the paper are absolute values; lines are values
// normalized to Baseline (time, energy) and to ArchOpt (traffic).
//
// The 36-scenario grid runs through the parallel experiment engine: each
// network is built once and each (network, config) schedule is computed
// once, shared across the sweep threads.
#include <cstdio>
#include <iostream>

#include "engine/engine.h"
#include "models/zoo.h"
#include "util/units.h"

int main(int argc, char** argv) {
  using namespace mbs;
  engine::Driver driver(argc, argv);

  const std::vector<sched::ExecConfig> configs = sched::paper_tab3_configs();
  const std::vector<engine::Scenario> grid =
      engine::scenario_grid(models::evaluated_network_names(), configs);

  const auto results = driver.run(grid);

  std::printf("=== Fig. 10: per-step time / energy / DRAM traffic "
              "(WaveCore, HBM2, mini-batch 32/core; AlexNet 64) ===\n\n");

  engine::ResultSink time_sink(
      "Fig. 10a: execution time per training step",
      {"network", "config", "time [ms]", "vs Baseline", "vs ArchOpt"});
  engine::ResultSink energy_sink(
      "Fig. 10b: energy per training step",
      {"network", "config", "energy [J]", "vs Baseline", "DRAM share"});
  engine::ResultSink traffic_sink(
      "Fig. 10c: DRAM traffic per training step",
      {"network", "config", "DRAM [GiB]", "vs ArchOpt"});

  const std::size_t ncfg = configs.size();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const engine::ScenarioResult& r = results[i];
    // Rows are network-major: the network's Baseline and ArchOpt rows sit at
    // the start of its stripe.
    const std::size_t base = i - i % ncfg;
    const sim::StepResult& baseline = results[base].step;
    const sim::StepResult& archopt = results[base + 1].step;

    time_sink.add_row({r.network->name, sched::to_string(r.scenario.config),
                       util::fmt(r.step.time_s * 1e3, 2),
                       util::fmt(baseline.time_s / r.step.time_s, 2),
                       i % ncfg >= 1
                           ? util::fmt(archopt.time_s / r.step.time_s, 2)
                           : "-"});
    energy_sink.add_row(
        {r.network->name, sched::to_string(r.scenario.config),
         util::fmt(r.step.energy.total(), 2),
         util::fmt(r.step.energy.total() / baseline.energy.total(), 2),
         util::fmt(r.step.energy.dram_fraction() * 100, 1) + "%"});
    traffic_sink.add_row(
        {r.network->name, sched::to_string(r.scenario.config),
         util::fmt(r.step.dram_bytes / static_cast<double>(util::kGiB), 2),
         i % ncfg >= 1 ? util::fmt(r.step.dram_bytes / archopt.dram_bytes, 2)
                       : "-"});
  }

  time_sink.print(std::cout);
  std::printf("\n");
  energy_sink.print(std::cout);
  std::printf("\n");
  traffic_sink.print(std::cout);
  time_sink.export_files("fig10_time");
  energy_sink.export_files("fig10_energy");
  traffic_sink.export_files("fig10_traffic");
  return 0;
}
