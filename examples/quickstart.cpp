// Quickstart: schedule one network with MBS and simulate a training step.
//
//   $ ./quickstart
//
// Demonstrates the engine API every bench and example builds on:
//   1. declare Scenarios        — which network, which Tab. 3 config
//   2. engine::SweepRunner      — evaluate them (threaded, memoized)
//   3. read ScenarioResults     — network, schedule and step metrics
#include <cstdio>

#include "engine/engine.h"

int main(int argc, char** argv) {
  using namespace mbs;

  // 0. The shared driver parses the engine flags/env every binary supports
  //    (--threads, --cache-dir for warm starts, --spool-dir to share the
  //    sweep with other processes).
  engine::Driver driver(argc, argv);

  // 1. Two scenarios: conventional training vs MBS with inter-branch reuse,
  //    both on ResNet50 with the default Sec. 4.2 WaveCore.
  const auto scenarios = engine::scenario_grid(
      {"resnet50"},
      {sched::ExecConfig::kBaseline, sched::ExecConfig::kMbs2});

  // 2. One engine sweep. The evaluator builds ResNet50 once and shares it;
  //    with more scenarios the runner fans out across a thread pool.
  const auto results = driver.run(scenarios);
  const engine::ScenarioResult& rb = results[0];  // Baseline
  const engine::ScenarioResult& rm = results[1];  // MBS2

  // 3. Results: the network description, the MBS layer grouping, and the
  //    simulated step metrics.
  const core::Network& net = *rb.network;
  std::printf("network: %s (%s parameters, %.1f GFLOPs/sample)\n",
              net.name.c_str(), util::fmt_int(net.param_count()).c_str(),
              static_cast<double>(net.flops_per_sample()) / 1e9);
  std::printf("MBS formed %zu layer groups; sub-batch sizes:",
              rm.schedule->groups.size());
  for (const sched::Group& g : rm.schedule->groups)
    std::printf(" %d", g.sub_batch);
  std::printf("\n");

  std::printf("\n%-22s %12s %12s\n", "", "Baseline", "MBS2");
  std::printf("%-22s %9.1f ms %9.1f ms\n", "step time",
              rb.step.time_s * 1e3, rm.step.time_s * 1e3);
  std::printf("%-22s %9.1f GB %9.1f GB\n", "DRAM traffic",
              rb.step.dram_bytes / 1e9, rm.step.dram_bytes / 1e9);
  std::printf("%-22s %10.2f J %10.2f J\n", "energy",
              rb.step.energy.total(), rm.step.energy.total());
  std::printf("%-22s %11.0f%% %11.0f%%\n", "systolic utilization",
              100 * rb.step.systolic_utilization,
              100 * rm.step.systolic_utilization);
  std::printf("\nMBS2: %.2fx speedup, %.1fx less DRAM traffic, %.0f%% energy"
              " saved\n", rb.step.time_s / rm.step.time_s,
              rb.step.dram_bytes / rm.step.dram_bytes,
              100 * (1 - rm.step.energy.total() / rb.step.energy.total()));
  return 0;
}
