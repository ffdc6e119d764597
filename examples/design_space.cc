// Example: accelerator design-space exploration with the engine.
//
// The paper's closing argument (Sec. 8) is that MBS makes WaveCore robust to
// memory design decisions: buffer capacity and DRAM bandwidth matter far
// less than with conventional training, so a designer can pick cheap,
// high-capacity memory. This example sweeps the (global buffer size x
// memory type) plane for a network and reports, per configuration, the MBS2
// step time and its slowdown versus the most expensive design point. The
// 24-scenario grid fans across the engine's thread pool; each (config,
// buffer) schedule is built once and reused across the four memory types.
#include <cstdio>
#include <iostream>
#include <string>

#include "arch/memory.h"
#include "engine/engine.h"
#include "util/units.h"

int main(int argc, char** argv) {
  using namespace mbs;
  engine::Driver driver(argc, argv);
  const std::string name =
      !driver.args().empty() ? driver.args()[0] : "resnet50";

  const double buffers_mib[] = {5, 10, 20};
  const arch::MemoryConfig memories[] = {arch::hbm2_x2(), arch::hbm2(),
                                         arch::gddr5(), arch::lpddr4()};

  // Grid: (buffer, memory) x {Baseline, MBS2}, Baseline first per point.
  std::vector<engine::Scenario> grid;
  for (double mib : buffers_mib)
    for (const auto& mem : memories)
      for (sched::ExecConfig cfg :
           {sched::ExecConfig::kBaseline, sched::ExecConfig::kMbs2}) {
        engine::Scenario s;
        s.network = name;
        s.config = cfg;
        s.params.buffer_bytes = static_cast<std::int64_t>(mib * 1024 * 1024);
        s.hw.memory = mem;
        s.hw.global_buffer_bytes = s.params.buffer_bytes;
        grid.push_back(std::move(s));
      }

  // One output row per (buffer, memory): row r reads the Baseline/MBS2
  // pair at scenarios 2*r and 2*r+1.
  const auto results = driver.run(grid);

  std::printf("=== Design-space sweep: %s, MBS2 vs Baseline ===\n\n",
              results[0].network->name.c_str());

  // Reference: the most expensive point (HBM2x2, 20 MiB) — the MBS2 half of
  // the last buffer row's first memory entry.
  const std::size_t per_buffer = std::size(memories) * 2;
  const double ref =
      results[(std::size(buffers_mib) - 1) * per_buffer + 1].step.time_s;

  engine::ResultSink sink(
      "", {"buffer", "memory", "Baseline [ms]", "MBS2 [ms]",
           "MBS2 slowdown vs best", "MBS2 advantage"});
  for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
    const sim::StepResult& base = results[i].step;
    const sim::StepResult& mbs = results[i + 1].step;
    const engine::Scenario& sc = results[i].scenario;
    sink.add_row(
        {util::fmt(static_cast<double>(sc.params.buffer_bytes) /
                   static_cast<double>(util::kMiB), 0) + " MiB",
         sc.hw.memory.name, util::fmt(base.time_s * 1e3, 1),
         util::fmt(mbs.time_s * 1e3, 1),
         util::fmt(mbs.time_s / ref, 2) + "x",
         util::fmt(base.time_s / mbs.time_s, 2) + "x"});
  }
  sink.print(std::cout);
  sink.export_files("design_space");
  std::printf("\nTakeaway: under MBS2 even the cheapest corner (5 MiB + "
              "LPDDR4) stays within a few percent of the premium design, "
              "while conventional training degrades steeply.\n");
  return 0;
}
