// Fig. 13: NVIDIA V100 (modeled; see DESIGN.md substitutions) vs
// WaveCore+MBS2 with different memory systems, per training step of 64
// samples, for ResNet50/101/152 and Inception v3. Speedups are WaveCore
// relative to the V100 estimate. The mixed-device grid (one GPU scenario
// plus four WaveCore memory variants per network) is a single engine sweep;
// the MBS2 schedule of each network is computed once and shared across its
// four memory variants.
#include <cstdio>
#include <iostream>

#include "arch/gpu.h"
#include "arch/memory.h"
#include "engine/engine.h"

int main(int argc, char** argv) {
  using namespace mbs;
  engine::Driver driver(argc, argv);

  const char* nets[] = {"resnet50", "resnet101", "resnet152", "inception_v3"};
  const arch::MemoryConfig memories[] = {arch::hbm2_x2(), arch::gddr5(),
                                         arch::hbm2(), arch::lpddr4()};
  const std::size_t per_net = 1 + std::size(memories);

  std::vector<engine::Scenario> grid;
  for (const char* name : nets) {
    engine::Scenario gpu;
    gpu.network = name;
    gpu.device = engine::Device::kGpu;
    gpu.gpu_mini_batch = 64;  // global mini-batch (32 per WaveCore core)
    grid.push_back(std::move(gpu));
    for (const auto& mem : memories) {
      engine::Scenario s;
      s.network = name;
      s.config = sched::ExecConfig::kMbs2;
      s.hw.memory = mem;
      grid.push_back(std::move(s));
    }
  }

  // One output row per network: row ni aggregates its GPU scenario and the
  // four WaveCore memory variants.
  const auto results = driver.run(grid);

  std::printf("=== Fig. 13: V100 (Caffe model) vs WaveCore + MBS2 ===\n");
  std::printf("(single WaveCore has ~30%% of V100 peak compute and 27%% of "
              "its bandwidth with LPDDR4, yet trains faster)\n\n");

  engine::ResultSink sink(
      "", {"network", "V100 [ms]", "HBM2x2 [ms]", "speedup", "GDDR5 [ms]",
           "speedup", "HBM2 [ms]", "speedup", "LPDDR4 [ms]", "speedup"});
  for (std::size_t ni = 0; ni < std::size(nets); ++ni) {
    const engine::ScenarioResult& gpu = results[ni * per_net];
    std::vector<std::string> row{gpu.network->name,
                                 util::fmt(gpu.step.time_s * 1e3, 1)};
    for (std::size_t mi = 0; mi < std::size(memories); ++mi) {
      const sim::StepResult& r = results[ni * per_net + 1 + mi].step;
      row.push_back(util::fmt(r.time_s * 1e3, 1));
      row.push_back(util::fmt(gpu.step.time_s / r.time_s, 2));
    }
    sink.add_row(row);
  }
  sink.print(std::cout);
  sink.export_files("fig13_gpu_compare");
  std::printf("\npaper's headline: WaveCore+MBS2 beats the V100 with every "
              "memory type (speedups 1.06-1.27), and the gap widens with "
              "network depth.\n");
  return 0;
}
