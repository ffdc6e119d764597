// Fig. 12: ResNet50 training-time sensitivity to the off-chip memory type
// (HBM2x2 / GDDR5 / LPDDR4) for Baseline / ArchOpt / IL / MBS2, with the
// execution-time breakdown by layer type. Speedups are normalized to
// Baseline with HBM2x2. Uses 64 samples per core (the paper grows the
// mini-batch for the high-capacity off-package memories). The 12 scenarios
// share one ResNet50 build and four schedules via the engine's evaluator.
#include <cstdio>
#include <iostream>

#include "arch/memory.h"
#include "engine/engine.h"

int main(int argc, char** argv) {
  using namespace mbs;
  engine::Driver driver(argc, argv);

  const sched::ExecConfig configs[] = {
      sched::ExecConfig::kBaseline, sched::ExecConfig::kArchOpt,
      sched::ExecConfig::kIL, sched::ExecConfig::kMbs2};
  const arch::MemoryConfig memories[] = {arch::hbm2_x2(), arch::gddr5(),
                                         arch::lpddr4()};

  std::vector<engine::Scenario> grid;
  for (auto cfg : configs)
    for (const auto& mem : memories) {
      engine::Scenario s;
      s.network = "resnet50";
      s.config = cfg;
      s.params.mini_batch = 64;
      s.hw.memory = mem;
      grid.push_back(std::move(s));
    }

  const auto results = driver.run(grid);

  std::printf("=== Fig. 12: ResNet50 sensitivity to memory type "
              "(64 samples/core) ===\n\n");
  engine::ResultSink mem_sink(
      "Tab. 4 memory configurations",
      {"memory", "total BW [GiB/s]", "capacity [GiB]", "channels"});
  for (const arch::MemoryConfig& m : arch::all_memory_configs())
    mem_sink.add_row(
        {m.name,
         util::fmt(m.bandwidth_bytes_per_s / (1024.0 * 1024 * 1024), 1),
         util::fmt(static_cast<double>(m.capacity_bytes) /
                   (1024.0 * 1024 * 1024), 0),
         std::to_string(m.channels)});
  mem_sink.print(std::cout);

  // Reference: Baseline with HBM2x2 — the first scenario of the grid.
  const double ref = results[0].step.time_s;
  engine::ResultSink sink(
      "per-step time breakdown by layer type [ms]",
      {"config", "memory", "time [ms]", "conv", "fc", "norm", "pool", "sum",
       "speedup"});
  for (const engine::ScenarioResult& r : results) {
    auto ms = [](double s) { return util::fmt(s * 1e3, 1); };
    sink.add_row({sched::to_string(r.scenario.config), r.scenario.hw.memory.name,
                  ms(r.step.time_s), ms(r.step.time_by_type.conv),
                  ms(r.step.time_by_type.fc), ms(r.step.time_by_type.norm),
                  ms(r.step.time_by_type.pool), ms(r.step.time_by_type.sum),
                  util::fmt(ref / r.step.time_s, 2)});
  }
  std::printf("\n");
  sink.print(std::cout);
  mem_sink.export_files("fig12_memories");
  sink.export_files("fig12_breakdown");
  std::printf("\npaper's headline: MBS2 loses ~4%% moving to GDDR5 and <15%% "
              "to LPDDR4, while Baseline loses ~40%%.\n");
  return 0;
}
