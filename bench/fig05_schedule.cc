// Fig. 5: the serialized training flow MBS produces for ResNet50 — layer
// groups, per-group sub-batch sizes, iteration counts and the chunk
// sequences (the paper's run shows e.g. "3,3,3,3,3,3,3,3,3,3,2"). Schedules
// and traffic come from one engine sweep.
#include <cstdio>

#include "engine/engine.h"

int main(int argc, char** argv) {
  using namespace mbs;
  engine::Driver driver(argc, argv);

  const auto grid = engine::scenario_grid(
      {"resnet50"}, {sched::ExecConfig::kMbs1, sched::ExecConfig::kMbs2}, {},
      {}, engine::Stage::kTraffic);
  const auto results = driver.run(grid);
  const core::Network& net = *results[0].network;

  std::printf("=== Fig. 5: MBS serialized training flow for ResNet50 "
              "(mini-batch %d per core) ===\n\n", net.mini_batch_per_core);

  for (const engine::ScenarioResult& r : results) {
    const sched::Schedule& s = *r.schedule;
    std::printf("%s (%zu groups, %d total sub-batch iterations, "
                "%.2f GiB DRAM/step/core):\n",
                sched::to_string(r.scenario.config), s.groups.size(),
                s.total_iterations(),
                r.traffic->dram_bytes() / (1024.0 * 1024 * 1024));
    for (std::size_t g = 0; g < s.groups.size(); ++g) {
      const sched::Group& grp = s.groups[g];
      std::printf("  Group%zu  blocks %-8s .. %-8s  sub-batch %2d  "
                  "%2d iterations  sizes = ",
                  g + 1,
                  net.blocks[static_cast<std::size_t>(grp.first)].name.c_str(),
                  net.blocks[static_cast<std::size_t>(grp.last)].name.c_str(),
                  grp.sub_batch, grp.iterations);
      const auto chunks = grp.chunks(s.mini_batch);
      for (std::size_t i = 0; i < chunks.size(); ++i)
        std::printf("%s%d", i ? "," : "", chunks[i]);
      std::printf("\n");
    }
    std::printf("\n");
  }
  std::printf("Paper's run: 4 groups with sizes 3,...,2 / 6,...,2 / 11,11,10 "
              "/ 16,16 — monotonically growing sub-batches as down-sampling "
              "shrinks features.\n");
  return 0;
}
