// Fig. 4: per-block inter-layer data size per sample, the resulting minimum
// sub-batch iteration count, and the MBS layer grouping for ResNet50 with 32
// samples and a 10 MiB buffer. The MBS1/MBS2 schedules come from one engine
// sweep (the network is built once and shared).
#include <cstdio>
#include <iostream>

#include "engine/engine.h"

int main(int argc, char** argv) {
  using namespace mbs;
  engine::Driver driver(argc, argv);

  const auto grid = engine::scenario_grid(
      {"resnet50"}, {sched::ExecConfig::kMbs1, sched::ExecConfig::kMbs2}, {},
      {}, engine::Stage::kSchedule);
  const auto results = driver.run(grid);

  const core::Network& net = *results[0].network;
  const sched::Schedule& s1 = *results[0].schedule;
  const sched::Schedule& s2 = *results[1].schedule;

  std::printf("=== Fig. 4: ResNet50 per-block footprints, minimum iteration "
              "counts and MBS grouping (32 samples, 10 MiB) ===\n\n");

  engine::ResultSink sink(
      "", {"block", "kind", "data/sample [MB]", "MBS2 data/sample [MB]",
           "max sub-batch", "MIN iterations", "MBS1 group", "MBS2 group"});
  for (std::size_t b = 0; b < net.blocks.size(); ++b) {
    const int bi = static_cast<int>(b);
    sink.add_row(
        {net.blocks[b].name, core::to_string(net.blocks[b].kind),
         util::fmt(static_cast<double>(s1.block_footprint[b]) / 1e6, 2),
         util::fmt(static_cast<double>(s2.block_footprint[b]) / 1e6, 2),
         std::to_string(s2.block_max_sub[b]),
         std::to_string(
             sched::iterations_for(s2.mini_batch, s2.block_max_sub[b])),
         std::to_string(s1.group_of_block(bi) + 1),
         std::to_string(s2.group_of_block(bi) + 1)});
  }
  sink.print(std::cout);
  sink.export_files("fig04_grouping");

  std::printf("\nMBS1 forms %zu groups; MBS2 forms %zu groups "
              "(paper Fig. 4 shows 4 groups for its configuration).\n",
              s1.groups.size(), s2.groups.size());
  return 0;
}
