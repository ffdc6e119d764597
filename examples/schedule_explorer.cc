// Example: explore MBS schedules and traffic for any evaluated network.
//
// Usage: schedule_explorer [network] [buffer_MiB]
//   network:    resnet50 (default) | resnet101 | resnet152 | inception_v3 |
//               inception_v4 | alexnet
//   buffer_MiB: per-core global buffer size, default 10
//
// Prints, for each Tab. 3 configuration: the layer groups the scheduler
// forms, their sub-batch sizes/iteration counts (Fig. 5), and the modeled
// per-step DRAM traffic broken down by class. All six (config) scenarios
// run as one engine sweep over the shared network build.
#include <cstdio>
#include <iostream>
#include <string>

#include "engine/engine.h"
#include "util/units.h"

int main(int argc, char** argv) {
  using namespace mbs;
  engine::Driver driver(argc, argv);

  const auto& args = driver.args();
  const std::string net_name = !args.empty() ? args[0] : "resnet50";
  const double buffer_mib = args.size() > 1 ? std::stod(args[1]) : 10.0;

  sched::ScheduleParams params;
  params.buffer_bytes =
      static_cast<std::int64_t>(buffer_mib * static_cast<double>(util::kMiB));

  const auto grid = engine::scenario_grid(
      {net_name}, sched::paper_tab3_configs(), params, {},
      engine::Stage::kTraffic);
  // One summary row (and printed group listing) per configuration.
  const auto results = driver.run(grid);
  const core::Network& net = *results[0].network;

  std::printf("%s: %d blocks, %d layers, %s params, %.2f GFLOPs/sample\n",
              net.name.c_str(), static_cast<int>(net.blocks.size()),
              net.layer_count(), util::fmt_int(net.param_count()).c_str(),
              static_cast<double>(net.flops_per_sample()) / 1e9);
  std::printf("mini-batch/core: %d, buffer: %.1f MiB\n\n",
              net.mini_batch_per_core, buffer_mib);

  engine::ResultSink summary(
      "", {"config", "groups", "iterations", "DRAM/step", "weights", "wgrad",
           "features", "gradients", "stash"});
  for (const engine::ScenarioResult& r : results) {
    const sched::Schedule& s = *r.schedule;
    const std::string err = s.validate(net);
    if (!err.empty()) {
      std::fprintf(stderr, "invalid schedule (%s): %s\n",
                   sched::to_string(r.scenario.config), err.c_str());
      return 1;
    }
    const sched::Traffic& t = *r.traffic;
    summary.add_row(
        {sched::to_string(r.scenario.config), std::to_string(s.groups.size()),
         std::to_string(s.total_iterations()),
         util::format_bytes(t.dram_bytes()),
         util::format_bytes(t.dram_bytes_by_class(sched::TrafficClass::kWeight)),
         util::format_bytes(
             t.dram_bytes_by_class(sched::TrafficClass::kWgradPartial)),
         util::format_bytes(
             t.dram_bytes_by_class(sched::TrafficClass::kFeature)),
         util::format_bytes(
             t.dram_bytes_by_class(sched::TrafficClass::kGradient)),
         util::format_bytes(
             t.dram_bytes_by_class(sched::TrafficClass::kStash))});

    if (sched::uses_serialization(r.scenario.config)) {
      std::printf("%s groups (Fig. 5 style):\n",
                  sched::to_string(r.scenario.config));
      for (std::size_t g = 0; g < s.groups.size(); ++g) {
        const auto& grp = s.groups[g];
        std::printf("  group %zu: blocks [%d..%d] (%s..%s), sub-batch %d, "
                    "%d iterations, chunks ",
                    g + 1, grp.first, grp.last,
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
  }
  summary.print(std::cout);
  summary.export_files("schedule_explorer");
  return 0;
}
