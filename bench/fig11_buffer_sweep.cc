// Fig. 11: ResNet50 per-step execution time and DRAM traffic sensitivity to
// the per-core global buffer size (5-40 MiB), for IL / MBS-FS / MBS1 / MBS2,
// normalized to IL at 5 MiB. The 20-point (buffer x config) grid is one
// engine sweep; the IL @ 5 MiB reference is simply its first point.
#include <cstdio>
#include <iostream>

#include "engine/engine.h"
#include "util/units.h"

int main(int argc, char** argv) {
  using namespace mbs;
  engine::Driver driver(argc, argv);

  const std::vector<sched::ExecConfig> configs =
      sched::serialized_configs_with_il();
  const double sizes_mib[] = {5, 10, 20, 30, 40};

  std::vector<engine::Scenario> grid;
  for (double mib : sizes_mib)
    for (sched::ExecConfig cfg : configs) {
      engine::Scenario s;
      s.network = "resnet50";
      s.config = cfg;
      s.params.buffer_bytes = static_cast<std::int64_t>(mib * 1024 * 1024);
      s.hw.global_buffer_bytes = s.params.buffer_bytes;
      grid.push_back(std::move(s));
    }

  const auto results = driver.run(grid);

  std::printf("=== Fig. 11: ResNet50 sensitivity to global buffer size "
              "(normalized to IL @ 5 MiB) ===\n\n");

  // Reference: IL at 5 MiB — the first scenario of the grid.
  const double ref_time = results[0].step.time_s;
  const double ref_traffic = results[0].step.dram_bytes;

  engine::ResultSink time_sink("normalized execution time",
                               {"buffer", "IL", "MBS-FS", "MBS1", "MBS2"});
  engine::ResultSink traffic_sink("normalized DRAM traffic",
                                  {"buffer", "IL", "MBS-FS", "MBS1", "MBS2"});
  const std::size_t ncfg = configs.size();
  for (std::size_t si = 0; si < std::size(sizes_mib); ++si) {
    std::vector<std::string> trow{util::fmt(sizes_mib[si], 0) + " MiB"};
    std::vector<std::string> drow{util::fmt(sizes_mib[si], 0) + " MiB"};
    for (std::size_t ci = 0; ci < ncfg; ++ci) {
      const sim::StepResult& r = results[si * ncfg + ci].step;
      trow.push_back(util::fmt(r.time_s / ref_time, 2));
      drow.push_back(util::fmt(r.dram_bytes / ref_traffic, 2));
    }
    time_sink.add_row(trow);
    traffic_sink.add_row(drow);
  }

  time_sink.print(std::cout);
  std::printf("\n");
  traffic_sink.print(std::cout);
  time_sink.export_files("fig11_time");
  traffic_sink.export_files("fig11_traffic");
  std::printf("\npaper's headline: IL at 40 MiB still saves less traffic "
              "than MBS2 at 5 MiB, and MBS1/MBS2 vary little with buffer "
              "size.\n");
  return 0;
}
