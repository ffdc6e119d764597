// Tab. 2: accelerator specification comparison — V100 / TPU v1 / TPU v2
// published specs next to the WaveCore area/power model roll-up (Sec. 4.2).
// The (cheap) spec computations run as engine jobs so the bench shares the
// SweepRunner execution path with every other figure reproduction.
#include <cstdio>
#include <iostream>
#include <vector>

#include "arch/area.h"
#include "engine/engine.h"

int main(int argc, char** argv) {
  using namespace mbs;
  engine::Driver driver(argc, argv);
  const arch::AreaModel model;

  const auto parts = driver.runner().map<std::vector<arch::AcceleratorSpec>>(
      {[&] { return arch::accelerator_comparison(model); }});
  const std::vector<arch::AcceleratorSpec>& specs = parts[0];

  std::printf("=== Tab. 2: accelerator specification comparison ===\n\n");
  engine::ResultSink sink(
      "", {"", "technology [nm]", "die area [mm^2]", "clock [GHz]", "TOPS/die",
           "peak power [W]", "on-chip buffers [MiB]"});
  for (const arch::AcceleratorSpec& s : specs) {
    sink.add_row({s.name, s.technology,
                  s.die_area_mm2 > 0 ? util::fmt(s.die_area_mm2, 1) : "N/A",
                  util::fmt(s.clock_ghz, 2),
                  util::fmt(s.tops, 0) + " (" + s.tops_kind + ")",
                  s.peak_power_w > 0 ? util::fmt(s.peak_power_w, 0) : "N/A",
                  s.on_chip_buffers_mib > 0
                      ? util::fmt(s.on_chip_buffers_mib, 0)
                      : "N/A"});
  }
  sink.print(std::cout);
  sink.export_files("tab02_specs");

  engine::ResultSink roll("WaveCore area roll-up (Sec. 4.2)",
                          {"component", "area"});
  roll.add_row({"one PE", util::fmt(model.pe_area_um2, 0) + " um^2"});
  roll.add_row(
      {"128x128 PE array", util::fmt(model.array_mm2(), 2) + " mm^2"});
  roll.add_row({"global buffer / core",
                util::fmt(model.global_buffer_mm2_per_core, 2) + " mm^2"});
  roll.add_row({"vector units / core",
                util::fmt(model.vector_units_mm2_per_core, 2) + " mm^2"});
  roll.add_row({"total (2 cores)", util::fmt(model.total_mm2(), 1) + " mm^2"});
  std::printf("\n");
  roll.print(std::cout);
  roll.export_files("tab02_area");
  std::printf("\npaper: PE 12,173 um^2; array 199.45 mm^2 (67%% of die); "
              "total 534.0 mm^2; 45 FP16 TOPS; 56 W peak.\n");
  return 0;
}
