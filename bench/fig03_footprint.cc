// Fig. 3: per-layer inter-layer data and parameter sizes of ResNet50 with a
// mini-batch of 32 and 16b words, sorted by inter-layer data size; plus
// Sec. 2's observation that only ~9% of inter-layer data is reusable with a
// 10 MiB buffer. The (single-scenario) analysis runs through the engine so
// the network build is shared with any co-resident sweep.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "engine/engine.h"

int main(int argc, char** argv) {
  using namespace mbs;
  engine::Driver driver(argc, argv);

  engine::Scenario scenario;
  scenario.network = "resnet50";
  scenario.stage = engine::Stage::kNetwork;  // layer walk only, no scheduling
  const auto results = driver.run({scenario});
  const core::Network& net = *results[0].network;
  const int n = net.mini_batch_per_core;

  struct Row {
    std::string name;
    double inter_layer_mb;  // mini-batch footprint: input + output
    double params_mb;
  };
  std::vector<Row> rows;
  for (const core::Block& blk : net.blocks)
    blk.for_each_layer([&](const core::Layer& l, int) {
      Row r;
      r.name = l.name;
      r.inter_layer_mb =
          static_cast<double>(n) *
          (l.input_bytes_per_sample() + l.output_bytes_per_sample()) / 1e6;
      r.params_mb = static_cast<double>(l.param_bytes()) / 1e6;
      rows.push_back(r);
    });
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.inter_layer_mb > b.inter_layer_mb;
  });

  std::printf("=== Fig. 3: ResNet50 per-layer footprints "
              "(mini-batch %d, 16b words), sorted ===\n\n", n);
  engine::ResultSink sink(
      "", {"rank", "layer", "inter-layer data [MB]", "params [MB]"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    sink.add_row({std::to_string(i + 1), rows[i].name,
                  util::fmt(rows[i].inter_layer_mb, 2),
                  util::fmt(rows[i].params_mb, 3)});
  }
  sink.print(std::cout);
  sink.export_files("fig03_footprint");

  // Sec. 2: fraction of inter-layer data reusable with a 10 MiB buffer —
  // data volume belonging to layers whose whole-mini-batch working set fits.
  double total = 0, reusable = 0;
  const double buffer_mb = 10.0 * 1024 * 1024 / 1e6;
  for (const Row& r : rows) {
    total += r.inter_layer_mb;
    if (r.inter_layer_mb <= buffer_mb) reusable += r.inter_layer_mb;
  }
  std::printf("\nreusable inter-layer data with a 10 MiB buffer: %.1f%% "
              "(paper Sec. 2: 9.3%%)\n", 100.0 * reusable / total);
  std::printf("largest per-layer footprint: %.1f MB; total parameters: %s\n",
              rows.front().inter_layer_mb,
              util::fmt_int(net.param_count()).c_str());
  return 0;
}
