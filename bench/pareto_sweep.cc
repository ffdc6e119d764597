// Buffer-capacity x DRAM-bandwidth Pareto front for any zoo network under
// MBS2 — the "memory configuration frontier" the paper's Fig. 11 hints at
// but never sweeps jointly; models and memory configs compose in one engine
// grid.
//
// A grid point is *frontier* (non-dominated) when no other point needs at
// most its buffer AND at most its bandwidth AND still trains at most as
// fast, with at least one strict improvement — i.e. the set of memory
// provisionings a rational designer would pick from.
//
// Usage: pareto_sweep [network] [seq]
//   network: any models::all_network_names() entry (default resnet50),
//            e.g. resnet50, alexnet, vit_base, transformer_base.
//   seq:     optional sequence-length override for Transformer-family
//            networks (tokens; ViTs need a perfect square). The frontier
//            moves with seq because the attention score matrix B*H*S*S
//            scales quadratically where every other footprint is linear.
//
// Composes with the engine plumbing like every bench: --cache-dir
// warm-starts repeated runs byte-identically, and --threads bounds the
// sweep pool.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "arch/memory.h"
#include "engine/engine.h"
#include "models/zoo.h"
#include "util/units.h"

int main(int argc, char** argv) {
  using namespace mbs;
  engine::Driver driver(argc, argv);

  const auto& args = driver.args();
  const std::string net_name = !args.empty() ? args[0] : "resnet50";
  const std::vector<std::string> known = models::all_network_names();
  if (std::find(known.begin(), known.end(), net_name) == known.end()) {
    std::fprintf(stderr, "unknown network '%s'; choose one of:", net_name.c_str());
    for (const auto& n : known) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 1;
  }
  int seq = 0;
  if (args.size() > 1) seq = std::atoi(args[1].c_str());
  std::string seq_why;
  if (!models::valid_sequence_length(net_name, seq, &seq_why)) {
    std::fprintf(stderr, "bad seq '%s': %s\n",
                 args.size() > 1 ? args[1].c_str() : "", seq_why.c_str());
    return 1;
  }

  const double buffers_mib[] = {2, 5, 10, 20, 40};
  const double bw_scales[] = {0.25, 0.5, 1.0, 2.0};
  const arch::MemoryConfig base_mem = arch::hbm2();

  // Row-major: buffer, then bandwidth — one output row per scenario.
  std::vector<engine::Scenario> grid;
  for (double mib : buffers_mib)
    for (double scale : bw_scales) {
      engine::Scenario s;
      s.network = net_name;
      s.seq = seq;
      s.config = sched::ExecConfig::kMbs2;
      s.params.buffer_bytes =
          static_cast<std::int64_t>(mib * static_cast<double>(util::kMiB));
      s.hw.global_buffer_bytes = s.params.buffer_bytes;
      s.hw.memory = base_mem;
      s.hw.memory.bandwidth_bytes_per_s =
          base_mem.bandwidth_bytes_per_s * scale;
      grid.push_back(std::move(s));
    }

  const auto results = driver.run(grid);

  // Dominance is decided over the whole grid, minimizing (buffer,
  // bandwidth, time).
  const std::size_t n_bws = std::size(bw_scales);
  auto coords = [&](std::size_t i) {
    struct {
      double buffer_mib, bw_scale;
    } c{buffers_mib[i / n_bws], bw_scales[i % n_bws]};
    return c;
  };
  auto dominated = [&](std::size_t i) {
    const auto ci = coords(i);
    const double ti = results[i].step.time_s;
    for (std::size_t j = 0; j < results.size(); ++j) {
      if (j == i) continue;
      const auto cj = coords(j);
      const double tj = results[j].step.time_s;
      const bool no_worse = cj.buffer_mib <= ci.buffer_mib &&
                            cj.bw_scale <= ci.bw_scale && tj <= ti;
      const bool strictly_better = cj.buffer_mib < ci.buffer_mib ||
                                   cj.bw_scale < ci.bw_scale || tj < ti;
      if (no_worse && strictly_better) return true;
    }
    return false;
  };

  // The seq tag is appended only when overridden, keeping the default
  // stdout byte-identical to the pre-seq era.
  std::printf("=== Pareto sweep: %s%s under MBS2, buffer x DRAM bandwidth "
              "===\n\n",
              results[0].network->name.c_str(),
              seq > 0 ? (" (seq=" + std::to_string(seq) + ")").c_str() : "");

  engine::ResultSink sink(
      "buffer/bandwidth Pareto front (frontier = non-dominated, minimizing "
      "buffer, bandwidth and time)",
      {"buffer", "DRAM bw", "time", "DRAM/step", "energy", "groups",
       "frontier"});
  std::size_t frontier_points = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const bool frontier = !dominated(i);
    if (frontier) ++frontier_points;
    const auto c = coords(i);
    const engine::ScenarioResult& r = results[i];
    sink.add_row({util::fmt(c.buffer_mib, 0) + " MiB",
                  util::format_bytes(r.scenario.hw.memory.bandwidth_bytes_per_s) + "/s",
                  util::format_time(r.step.time_s),
                  util::format_bytes(r.step.dram_bytes),
                  util::fmt(r.step.energy.total(), 3) + " J",
                  std::to_string(r.schedule->groups.size()),
                  frontier ? "yes" : "no"});
  }
  sink.print(std::cout);
  sink.export_files("pareto_sweep");

  std::printf("\nfrontier points: %zu/%zu\n", frontier_points,
              results.size());
  return 0;
}
