// Analytic-vs-cycle backend divergence across the zoo: every network
// (CNNs and the Transformer-family additions alike) is scheduled once under
// MBS2 per buffer size, then simulated on both Device::kWaveCore (the
// paper's analytic traffic/time model) and Device::kSystolic (the
// cycle-level os/ws/is backend), bandwidth-constrained and in the
// bandwidth-unconstrained limit.
//
// The table answers two questions the analytic model alone cannot:
//   - how far is the analytic step time from cycle-level truth (rel. error),
//     and how much of the cycle time is DRAM stall vs compute?
//   - do the backends agree on traffic? They must: the cycle backend
//     charges stalls against the schedule's analytic DRAM bytes, so in the
//     unconstrained limit the two models may only disagree in time, never
//     in bytes moved (the trailing headline counts this invariant).
//
// Usage: backend_compare
//   MBS_SYSTOLIC_DATAFLOW=os|ws|is  cycle-backend dataflow (default os)
//   MBS_SYSTOLIC_SPAD=<bytes>       PE-array scratchpad (default 524288)
//
// Composes with the engine plumbing like every bench: --cache-dir
// warm-starts repeated runs byte-identically, and --threads bounds the
// sweep pool.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "arch/dataflow.h"
#include "engine/engine.h"
#include "models/zoo.h"
#include "util/env.h"
#include "util/units.h"

int main(int argc, char** argv) {
  using namespace mbs;
  engine::Driver driver(argc, argv);

  arch::Dataflow dataflow = arch::Dataflow::kOutputStationary;
  if (const char* env = std::getenv("MBS_SYSTOLIC_DATAFLOW"); env && *env) {
    if (!arch::parse_dataflow(env, &dataflow)) {
      std::fprintf(stderr,
                   "bad MBS_SYSTOLIC_DATAFLOW '%s': expected os, ws or is\n",
                   env);
      return 1;
    }
  }
  const std::int64_t spad =
      util::env_int("MBS_SYSTOLIC_SPAD", 512 * 1024, 1, 1LL << 40);

  const std::vector<std::string> networks = models::all_network_names();
  const double buffers_mib[] = {2, 10, 40};

  // Four scenarios per (network, buffer) comparison point, so row index ==
  // scenario index / 4: analytic and cycle backends, each
  // bandwidth-constrained and in the unconstrained limit. All four
  // share one schedule cache key per point — the sweep batches them.
  std::vector<engine::Scenario> grid;
  for (const std::string& net : networks)
    for (double mib : buffers_mib)
      for (int variant = 0; variant < 4; ++variant) {
        engine::Scenario s;
        s.network = net;
        s.config = sched::ExecConfig::kMbs2;
        s.params.buffer_bytes =
            static_cast<std::int64_t>(mib * static_cast<double>(util::kMiB));
        s.hw.global_buffer_bytes = s.params.buffer_bytes;
        if (variant % 2 == 1) s.device = engine::Device::kSystolic;
        s.systolic.dataflow = dataflow;
        s.systolic.scratchpad_bytes = spad;
        s.hw.unlimited_dram_bw = variant >= 2;
        grid.push_back(std::move(s));
      }

  const auto results = driver.run(grid);

  std::printf("=== Backend comparison: analytic (WaveCore) vs cycle-level "
              "(systolic, %s dataflow, %s scratchpad) under MBS2 ===\n\n",
              arch::to_string(dataflow),
              util::format_bytes(static_cast<double>(spad)).c_str());

  engine::ResultSink sink(
      "analytic vs cycle-level step time (rel. error = cycle/analytic - 1; "
      "stall = DRAM-stall share of cycle time; bytes== checks DRAM traffic "
      "agreement in the unconstrained-bandwidth limit)",
      {"network", "buffer", "analytic", "cycle", "rel.err", "stall", "util",
       "map.eff", "DRAM/step", "bytes=="});
  std::size_t points = 0, bytes_agree = 0;
  for (std::size_t i = 0; i + 3 < grid.size(); i += 4) {
    const engine::ScenarioResult& analytic = results[i];
    const engine::ScenarioResult& cycle = results[i + 1];
    const engine::ScenarioResult& analytic_nobw = results[i + 2];
    const engine::ScenarioResult& cycle_nobw = results[i + 3];
    ++points;
    const bool agree =
        analytic_nobw.step.dram_bytes == cycle_nobw.systolic.dram_bytes &&
        cycle_nobw.systolic.stats.stall_cycles == 0;
    if (agree) ++bytes_agree;
    const double t_a = analytic.step.time_s;
    const double t_c = cycle.systolic.time_s;
    sink.add_row({analytic.scenario.network,
                  util::fmt(buffers_mib[(i / 4) % std::size(buffers_mib)], 0) +
                      " MiB",
                  util::format_time(t_a), util::format_time(t_c),
                  util::fmt(100.0 * (t_c / t_a - 1.0), 1) + "%",
                  util::fmt(100.0 * cycle.systolic.stall_time_s / t_c, 1) + "%",
                  util::fmt(cycle.systolic.stats.util, 3),
                  util::fmt(cycle.systolic.stats.mapping_eff, 3),
                  util::format_bytes(cycle.systolic.dram_bytes),
                  agree ? "yes" : "NO"});
  }
  sink.print(std::cout);
  sink.export_files("backend_compare");

  std::printf("\nunconstrained-limit DRAM traffic: analytic == cycle on "
              "%zu/%zu (network, buffer) points%s\n",
              bytes_agree, points,
              bytes_agree == points
                  ? " — the backends diverge in time, never in bytes"
                  : " — traffic models have DRIFTED apart");
  return bytes_agree == points ? 0 : 1;
}
