// WaveCore training-step simulators.
//
// Executes a schedule over the architecture model and reports the metrics
// the paper's evaluation uses: per-step execution time (Fig. 10a, 12, 13),
// DRAM traffic (Fig. 10c, 11), energy (Fig. 10b), systolic-array
// utilization (Fig. 14), and a per-layer-type time breakdown (Fig. 12).
//
// The simulators account for all memory, buffer, and arithmetic activity
// (Sec. 5): GEMM layers run on the systolic array with their per-sub-batch
// im2col GEMM shapes; normalization/pooling/activation/merge layers run on
// the vector units and are usually bandwidth bound. Both step models below
// share one walk of the step, which decides what every layer runs; they
// differ only in how they price it. The analytic model (simulate_step)
// overlaps each layer's compute with its DRAM transfers (the local buffers
// are double buffered, Sec. 4.2), so layer time = max(compute, DRAM);
// layers execute in sequence. The cycle-level model
// (simulate_systolic_step) counts fold cycles under a dataflow and DRAM
// stall cycles behind a scratchpad gate.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/energy.h"
#include "arch/memory.h"
#include "arch/systolic.h"
#include "core/network.h"
#include "sched/schedule.h"
#include "sched/traffic.h"

namespace mbs::sim {

/// Full accelerator configuration (defaults: the Sec. 4.2 WaveCore).
struct WaveCoreConfig {
  arch::SystolicConfig systolic;          ///< per-core array
  arch::MemoryConfig memory = arch::hbm2();  ///< chip-level DRAM
  int cores = 2;
  std::int64_t global_buffer_bytes = 10ll * 1024 * 1024;  ///< per core
  double buffer_bw_bytes = 501.0 * 1024 * 1024 * 1024;    ///< per core (Fig. 9)
  double vector_flops = 2.87e12;          ///< per-core vector/scalar units
  arch::EnergyModel energy;               ///< dram_pj overridden by `memory`
  bool unlimited_dram_bw = false;         ///< Fig. 14's isolation mode
};

/// Per-layer-type execution time (Fig. 12's stacked bars). "sum" covers the
/// element-wise merge/activation work (Add/Concat/ReLU).
struct LayerTypeTimes {
  double conv = 0;
  double fc = 0;
  double norm = 0;
  double pool = 0;
  double sum = 0;

  double total() const { return conv + fc + norm + pool + sum; }
};

/// Results of one simulated training step (chip level: two cores each
/// processing their half of the global mini-batch in parallel).
struct StepResult {
  double time_s = 0;            ///< per-step execution time
  double dram_bytes = 0;        ///< chip DRAM traffic (2x per-core)
  double buffer_bytes = 0;      ///< chip global-buffer traffic
  double total_macs = 0;        ///< chip useful MACs
  double systolic_utilization = 0;  ///< conv+FC MAC-weighted (Fig. 14)
  double compute_time_s = 0;    ///< sum of per-layer compute components
  double memory_time_s = 0;     ///< sum of per-layer DRAM components
  LayerTypeTimes time_by_type;
  arch::EnergyBreakdown energy;
};

/// Simulates one training step of `net` under `schedule` on `hw`, charging
/// the schedule's `traffic` (sched::compute_traffic(net, schedule)) per
/// (layer, phase).
StepResult simulate_step(const core::Network& net,
                         const sched::Schedule& schedule,
                         const sched::Traffic& traffic,
                         const WaveCoreConfig& hw);

/// Simulates the same step at cycle granularity: GEMMs run through
/// arch::simulate_gemm_cycles under `options.dataflow`, and DRAM stalls
/// come from `traffic` per (layer, phase), hidden behind compute when the
/// scratchpad's double-buffer gate holds. DRAM bytes moved are the
/// schedule's traffic: the two models differ in time, never in traffic.
arch::SystolicStepResult simulate_systolic_step(
    const core::Network& net, const sched::Schedule& schedule,
    const sched::Traffic& traffic, const WaveCoreConfig& hw,
    const arch::SystolicOptions& options);

/// DRAM and global-buffer bytes of one (block, layer), by phase.
struct LayerBytes {
  double dram[2] = {0, 0};  ///< indexed by 0 = forward, 1 = backward
  double buf[2] = {0, 0};
};

/// Traffic bytes of every layer, indexed [block][layer] in for_each_layer
/// order. Records are added in traffic order; layers with no record stay
/// zero, and records naming a layer `net` lacks are dropped.
using LayerBytesTable = std::vector<std::vector<LayerBytes>>;

LayerBytesTable layer_bytes(const core::Network& net,
                            const sched::Traffic& traffic);

}  // namespace mbs::sim
