// Scenario: one point of the paper's evaluation design space.
//
// Every figure and table of the MBS evaluation is a sweep over the same
// four coordinates: which network, which Tab. 3 execution configuration,
// which scheduler parameters (buffer size, mini-batch, grouping algorithm),
// and which hardware model (WaveCore variant or the Fig. 13 GPU
// comparator). A Scenario captures one such point as plain data with a
// stable cache key, so the engine can memoize and parallelize sweeps
// without the 18 bespoke main() loops the seed repo used.
#pragma once

#include <string>
#include <vector>

#include "arch/gpu.h"
#include "sched/config.h"
#include "sched/schedule.h"
#include "sim/simulator.h"

namespace mbs::engine {

/// Hardware model a scenario executes on.
enum class Device {
  kWaveCore,  ///< the Sec. 4.2 accelerator model (sim::simulate_step)
  kGpu,       ///< the analytical V100 comparator (arch::simulate_gpu_step)
  kSystolic,  ///< cycle-level systolic backend (sim::simulate_systolic_step)
};

const char* to_string(Device d);

/// How deep the pipeline runs for a scenario. Analysis benches that only
/// need the network or the schedule skip the later (more expensive) stages.
enum class Stage {
  kNetwork,   ///< build the network only
  kSchedule,  ///< + run the scheduler
  kTraffic,   ///< + compute the traffic model
  kSimulate,  ///< + simulate the training step (default)
};

/// One evaluation point. Value type: copy freely, no behaviour beyond key
/// derivation. Every field that influences a pipeline stage's result is
/// covered by that stage's key below — when adding a field, thread it into
/// scenario.cc or two different scenarios will alias one memoized result
/// (docs/WORKLOADS.md "Declaring a scenario grid").
struct Scenario {
  /// models::make_network name: an evaluated CNN ("resnet50", ...,
  /// "alexnet") or a Transformer-family addition ("vit_small", "vit_base",
  /// "transformer_base"); see models::all_network_names().
  std::string network;
  /// Sequence-length override for Transformer-family networks: 0 keeps the
  /// network's default token count (and every key byte-identical to the
  /// pre-seq era); > 0 rebuilds the network at that many tokens (ViTs need
  /// a perfect square). CNNs reject non-zero values.
  int seq = 0;
  /// Tab. 3 execution configuration (Baseline ... MBS2).
  sched::ExecConfig config = sched::ExecConfig::kBaseline;
  /// Scheduler inputs: buffer capacity, mini-batch override, greedy-vs-DP
  /// grouping, feature type.
  sched::ScheduleParams params;
  /// WaveCore hardware point: systolic array, memory system (type and
  /// bandwidth), core count, global buffer, energy model.
  sim::WaveCoreConfig hw;

  Device device = Device::kWaveCore;
  arch::GpuModel gpu;      ///< used when device == kGpu
  int gpu_mini_batch = 64; ///< global mini-batch for the GPU comparator
  /// Cycle-backend mapping knobs (dataflow, scratchpad); used when
  /// device == kSystolic. The array geometry itself comes from `hw`.
  arch::SystolicOptions systolic;

  /// Evaluation depth (not part of any cache key: each stage memoizes
  /// independently, so deep and shallow scenarios share work).
  Stage stage = Stage::kSimulate;

  std::string label;  ///< free-form tag carried through to results

  /// Key of the network-construction stage (models::make_network input;
  /// carries the seq override only when non-default).
  std::string network_key() const;
  /// Key of the scheduling stage: network + config + every ScheduleParams
  /// field. Scenarios differing only in `hw` share this key. The seq field
  /// is emitted only when non-default, so pre-existing scenarios' keys
  /// never change bytes as axes accrue.
  std::string schedule_key() const;
  /// Key of the simulation stage: schedule_key + every hardware field (or
  /// the GPU model fields for kGpu scenarios). Two scenarios with equal
  /// cache keys produce bit-identical results.
  std::string cache_key() const;
};

/// Parses a textual Scenario spec — the serve layer's query format — of
/// semicolon-separated `key=value` fields:
///
///   net=resnet50;cfg=MBS2;buf=8388608;dev=systolic;df=ws;stage=simulate
///
/// Keys: net (required), seq (Transformer token count, 0 = default), cfg
/// (Tab. 3 name), buf (bytes), mb, opt (0/1), dev (wavecore|gpu|systolic),
/// df (systolic dataflow), spad (bytes), gmb (GPU mini-batch), nobw (0/1),
/// stage (network|schedule|traffic|simulate). Unlisted fields keep their
/// defaults, so a spec's cache_key matches the batch benches' default
/// hardware point. Whitespace around fields is ignored. Returns false and
/// fills *error (when non-null) on an unknown key, malformed value, or a
/// missing net — the syntax check only; whether the network exists is the
/// caller's lookup (models::all_network_names()).
bool parse_scenario(const std::string& spec, Scenario* out,
                    std::string* error);

/// Cross product of networks x configs sharing `params` and `hw`, in
/// row-major (network-major) order — the shape of Figs. 10 and 14.
std::vector<Scenario> scenario_grid(
    const std::vector<std::string>& networks,
    const std::vector<sched::ExecConfig>& configs,
    const sched::ScheduleParams& params = {},
    const sim::WaveCoreConfig& hw = {}, Stage stage = Stage::kSimulate);

}  // namespace mbs::engine
