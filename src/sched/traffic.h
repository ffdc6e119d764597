// DRAM and global-buffer traffic accounting for one training step.
//
// This is the model behind the paper's traffic results (Fig. 10c, Fig. 11):
// it walks every tensor edge of the network under a given schedule and
// decides, per configuration, whether the edge moves through DRAM or stays
// in the on-chip global buffer, and how often weights and weight-gradient
// partial sums are (re-)fetched.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/network.h"
#include "sched/schedule.h"

namespace mbs::sched {

/// Training phase a traffic record belongs to.
enum class Phase { kForward, kBackward };

/// What kind of data moved (used for reporting and for ablations).
enum class TrafficClass {
  kInput,        ///< network input samples
  kFeature,      ///< inter-layer activations moving in forward propagation
  kGradient,     ///< inter-layer loss gradients moving in back propagation
  kWeight,       ///< parameter reads (forward and data-gradient passes)
  kWgradPartial, ///< weight-gradient partial-sum writes and re-reads
  kStash,        ///< forward tensors stored for reuse in back propagation
  kMask,         ///< 1-bit ReLU gradient masks (MBS only)
};

const char* to_string(TrafficClass c);
const char* to_string(Phase p);

/// One aggregated traffic contribution, attributed to a layer and phase.
struct TrafficRecord {
  int block = 0;           ///< block index in the network
  int layer = 0;           ///< layer index within the block (for_each_layer order)
  core::LayerKind kind = core::LayerKind::kConv;
  bool is_gemm = false;    ///< runs on the systolic array
  Phase phase = Phase::kForward;
  TrafficClass cls = TrafficClass::kFeature;
  double dram_read = 0;    ///< bytes per training step (whole mini-batch)
  double dram_write = 0;
  double buf_read = 0;     ///< global-buffer bytes (energy model input)
  double buf_write = 0;
};

/// All traffic of one training step on one core.
struct Traffic {
  std::vector<TrafficRecord> records;

  double dram_bytes() const;
  double dram_read_bytes() const;
  double dram_write_bytes() const;
  double buffer_bytes() const;
  double dram_bytes_by_class(TrafficClass c) const;
  /// DRAM bytes attributed to a single block.
  double dram_bytes_for_block(int block) const;
};

/// Computes the per-step traffic of `schedule` over `net`. All byte counts
/// are per core (the paper reports per-chip numbers as 2x this).
Traffic compute_traffic(const core::Network& net, const Schedule& schedule);

/// Tensor-level dataflow graph of a network (defined in traffic.cc).
struct Dataflow;

/// The layer-grouping search's objective: total DRAM bytes per step of a
/// schedule, i.e. compute_traffic(net, s).dram_bytes(), without the records.
///
/// compute_traffic and this objective run one builder over the same edge
/// rules; only the sink differs. compute_traffic's sink appends a record per
/// contribution; this one adds each contribution's DRAM read and write bytes
/// to two running sums. Both sums see the contributions in record order, as
/// Traffic::dram_read_bytes() and dram_write_bytes() add them, and the two
/// totals are then added as in Traffic::dram_bytes(), so the result is
/// bit-identical by construction. The network's dataflow graph is built
/// once, in the constructor, and reused for every schedule evaluated;
/// `net` must outlive the objective. Not thread-safe: the block-to-group
/// table is scratch space shared by successive calls.
class DramObjective {
 public:
  explicit DramObjective(const core::Network& net);
  ~DramObjective();
  DramObjective(const DramObjective&) = delete;
  DramObjective& operator=(const DramObjective&) = delete;

  /// Total DRAM bytes per step of `schedule` over the network.
  double operator()(const Schedule& schedule);

 private:
  const core::Network& net_;
  std::unique_ptr<const Dataflow> df_;
  std::vector<int> block_group_;
};

/// Total DRAM bytes per step: a one-shot DramObjective. Equals
/// compute_traffic(net, schedule).dram_bytes() bit for bit.
double dram_traffic_bytes(const core::Network& net, const Schedule& schedule);

}  // namespace mbs::sched
