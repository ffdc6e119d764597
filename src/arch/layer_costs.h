// Per-layer inputs shared by both step simulators (sim::simulate_step and
// arch::simulate_systolic_step): vector-unit op counts, and the schedule's
// traffic aggregated per (block, layer, phase). Keeping one copy means the
// two backends can only diverge in how they turn these into time.
#pragma once

#include <vector>

#include "core/layer.h"

namespace mbs::core {
struct Network;
}
namespace mbs::sched {
struct Traffic;
}

namespace mbs::arch {

/// Vector-unit ops of a non-GEMM layer's forward pass, per sample.
double vector_ops_fwd(const core::Layer& l);

/// Vector-unit ops of a non-GEMM layer's backward pass, per sample.
double vector_ops_bwd(const core::Layer& l);

/// Softmax ops of one attention layer, per sample per direction (~4 ops per
/// score-matrix element: max, exp-subtract, sum, divide — and the backward
/// Jacobian-vector product costs the same).
double attention_softmax_ops(const core::Layer& l);

/// DRAM and global-buffer bytes of one (block, layer), by phase.
struct LayerBytes {
  double dram[2] = {0, 0};  ///< indexed by 0 = forward, 1 = backward
  double buf[2] = {0, 0};
};

/// Traffic bytes of every layer, indexed [block][layer] in for_each_layer
/// order. Records are added in traffic order, so each sum is the same
/// double whichever simulator reads it; layers with no record stay zero,
/// and records naming a layer `net` lacks are dropped.
using LayerBytesTable = std::vector<std::vector<LayerBytes>>;

LayerBytesTable layer_bytes(const core::Network& net,
                            const sched::Traffic& traffic);

}  // namespace mbs::arch
