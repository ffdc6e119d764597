// The MBS scheduler: builds an execution schedule for a network under one of
// the Tab. 3 configurations (Sec. 3 "Layer Grouping Optimizes Reuse").
#pragma once

#include "core/network.h"
#include "sched/schedule.h"

namespace mbs::sched {

/// Builds a schedule for `net` under `config`.
///
/// * Baseline / ArchOpt / IL: a single group spanning the whole network with
///   sub-batch = mini-batch (no serialization).
/// * MBS-FS: one group, sub-batch = the minimum feasible size over all blocks.
/// * MBS1 / MBS2: initial groups of equal minimum iteration count, then
///   greedy merging of adjacent groups while total modeled DRAM traffic
///   improves; MBS2 additionally provisions for inter-branch reuse (Eq. 1/2)
///   when computing footprints. Every search scores candidates with one
///   `DramObjective`, built once per call.
///
/// `params.optimal_grouping` replaces the MBS1/MBS2 greedy merging with an
/// O(blocks^2) dynamic program over contiguous partitions (the
/// exhaustive-search reference of the paper's footnote 1). The DP assumes
/// traffic is additive over groups: it is exact for the CNNs and a heuristic
/// for pre-norm residual stacks (vit_*, transformer_base), whose gradient
/// routing makes a group's traffic depend on its neighbours' grouping.
///
/// Determinism: for fixed inputs the result is a pure function of
/// (net, config, params) — the engine memoizes it under
/// `Scenario::schedule_key()`, which covers every `ScheduleParams` field.
Schedule build_schedule(const core::Network& net, ExecConfig config,
                        const ScheduleParams& params = {});

}  // namespace mbs::sched
