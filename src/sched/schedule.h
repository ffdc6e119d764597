// Schedule IR: the output of the MBS scheduler.
//
// A schedule partitions the network's blocks into contiguous layer groups;
// each group propagates the mini-batch in sub-batch sized chunks so that the
// group's peak per-sample footprint times the sub-batch size fits in the
// on-chip global buffer (Sec. 3).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/network.h"
#include "sched/config.h"

namespace mbs::sched {

/// Scheduler inputs. Every field is part of `engine::Scenario`'s schedule
/// cache key, so two scenarios with equal params share one schedule.
struct ScheduleParams {
  std::int64_t buffer_bytes = 10ll * 1024 * 1024;  ///< per-core global buffer
  int mini_batch = 0;       ///< 0: use the network's per-core default
  bool optimal_grouping = false;  ///< use DP instead of greedy merging
  core::DataType feature_type = core::DataType::kF16;
};

/// One layer group: the contiguous blocks [first, last], run with a common
/// sub-batch size.
struct Group {
  int first = 0;      ///< first block index (inclusive)
  int last = 0;       ///< last block index (inclusive)
  int sub_batch = 1;  ///< samples per sub-batch iteration
  int iterations = 1; ///< ceil(mini_batch / sub_batch)

  /// Chunk sizes per iteration, greedy-filled: `sub_batch` for every
  /// iteration except a smaller final remainder (Fig. 5's "3,3,...,3,2").
  std::vector<int> chunks(int mini_batch) const;

  /// `count` consecutive chunks of `size` samples.
  struct ChunkClass {
    int count = 0;
    int size = 0;
  };
  /// chunks() run-length encoded: mini_batch / sub_batch chunks of
  /// sub_batch, then one remainder chunk (count 0 when sub_batch divides
  /// mini_batch). Equal chunks do identical work, so per-chunk costs need
  /// one evaluation per class.
  std::array<ChunkClass, 2> chunk_classes(int mini_batch) const;
};

/// A complete schedule for one network and execution configuration.
struct Schedule {
  ExecConfig config = ExecConfig::kBaseline;
  int mini_batch = 32;
  std::int64_t buffer_bytes = 0;
  /// Contiguous groups covering all blocks exactly once, ordered by first
  /// block.
  std::vector<Group> groups;

  /// Per-block per-sample footprint under this config's reuse policy.
  std::vector<std::int64_t> block_footprint;
  /// Per-block maximum sub-batch size (clamped to [1, mini_batch]).
  std::vector<int> block_max_sub;

  /// Group index owning `block`.
  int group_of_block(int block) const;
  /// Sub-batch iterations executed over `block`.
  int iterations_of_block(int block) const;
  /// Total sub-batch iterations across all groups.
  int total_iterations() const;
  /// True if `block` starts a group (its input tensor is loaded from DRAM
  /// at a group boundary): block 0, or a block whose predecessor belongs to
  /// a different group.
  bool is_group_boundary(int block) const;

  /// Checks structural invariants (cover, ordering, chunk sums, capacity).
  /// Returns an empty string when valid, else a description of the violation.
  std::string validate(const core::Network& net) const;
};

/// Computes the per-sample footprint of every block under `config`'s reuse
/// policy: Eq. 1/2 provisioning for MBS2, per-branch peaks otherwise.
std::vector<std::int64_t> block_footprints(const core::Network& net,
                                           ExecConfig config,
                                           core::DataType t);

/// Maximum sub-batch size for a per-sample footprint: floor(buffer /
/// footprint), clamped to [1, mini_batch].
int max_sub_batch(std::int64_t footprint_per_sample, std::int64_t buffer_bytes,
                  int mini_batch);

/// ceil(mini_batch / sub_batch).
int iterations_for(int mini_batch, int sub_batch);

}  // namespace mbs::sched
