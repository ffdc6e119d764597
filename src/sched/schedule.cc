#include "sched/schedule.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace mbs::sched {

std::vector<int> Group::chunks(int mini_batch) const {
  std::vector<int> out;
  for (const ChunkClass& c : chunk_classes(mini_batch))
    out.insert(out.end(), static_cast<std::size_t>(c.count), c.size);
  return out;
}

std::array<Group::ChunkClass, 2> Group::chunk_classes(int mini_batch) const {
  const int remainder = mini_batch % sub_batch;
  return {{{mini_batch / sub_batch, sub_batch},
           {remainder != 0 ? 1 : 0, remainder}}};
}

int Schedule::group_of_block(int block) const {
  for (std::size_t g = 0; g < groups.size(); ++g)
    if (block >= groups[g].first && block <= groups[g].last)
      return static_cast<int>(g);
  return -1;
}

int Schedule::iterations_of_block(int block) const {
  const int g = group_of_block(block);
  return g < 0 ? 1 : groups[static_cast<std::size_t>(g)].iterations;
}

int Schedule::total_iterations() const {
  int total = 0;
  for (const Group& g : groups) total += g.iterations;
  return total;
}

bool Schedule::is_group_boundary(int block) const {
  if (block <= 0) return true;
  return group_of_block(block - 1) != group_of_block(block);
}

std::string Schedule::validate(const core::Network& net) const {
  std::ostringstream err;
  const int n_blocks = static_cast<int>(net.blocks.size());
  if (groups.empty()) return "no groups";
  if (groups.front().first != 0) return "first group does not start at 0";
  if (groups.back().last != n_blocks - 1)
    return "last group does not end at last block";

  for (std::size_t g = 0; g < groups.size(); ++g) {
    const Group& grp = groups[g];
    if (grp.first > grp.last) {
      err << "group " << g << " has first > last";
      return err.str();
    }
    if (g > 0 && grp.first != groups[g - 1].last + 1) {
      err << "group " << g << " is not contiguous with its predecessor";
      return err.str();
    }
    if (grp.sub_batch < 1 || grp.sub_batch > mini_batch) {
      err << "group " << g << " sub-batch out of range";
      return err.str();
    }
    if (grp.iterations != iterations_for(mini_batch, grp.sub_batch)) {
      err << "group " << g << " iteration count inconsistent";
      return err.str();
    }
    int sum = 0;
    for (int c : grp.chunks(mini_batch)) {
      if (c < 1 || c > grp.sub_batch) {
        err << "group " << g << " chunk out of range";
        return err.str();
      }
      sum += c;
    }
    if (sum != mini_batch) {
      err << "group " << g << " chunks do not sum to the mini-batch";
      return err.str();
    }
    // Capacity: the sub-batch footprint of every block in the group must fit
    // in the buffer, unless even one sample exceeds it (sub_batch == 1).
    if (uses_serialization(config)) {
      for (int b = grp.first; b <= grp.last; ++b) {
        const auto fp = block_footprint[static_cast<std::size_t>(b)];
        if (grp.sub_batch > 1 &&
            fp * grp.sub_batch > buffer_bytes) {
          err << "group " << g << " block " << b
              << " exceeds the buffer at sub-batch " << grp.sub_batch;
          return err.str();
        }
      }
    }
  }
  return "";
}

std::vector<std::int64_t> block_footprints(const core::Network& net,
                                           ExecConfig config,
                                           core::DataType t) {
  std::vector<std::int64_t> out;
  out.reserve(net.blocks.size());
  for (const core::Block& b : net.blocks)
    out.push_back(uses_inter_branch_reuse(config) ? b.footprint_inter_branch(t)
                                                  : b.footprint_per_branch(t));
  return out;
}

int max_sub_batch(std::int64_t footprint_per_sample, std::int64_t buffer_bytes,
                  int mini_batch) {
  assert(footprint_per_sample > 0);
  const std::int64_t fit = buffer_bytes / footprint_per_sample;
  return static_cast<int>(
      std::clamp<std::int64_t>(fit, 1, mini_batch));
}

int iterations_for(int mini_batch, int sub_batch) {
  assert(sub_batch >= 1);
  return (mini_batch + sub_batch - 1) / sub_batch;
}

}  // namespace mbs::sched
