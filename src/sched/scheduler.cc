#include "sched/scheduler.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "sched/traffic.h"

namespace mbs::sched {

namespace {

/// Recomputes each group's sub-batch size and iteration count from its
/// blocks' individual limits (a group runs at the tightest block's size).
void refresh_groups(Schedule& s) {
  for (Group& g : s.groups) {
    int sub = s.mini_batch;
    for (int b = g.first; b <= g.last; ++b)
      sub = std::min(sub, s.block_max_sub[static_cast<std::size_t>(b)]);
    g.sub_batch = sub;
    g.iterations = iterations_for(s.mini_batch, sub);
  }
}

/// Initial grouping: maximal runs of blocks with equal minimum iteration
/// count (the red line of Fig. 4 determines the cut points).
std::vector<Group> initial_groups(const Schedule& s, int n_blocks) {
  std::vector<Group> groups;
  int start = 0;
  auto iters = [&](int b) {
    return iterations_for(s.mini_batch,
                          s.block_max_sub[static_cast<std::size_t>(b)]);
  };
  for (int b = 1; b <= n_blocks; ++b) {
    if (b == n_blocks || iters(b) != iters(start)) {
      Group g;
      g.first = start;
      g.last = b - 1;
      groups.push_back(g);
      start = b;
    }
  }
  return groups;
}

/// Greedy merging: repeatedly apply the adjacent-group merge that reduces
/// total modeled DRAM traffic the most, until no merge helps (Sec. 3).
void greedy_merge(DramObjective& objective, Schedule& s) {
  refresh_groups(s);
  double best = objective(s);
  Schedule cand = s;  // one candidate buffer, refilled for every merge tried
  while (s.groups.size() > 1) {
    int best_idx = -1;
    double best_traffic = best;
    for (std::size_t g = 0; g + 1 < s.groups.size(); ++g) {
      cand.groups = s.groups;
      cand.groups[g].last = cand.groups[g + 1].last;
      cand.groups.erase(cand.groups.begin() + static_cast<std::ptrdiff_t>(g) + 1);
      refresh_groups(cand);
      const double traffic = objective(cand);
      if (traffic < best_traffic) {
        best_traffic = traffic;
        best_idx = static_cast<int>(g);
      }
    }
    if (best_idx < 0) break;
    s.groups[static_cast<std::size_t>(best_idx)].last =
        s.groups[static_cast<std::size_t>(best_idx) + 1].last;
    s.groups.erase(s.groups.begin() + best_idx + 1);
    refresh_groups(s);
    best = best_traffic;
  }
}

/// Optimal contiguous partition via dynamic programming (footnote 1):
/// dp[j] = min_i dp[i] + cost(i, j), where cost is the traffic of a
/// schedule containing group [i, j) with every other block in a singleton
/// group, minus the singleton baseline (a constant shift that preserves the
/// argmin). This is exact when traffic is additive over groups, i.e. when
/// the DRAM bytes of a group's blocks do not depend on how the other blocks
/// are grouped. That holds for the CNNs. It does not hold for pre-norm
/// residual stacks (vit_*, transformer_base), where a block's Add routes
/// its gradient through the next block's identity shortcut, so the
/// gradient's location depends on the neighbours' grouping; there the DP is
/// a heuristic. `sched_test` checks both facts.
void dp_optimal(const core::Network& net, DramObjective& objective,
                Schedule& s) {
  const int n = static_cast<int>(net.blocks.size());

  // Singleton baseline: every block its own group.
  Schedule singles = s;
  singles.groups.clear();
  for (int b = 0; b < n; ++b) {
    Group g;
    g.first = g.last = b;
    singles.groups.push_back(g);
  }
  refresh_groups(singles);

  // cost(i, j): traffic with blocks [i, j] merged and all others singleton.
  Schedule cand = singles;  // one candidate buffer, refilled per cost
  auto cost = [&](int i, int j) {
    cand.groups.clear();
    for (int b = 0; b < i; ++b) cand.groups.push_back(Group{b, b, 1, 1});
    cand.groups.push_back(Group{i, j, 1, 1});
    for (int b = j + 1; b < n; ++b)
      cand.groups.push_back(Group{b, b, 1, 1});
    refresh_groups(cand);
    return objective(cand);
  };
  const double base = objective(singles);

  std::vector<double> dp(static_cast<std::size_t>(n) + 1,
                         std::numeric_limits<double>::infinity());
  std::vector<int> cut(static_cast<std::size_t>(n) + 1, 0);
  dp[0] = 0;
  for (int j = 1; j <= n; ++j) {
    for (int i = 0; i < j; ++i) {
      const double c = dp[static_cast<std::size_t>(i)] +
                       (cost(i, j - 1) - base);
      if (c < dp[static_cast<std::size_t>(j)]) {
        dp[static_cast<std::size_t>(j)] = c;
        cut[static_cast<std::size_t>(j)] = i;
      }
    }
  }
  std::vector<Group> groups;
  for (int j = n; j > 0; j = cut[static_cast<std::size_t>(j)]) {
    Group g;
    g.first = cut[static_cast<std::size_t>(j)];
    g.last = j - 1;
    groups.push_back(g);
  }
  std::reverse(groups.begin(), groups.end());
  s.groups = std::move(groups);
  refresh_groups(s);
}

}  // namespace

Schedule build_schedule(const core::Network& net, ExecConfig config,
                        const ScheduleParams& params) {
  Schedule s;
  s.config = config;
  s.mini_batch =
      params.mini_batch > 0 ? params.mini_batch : net.mini_batch_per_core;
  s.buffer_bytes = params.buffer_bytes;
  s.block_footprint = block_footprints(net, config, params.feature_type);
  s.block_max_sub.reserve(s.block_footprint.size());
  for (std::int64_t fp : s.block_footprint)
    s.block_max_sub.push_back(
        max_sub_batch(fp, s.buffer_bytes, s.mini_batch));

  const int n = static_cast<int>(net.blocks.size());
  assert(n > 0);

  if (!uses_serialization(config)) {
    Group g;
    g.first = 0;
    g.last = n - 1;
    g.sub_batch = s.mini_batch;
    g.iterations = 1;
    s.groups.push_back(g);
    return s;
  }

  if (config == ExecConfig::kMbsFs) {
    // Full serialization: a single group at the tightest block's sub-batch.
    Group g;
    g.first = 0;
    g.last = n - 1;
    s.groups.push_back(g);
    refresh_groups(s);
    return s;
  }

  s.groups = initial_groups(s, n);
  refresh_groups(s);
  // Every search scores its candidates with one objective, which builds the
  // network's dataflow graph once.
  DramObjective objective(net);
  if (params.optimal_grouping)
    dp_optimal(net, objective, s);
  else
    greedy_merge(objective, s);
  return s;
}

}  // namespace mbs::sched
