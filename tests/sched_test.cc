// Tests for the MBS scheduler and the traffic model: structural invariants
// of every (network, config) pair, the grouping algorithms, and the traffic
// orderings the paper's evaluation rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "models/zoo.h"
#include "sched/config.h"
#include "sched/scheduler.h"
#include "sched/traffic.h"

namespace mbs::sched {
namespace {

using core::Network;

const ExecConfig kAllConfigs[] = {ExecConfig::kBaseline, ExecConfig::kArchOpt,
                                  ExecConfig::kIL,       ExecConfig::kMbsFs,
                                  ExecConfig::kMbs1,     ExecConfig::kMbs2};

// ---- Basic helpers ----------------------------------------------------------

TEST(Config, Predicates) {
  EXPECT_FALSE(uses_weight_double_buffering(ExecConfig::kBaseline));
  EXPECT_TRUE(uses_weight_double_buffering(ExecConfig::kArchOpt));
  EXPECT_TRUE(uses_weight_double_buffering(ExecConfig::kMbs2));
  EXPECT_FALSE(uses_serialization(ExecConfig::kIL));
  EXPECT_TRUE(uses_serialization(ExecConfig::kMbsFs));
  EXPECT_TRUE(uses_serialization(ExecConfig::kMbs1));
  EXPECT_FALSE(uses_inter_branch_reuse(ExecConfig::kMbs1));
  EXPECT_TRUE(uses_inter_branch_reuse(ExecConfig::kMbs2));
  EXPECT_TRUE(uses_relu_masks(ExecConfig::kMbs2));
  EXPECT_FALSE(uses_relu_masks(ExecConfig::kBaseline));
}

TEST(SubBatch, MaxSubBatchClamps) {
  EXPECT_EQ(max_sub_batch(1, 1024, 32), 32);     // tiny footprint -> mini-batch
  EXPECT_EQ(max_sub_batch(1024, 1024, 32), 1);   // exactly one sample
  EXPECT_EQ(max_sub_batch(2048, 1024, 32), 1);   // even one sample spills
  EXPECT_EQ(max_sub_batch(100, 1000, 32), 10);
}

TEST(SubBatch, IterationsCeil) {
  EXPECT_EQ(iterations_for(32, 32), 1);
  EXPECT_EQ(iterations_for(32, 17), 2);
  EXPECT_EQ(iterations_for(32, 3), 11);
  EXPECT_EQ(iterations_for(32, 1), 32);
}

TEST(Group, ChunksGreedyFill) {
  Group g;
  g.sub_batch = 3;
  g.iterations = 11;
  const auto chunks = g.chunks(32);
  ASSERT_EQ(chunks.size(), 11u);  // Fig. 5: 3,3,3,3,3,3,3,3,3,3,2
  int sum = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i], i + 1 < chunks.size() ? 3 : 2);
    sum += chunks[i];
  }
  EXPECT_EQ(sum, 32);
  const auto classes = g.chunk_classes(32);  // ten 3s, then one 2
  EXPECT_EQ(classes[0].count, 10);
  EXPECT_EQ(classes[0].size, 3);
  EXPECT_EQ(classes[1].count, 1);
  EXPECT_EQ(classes[1].size, 2);
}

TEST(Group, ChunksExactDivision) {
  Group g;
  g.sub_batch = 8;
  g.iterations = 4;
  const auto chunks = g.chunks(32);
  ASSERT_EQ(chunks.size(), 4u);
  for (int c : chunks) EXPECT_EQ(c, 8);
  const auto classes = g.chunk_classes(32);  // no remainder chunk
  EXPECT_EQ(classes[0].count, 4);
  EXPECT_EQ(classes[0].size, 8);
  EXPECT_EQ(classes[1].count, 0);
}

// ---- Parameterized invariants over every (network, config) pair ------------

class ScheduleInvariants
    : public ::testing::TestWithParam<std::tuple<std::string, ExecConfig>> {};

TEST_P(ScheduleInvariants, ValidatesAndCoversAllBlocks) {
  const Network net = models::make_network(std::get<0>(GetParam()));
  const Schedule s = build_schedule(net, std::get<1>(GetParam()));
  EXPECT_EQ(s.validate(net), "");
  EXPECT_EQ(s.groups.front().first, 0);
  EXPECT_EQ(s.groups.back().last, static_cast<int>(net.blocks.size()) - 1);
  // Every block belongs to exactly one group.
  for (int b = 0; b < static_cast<int>(net.blocks.size()); ++b)
    EXPECT_GE(s.group_of_block(b), 0);
}

TEST_P(ScheduleInvariants, SerializedFootprintsFitTheBuffer) {
  const Network net = models::make_network(std::get<0>(GetParam()));
  const ExecConfig cfg = std::get<1>(GetParam());
  const Schedule s = build_schedule(net, cfg);
  if (!uses_serialization(cfg)) {
    EXPECT_EQ(s.groups.size(), 1u);
    EXPECT_EQ(s.groups[0].iterations, 1);
    return;
  }
  for (const Group& g : s.groups)
    for (int b = g.first; b <= g.last; ++b) {
      const auto fp = s.block_footprint[static_cast<std::size_t>(b)];
      if (g.sub_batch > 1) {
        EXPECT_LE(fp * g.sub_batch, s.buffer_bytes)
            << "block " << b << " sub-batch " << g.sub_batch;
      }
    }
}

TEST_P(ScheduleInvariants, TrafficIsPositiveAndFinite) {
  const Network net = models::make_network(std::get<0>(GetParam()));
  const Schedule s = build_schedule(net, std::get<1>(GetParam()));
  const Traffic t = compute_traffic(net, s);
  EXPECT_GT(t.dram_bytes(), 0);
  EXPECT_GT(t.buffer_bytes(), 0);
  EXPECT_GE(t.dram_read_bytes(), 0);
  EXPECT_GE(t.dram_write_bytes(), 0);
  EXPECT_NEAR(t.dram_bytes(), t.dram_read_bytes() + t.dram_write_bytes(),
              1.0);
}

TEST_P(ScheduleInvariants, MasksOnlyUnderMbs) {
  const Network net = models::make_network(std::get<0>(GetParam()));
  const ExecConfig cfg = std::get<1>(GetParam());
  const Schedule s = build_schedule(net, cfg);
  const Traffic t = compute_traffic(net, s);
  const double mask = t.dram_bytes_by_class(TrafficClass::kMask);
  if (uses_relu_masks(cfg) && net.name != "AlexNet") {
    EXPECT_GT(mask, 0);
  }
  if (!uses_relu_masks(cfg)) {
    EXPECT_EQ(mask, 0);
  }
}

std::string schedule_invariant_name(
    const ::testing::TestParamInfo<std::tuple<std::string, ExecConfig>>&
        info) {
  std::string name = std::get<0>(info.param);
  name += "_";
  name += to_string(std::get<1>(info.param));
  for (char& c : name)
    if (c == '-') c = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllNetworksAllConfigs, ScheduleInvariants,
    ::testing::Combine(::testing::ValuesIn(models::evaluated_network_names()),
                       ::testing::ValuesIn(kAllConfigs)),
    schedule_invariant_name);

// The Transformer family must satisfy the same structural invariants under
// every configuration — the zoo-growth contract of docs/WORKLOADS.md.
INSTANTIATE_TEST_SUITE_P(
    TransformerFamilyAllConfigs, ScheduleInvariants,
    ::testing::Combine(
        ::testing::ValuesIn(models::transformer_network_names()),
        ::testing::ValuesIn(kAllConfigs)),
    schedule_invariant_name);

// ---- Traffic orderings (the paper's Fig. 10c structure) ---------------------

class TrafficOrdering : public ::testing::TestWithParam<std::string> {
 protected:
  double traffic(ExecConfig cfg) const {
    const Network net = models::make_network(GetParam());
    return dram_traffic_bytes(net, build_schedule(net, cfg));
  }
};

TEST_P(TrafficOrdering, BaselineEqualsArchOpt) {
  // Weight double buffering changes timing, not bytes moved.
  EXPECT_DOUBLE_EQ(traffic(ExecConfig::kBaseline),
                   traffic(ExecConfig::kArchOpt));
}

TEST_P(TrafficOrdering, IlNeverExceedsBaseline) {
  EXPECT_LE(traffic(ExecConfig::kIL), traffic(ExecConfig::kBaseline));
}

TEST_P(TrafficOrdering, Mbs1BeatsMbsFs) {
  // Greedy grouping dominates naive full serialization (Sec. 6).
  EXPECT_LT(traffic(ExecConfig::kMbs1), traffic(ExecConfig::kMbsFs));
}

TEST_P(TrafficOrdering, Mbs2NeverWorseThanMbs1) {
  EXPECT_LE(traffic(ExecConfig::kMbs2), traffic(ExecConfig::kMbs1) * 1.0001);
}

TEST_P(TrafficOrdering, Mbs2CutsDeepCnnTrafficSubstantially) {
  if (GetParam() == "alexnet") GTEST_SKIP() << "AlexNet is compute dominated";
  // Paper: 71-78% DRAM traffic reduction for the deep CNNs (Sec. 6).
  EXPECT_LT(traffic(ExecConfig::kMbs2),
            0.45 * traffic(ExecConfig::kArchOpt));
}

INSTANTIATE_TEST_SUITE_P(AllNetworks, TrafficOrdering,
                         ::testing::ValuesIn(models::evaluated_network_names()));

// ---- Grouping algorithms -----------------------------------------------------

TEST(Grouping, ResNet50SubBatchSizesGrowMonotonically) {
  // Down-sampling shrinks features, so deeper groups admit larger
  // sub-batches (Fig. 5: 3 -> 6 -> 11 -> 16 in the paper's run).
  const Network net = models::make_network("resnet50");
  const Schedule s = build_schedule(net, ExecConfig::kMbs2);
  ASSERT_GE(s.groups.size(), 2u);
  for (std::size_t g = 1; g < s.groups.size(); ++g)
    EXPECT_GE(s.groups[g].sub_batch, s.groups[g - 1].sub_batch);
}

TEST(Grouping, GreedyNeverWorseThanInitialOrFs) {
  for (const auto& name : models::evaluated_network_names()) {
    const Network net = models::make_network(name);
    const double greedy =
        dram_traffic_bytes(net, build_schedule(net, ExecConfig::kMbs1));
    const double fs =
        dram_traffic_bytes(net, build_schedule(net, ExecConfig::kMbsFs));
    EXPECT_LE(greedy, fs * 1.0001) << name;
  }
}

TEST(Grouping, DpOptimalNeverWorseThanGreedy) {
  // Footnote 1: exhaustive grouping improves traffic by roughly 1%.
  ScheduleParams opt;
  opt.optimal_grouping = true;
  for (const auto& name : {"resnet50", "alexnet"}) {
    const Network net = models::make_network(name);
    const double greedy =
        dram_traffic_bytes(net, build_schedule(net, ExecConfig::kMbs2));
    const double dp = dram_traffic_bytes(
        net, build_schedule(net, ExecConfig::kMbs2, opt));
    EXPECT_LE(dp, greedy * 1.0001) << name;
    // ... and greedy stays close to optimal.
    EXPECT_LE(greedy, dp * 1.08) << name;
  }
}

TEST(Grouping, MbsFsIsSingleGroup) {
  const Network net = models::make_network("resnet50");
  const Schedule s = build_schedule(net, ExecConfig::kMbsFs);
  EXPECT_EQ(s.groups.size(), 1u);
}

TEST(Grouping, BufferSizeMonotonicity) {
  // A larger global buffer can only reduce MBS traffic (Fig. 11).
  const Network net = models::make_network("resnet50");
  double prev = 1e300;
  for (double mib : {5.0, 10.0, 20.0, 30.0, 40.0}) {
    ScheduleParams p;
    p.buffer_bytes = static_cast<std::int64_t>(mib * 1024 * 1024);
    const double t =
        dram_traffic_bytes(net, build_schedule(net, ExecConfig::kMbs2, p));
    EXPECT_LE(t, prev * 1.0001) << mib << " MiB";
    prev = t;
  }
}

// ---- Group structure --------------------------------------------------------

/// Field-by-field equality of two schedules, down to the bit pattern of
/// every group and footprint entry.
void expect_bitwise_equal(const Schedule& a, const Schedule& b) {
  EXPECT_EQ(a.config, b.config);
  EXPECT_EQ(a.mini_batch, b.mini_batch);
  EXPECT_EQ(a.buffer_bytes, b.buffer_bytes);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].first, b.groups[g].first) << "group " << g;
    EXPECT_EQ(a.groups[g].last, b.groups[g].last) << "group " << g;
    EXPECT_EQ(a.groups[g].sub_batch, b.groups[g].sub_batch) << "group " << g;
    EXPECT_EQ(a.groups[g].iterations, b.groups[g].iterations) << "group " << g;
  }
  EXPECT_EQ(a.block_footprint, b.block_footprint);
  EXPECT_EQ(a.block_max_sub, b.block_max_sub);
}

TEST(Grouping, BoundaryPredicateMatchesFirstBlockRule) {
  // The predecessor-based boundary rule must coincide with "block is some
  // group's first".
  const Network net = models::make_network("resnet50");
  for (ExecConfig cfg : kAllConfigs) {
    const Schedule s = build_schedule(net, cfg);
    for (int b = 0; b < static_cast<int>(net.blocks.size()); ++b) {
      bool is_first = false;
      for (const Group& g : s.groups) is_first |= (g.first == b);
      EXPECT_EQ(s.is_group_boundary(b), is_first)
          << to_string(cfg) << " block " << b;
    }
  }
}

TEST(Grouping, HandBuiltScheduleAccessorsAndValidation) {
  // A hand-built schedule: membership, boundaries, and the validate()
  // cover/ordering checks follow the [first, last] ranges.
  Schedule s;
  s.config = ExecConfig::kMbs1;
  s.mini_batch = 4;
  s.buffer_bytes = 1 << 20;
  s.groups = {Group{0, 1, 4, 1}, Group{2, 2, 4, 1}};
  s.block_footprint = {1, 1, 1};
  s.block_max_sub = {4, 4, 4};
  EXPECT_EQ(s.group_of_block(0), 0);
  EXPECT_EQ(s.group_of_block(1), 0);
  EXPECT_EQ(s.group_of_block(2), 1);
  EXPECT_EQ(s.group_of_block(3), -1);
  EXPECT_TRUE(s.is_group_boundary(0));
  EXPECT_FALSE(s.is_group_boundary(1));
  EXPECT_TRUE(s.is_group_boundary(2));

  core::Network net;
  net.name = "toy";
  net.input = core::FeatureShape{1, 4, 4};
  for (int i = 0; i < 3; ++i)
    net.blocks.push_back(core::make_simple_block(
        "b" + std::to_string(i),
        {core::make_act("act" + std::to_string(i), net.input)}));
  EXPECT_EQ(s.validate(net), "");
  // A gap between groups is caught.
  s.groups[0].last = 0;
  EXPECT_NE(s.validate(net), "");
  // So is an overlap.
  s.groups[0].last = 2;
  EXPECT_NE(s.validate(net), "");
  // And a first > last group.
  s.groups[0].last = 1;
  s.groups[1].first = 2;
  s.groups[1].last = 1;
  EXPECT_NE(s.validate(net), "");
}

TEST(Grouping, MiniBatchOverrideRespected) {
  const Network net = models::make_network("resnet50");
  ScheduleParams p;
  p.mini_batch = 64;
  const Schedule s = build_schedule(net, ExecConfig::kMbs2, p);
  EXPECT_EQ(s.mini_batch, 64);
  EXPECT_EQ(s.validate(net), "");
}

// ---- Search oracles ----------------------------------------------------------

// The three grouping searches as first written: every candidate is a fresh
// Schedule copy scored with compute_traffic(...).dram_bytes(). build_schedule
// scores candidates with DramObjective and reuses one candidate buffer; it
// must pick exactly the schedules these oracles pick.

double full_model_traffic(const Network& net, const Schedule& s) {
  return compute_traffic(net, s).dram_bytes();
}

void oracle_refresh_groups(Schedule& s) {
  for (Group& g : s.groups) {
    int sub = s.mini_batch;
    for (int b = g.first; b <= g.last; ++b)
      sub = std::min(sub, s.block_max_sub[static_cast<std::size_t>(b)]);
    g.sub_batch = sub;
    g.iterations = iterations_for(s.mini_batch, sub);
  }
}

/// build_schedule's MBS1/MBS2 starting point: footprints, per-block
/// sub-batch limits and the initial equal-iteration groups.
Schedule oracle_initial_schedule(const Network& net, ExecConfig cfg,
                                 const ScheduleParams& p) {
  Schedule s;
  s.config = cfg;
  s.mini_batch = p.mini_batch > 0 ? p.mini_batch : net.mini_batch_per_core;
  s.buffer_bytes = p.buffer_bytes;
  s.block_footprint = block_footprints(net, cfg, p.feature_type);
  for (std::int64_t fp : s.block_footprint)
    s.block_max_sub.push_back(max_sub_batch(fp, s.buffer_bytes, s.mini_batch));
  const int n = static_cast<int>(net.blocks.size());
  auto iters = [&](int b) {
    return iterations_for(s.mini_batch,
                          s.block_max_sub[static_cast<std::size_t>(b)]);
  };
  int start = 0;
  for (int b = 1; b <= n; ++b) {
    if (b == n || iters(b) != iters(start)) {
      s.groups.push_back(Group{start, b - 1, 1, 1});
      start = b;
    }
  }
  oracle_refresh_groups(s);
  return s;
}

Schedule oracle_greedy(const Network& net, Schedule s) {
  double best = full_model_traffic(net, s);
  while (s.groups.size() > 1) {
    int best_idx = -1;
    double best_traffic = best;
    for (std::size_t g = 0; g + 1 < s.groups.size(); ++g) {
      Schedule cand = s;
      cand.groups[g].last = cand.groups[g + 1].last;
      cand.groups.erase(cand.groups.begin() + static_cast<std::ptrdiff_t>(g) + 1);
      oracle_refresh_groups(cand);
      const double traffic = full_model_traffic(net, cand);
      if (traffic < best_traffic) {
        best_traffic = traffic;
        best_idx = static_cast<int>(g);
      }
    }
    if (best_idx < 0) break;
    s.groups[static_cast<std::size_t>(best_idx)].last =
        s.groups[static_cast<std::size_t>(best_idx) + 1].last;
    s.groups.erase(s.groups.begin() + best_idx + 1);
    oracle_refresh_groups(s);
    best = best_traffic;
  }
  return s;
}

/// Schedule `base` regrouped as `groups` (sub-batches and iterations
/// recomputed from the per-block limits).
Schedule regrouped(Schedule base, std::vector<Group> groups) {
  base.groups = std::move(groups);
  oracle_refresh_groups(base);
  return base;
}

/// Groups [i, j] merged, every other block of `n` a singleton.
std::vector<Group> merged_among_singletons(int n, int i, int j) {
  std::vector<Group> groups;
  for (int b = 0; b < i; ++b) groups.push_back(Group{b, b, 1, 1});
  groups.push_back(Group{i, j, 1, 1});
  for (int b = j + 1; b < n; ++b) groups.push_back(Group{b, b, 1, 1});
  return groups;
}

Schedule oracle_dp(const Network& net, const Schedule& s) {
  const int n = static_cast<int>(net.blocks.size());
  const double base =
      full_model_traffic(net, regrouped(s, merged_among_singletons(n, 0, 0)));
  std::vector<double> dp(static_cast<std::size_t>(n) + 1,
                         std::numeric_limits<double>::infinity());
  std::vector<int> cut(static_cast<std::size_t>(n) + 1, 0);
  dp[0] = 0;
  for (int j = 1; j <= n; ++j)
    for (int i = 0; i < j; ++i) {
      const double cost = full_model_traffic(
          net, regrouped(s, merged_among_singletons(n, i, j - 1)));
      const double c = dp[static_cast<std::size_t>(i)] + (cost - base);
      if (c < dp[static_cast<std::size_t>(j)]) {
        dp[static_cast<std::size_t>(j)] = c;
        cut[static_cast<std::size_t>(j)] = i;
      }
    }
  std::vector<Group> groups;
  for (int j = n; j > 0; j = cut[static_cast<std::size_t>(j)])
    groups.push_back(Group{cut[static_cast<std::size_t>(j)], j - 1, 1, 1});
  std::reverse(groups.begin(), groups.end());
  return regrouped(s, std::move(groups));
}

/// One cell of the oracle grid.
struct SearchCase {
  std::string net;
  ExecConfig cfg;
  ScheduleParams params;
};

/// Every zoo network x {MBS1, MBS2} x buffers {2, 5, 10, 40} MiB x
/// mini-batches {default, 8, 17, 64}.
std::vector<SearchCase> search_grid() {
  std::vector<SearchCase> cases;
  for (const auto& name : models::all_network_names())
    for (ExecConfig cfg : {ExecConfig::kMbs1, ExecConfig::kMbs2})
      for (std::int64_t mib : {2, 5, 10, 40})
        for (int mini_batch : {0, 8, 17, 64}) {
          ScheduleParams p;
          p.buffer_bytes = mib * 1024 * 1024;
          p.mini_batch = mini_batch;
          cases.push_back({name, cfg, p});
        }
  return cases;
}

/// `per_network` seeded random cells of search_grid() per network. The DP
/// (O(blocks^2) candidates per schedule) needs too many full-model
/// evaluations for its oracle to cover the whole grid in a unit test.
std::vector<SearchCase> sampled_search_grid(int per_network) {
  const std::vector<SearchCase> grid = search_grid();
  const auto cells = static_cast<std::ptrdiff_t>(
      grid.size() / models::all_network_names().size());
  std::mt19937 rng(14);
  std::vector<SearchCase> sample;
  for (auto first = grid.begin(); first != grid.end(); first += cells)
    std::sample(first, first + cells, std::back_inserter(sample), per_network,
                rng);
  return sample;
}

constexpr int kDpSample = 1;

std::string describe(const SearchCase& c) {
  return c.net + " " + to_string(c.cfg) + " " +
         std::to_string(c.params.buffer_bytes >> 20) + " MiB, mini-batch " +
         std::to_string(c.params.mini_batch);
}

TEST(SearchOracles, GreedyMatchesFullModelOracle) {
  for (const SearchCase& c : search_grid()) {
    SCOPED_TRACE(describe(c));
    const Network net = models::make_network(c.net);
    expect_bitwise_equal(
        build_schedule(net, c.cfg, c.params),
        oracle_greedy(net, oracle_initial_schedule(net, c.cfg, c.params)));
  }
}

TEST(SearchOracles, DpMatchesFullModelOracle) {
  for (SearchCase c : sampled_search_grid(kDpSample)) {
    SCOPED_TRACE(describe(c));
    c.params.optimal_grouping = true;
    const Network net = models::make_network(c.net);
    expect_bitwise_equal(
        build_schedule(net, c.cfg, c.params),
        oracle_dp(net, oracle_initial_schedule(net, c.cfg, c.params)));
  }
}

// ---- Footprint policies ------------------------------------------------------

TEST(Footprints, InterBranchAtLeastPerBranch) {
  for (const auto& name : models::evaluated_network_names()) {
    const Network net = models::make_network(name);
    const auto per_branch =
        block_footprints(net, ExecConfig::kMbs1, core::DataType::kF16);
    const auto inter =
        block_footprints(net, ExecConfig::kMbs2, core::DataType::kF16);
    ASSERT_EQ(per_branch.size(), inter.size());
    for (std::size_t i = 0; i < inter.size(); ++i)
      EXPECT_GE(inter[i], per_branch[i]) << name << " block " << i;
  }
}

TEST(Footprints, Mbs2NeedsMoreIterationsThanMbs1) {
  // Eq. 1/2 provisioning shrinks sub-batches, so MBS2 runs at least as many
  // sub-batch iterations (Sec. 6's stated MBS2 cost).
  const Network net = models::make_network("resnet50");
  const Schedule s1 = build_schedule(net, ExecConfig::kMbs1);
  const Schedule s2 = build_schedule(net, ExecConfig::kMbs2);
  EXPECT_GE(s2.total_iterations(), s1.total_iterations());
}

// ---- Traffic class structure -------------------------------------------------

TEST(TrafficClasses, WeightTrafficScalesWithIterations) {
  const Network net = models::make_network("resnet50");
  const Traffic base =
      compute_traffic(net, build_schedule(net, ExecConfig::kBaseline));
  const Traffic fs =
      compute_traffic(net, build_schedule(net, ExecConfig::kMbsFs));
  // MBS-FS re-reads weights once per sub-batch iteration.
  EXPECT_GT(fs.dram_bytes_by_class(TrafficClass::kWeight),
            3 * base.dram_bytes_by_class(TrafficClass::kWeight));
}

TEST(TrafficClasses, AlexNetFsWeightBlowup) {
  // Sec. 6: AlexNet's FC weights make MBS-FS increase total traffic ~2.6x.
  const Network net = models::make_network("alexnet");
  const double base =
      dram_traffic_bytes(net, build_schedule(net, ExecConfig::kBaseline));
  const double fs =
      dram_traffic_bytes(net, build_schedule(net, ExecConfig::kMbsFs));
  EXPECT_GT(fs, 1.8 * base);
  EXPECT_LT(fs, 3.5 * base);
}

TEST(TrafficClasses, MbsEliminatesMostFeatureTraffic) {
  const Network net = models::make_network("resnet50");
  const Traffic base =
      compute_traffic(net, build_schedule(net, ExecConfig::kBaseline));
  const Traffic mbs2 =
      compute_traffic(net, build_schedule(net, ExecConfig::kMbs2));
  EXPECT_LT(mbs2.dram_bytes_by_class(TrafficClass::kFeature),
            0.1 * base.dram_bytes_by_class(TrafficClass::kFeature));
  EXPECT_LT(mbs2.dram_bytes_by_class(TrafficClass::kGradient),
            0.1 * base.dram_bytes_by_class(TrafficClass::kGradient));
}

TEST(TrafficClasses, StashSimilarAcrossConfigs) {
  // Data stored for backward reuse is fundamental to training, not to the
  // schedule; it should be the dominant remaining MBS traffic.
  const Network net = models::make_network("resnet50");
  const Traffic base =
      compute_traffic(net, build_schedule(net, ExecConfig::kBaseline));
  const Traffic mbs2 =
      compute_traffic(net, build_schedule(net, ExecConfig::kMbs2));
  const double sb = base.dram_bytes_by_class(TrafficClass::kStash);
  const double sm = mbs2.dram_bytes_by_class(TrafficClass::kStash);
  EXPECT_GT(sm, 0.5 * sb);
  EXPECT_LT(sm, 1.5 * sb);
}

TEST(TrafficClasses, InputTrafficIndependentOfConfig) {
  const Network net = models::make_network("resnet50");
  const Traffic a =
      compute_traffic(net, build_schedule(net, ExecConfig::kBaseline));
  const Traffic b =
      compute_traffic(net, build_schedule(net, ExecConfig::kMbs2));
  EXPECT_DOUBLE_EQ(a.dram_bytes_by_class(TrafficClass::kInput),
                   b.dram_bytes_by_class(TrafficClass::kInput));
}

TEST(TrafficClasses, PerBlockAttributionSumsToTotal) {
  const Network net = models::make_network("resnet50");
  const Schedule s = build_schedule(net, ExecConfig::kMbs2);
  const Traffic t = compute_traffic(net, s);
  double sum = 0;
  for (int b = 0; b < static_cast<int>(net.blocks.size()); ++b)
    sum += t.dram_bytes_for_block(b);
  EXPECT_NEAR(sum, t.dram_bytes(), t.dram_bytes() * 1e-9);
}

// ---- Grouping objective -------------------------------------------------------

/// A random contiguous partition of `n` blocks.
std::vector<Group> random_contiguous(int n, std::mt19937& rng) {
  std::bernoulli_distribution cut(std::uniform_real_distribution<>(0.05, 0.6)(rng));
  std::vector<Group> groups;
  int start = 0;
  for (int b = 1; b <= n; ++b)
    if (b == n || cut(rng)) {
      groups.push_back(Group{start, b - 1, 1, 1});
      start = b;
    }
  return groups;
}

/// Random scheduler inputs from the oracle grid's buffers and mini-batches.
ScheduleParams random_params(std::mt19937& rng) {
  const std::int64_t mib[] = {2, 5, 10, 40};
  const int mini_batch[] = {0, 8, 17, 64};
  std::uniform_int_distribution<> pick(0, 3);
  ScheduleParams p;
  p.buffer_bytes = mib[pick(rng)] * 1024 * 1024;
  p.mini_batch = mini_batch[pick(rng)];
  return p;
}

TEST(GroupingObjective, EqualsFullModelOnRandomPartitions) {
  std::mt19937 rng(1);
  for (const auto& name : models::all_network_names()) {
    const Network net = models::make_network(name);
    const int n = static_cast<int>(net.blocks.size());
    DramObjective objective(net);  // one objective across all schedules
    for (ExecConfig cfg : kAllConfigs)
      for (int trial = 0; trial < 4; ++trial) {
        const Schedule base = build_schedule(net, cfg, random_params(rng));
        const Schedule s = regrouped(base, random_contiguous(n, rng));
        const double full = compute_traffic(net, s).dram_bytes();
        EXPECT_EQ(objective(s), full) << name << " " << to_string(cfg);
        EXPECT_EQ(dram_traffic_bytes(net, s), full) << name;
      }
  }
}

TEST(GroupingObjective, DramBytesAreExactIntegers) {
  // Integer-valued byte counts below 2^53 add exactly in any order, so the
  // objective's comparisons between candidates never round.
  constexpr double kExactLimit = 9007199254740992.0;  // 2^53
  for (const auto& name : models::all_network_names()) {
    const Network net = models::make_network(name);
    for (ExecConfig cfg : kAllConfigs)
      for (std::int64_t mib : {2, 40})
        for (int mini_batch : {0, 64}) {
          ScheduleParams p;
          p.buffer_bytes = mib * 1024 * 1024;
          p.mini_batch = mini_batch;
          const Traffic t = compute_traffic(net, build_schedule(net, cfg, p));
          int inexact = 0;
          for (const TrafficRecord& r : t.records)
            for (double bytes : {r.dram_read, r.dram_write})
              inexact += bytes < 0 || bytes != std::floor(bytes);
          EXPECT_EQ(inexact, 0) << name << " " << to_string(cfg);
          EXPECT_LT(t.dram_read_bytes(), kExactLimit) << name;
          EXPECT_LT(t.dram_write_bytes(), kExactLimit) << name;
          EXPECT_LT(t.dram_bytes(), kExactLimit) << name;
        }
  }
}

/// DRAM bytes attributed to the blocks of `g`.
double group_dram_bytes(const Traffic& t, const Group& g) {
  double total = 0;
  for (int b = g.first; b <= g.last; ++b) total += t.dram_bytes_for_block(b);
  return total;
}

TEST(DpAdditivity, HoldsForEveryGroupOfTheCnns) {
  // The DP is exact only if a group's blocks move the same DRAM bytes
  // whatever the other blocks' grouping; it scores each group with every
  // other block a singleton.
  std::mt19937 rng(2);
  for (const auto& name : models::evaluated_network_names()) {
    const Network net = models::make_network(name);
    const int n = static_cast<int>(net.blocks.size());
    for (ExecConfig cfg : {ExecConfig::kMbs1, ExecConfig::kMbs2})
      for (int trial = 0; trial < 3; ++trial) {
        const Schedule base = build_schedule(net, cfg, random_params(rng));
        const Schedule s = regrouped(base, random_contiguous(n, rng));
        const Traffic t = compute_traffic(net, s);
        for (const Group& g : s.groups) {
          const Traffic alone = compute_traffic(
              net, regrouped(base, merged_among_singletons(n, g.first, g.last)));
          EXPECT_EQ(group_dram_bytes(t, g), group_dram_bytes(alone, g))
              << name << " " << to_string(cfg) << " group [" << g.first
              << "," << g.last << "]";
        }
      }
  }
}

TEST(DpAdditivity, FailsForPreNormResidualStacks) {
  // Block 10's Add routes its gradient through block 11's identity
  // shortcut, so where that gradient lives depends on whether blocks 11
  // and 12 share a group: the DP is a heuristic for these stacks.
  const Network net = models::make_network("transformer_base");
  const int n = static_cast<int>(net.blocks.size());
  ScheduleParams p;
  p.buffer_bytes = 5ll * 1024 * 1024;
  const Schedule greedy = build_schedule(net, ExecConfig::kMbs2, p);
  const Group g{10, 10, 1, 1};
  ASSERT_EQ(greedy.group_of_block(10),
            greedy.group_of_block(9) + 1);  // [10, 10] is a greedy group
  ASSERT_NE(greedy.group_of_block(10), greedy.group_of_block(11));
  EXPECT_EQ(group_dram_bytes(compute_traffic(net, greedy), g), 234885120.0);
  EXPECT_EQ(group_dram_bytes(
                compute_traffic(net, regrouped(greedy,
                                               merged_among_singletons(n, 10, 10))),
                g),
            241176576.0);
}

}  // namespace
}  // namespace mbs::sched
