// Property-based tests: randomized sweeps over layer geometries, block
// structures and schedule parameters, checking the invariants the library's
// correctness rests on. Uses the deterministic RNG so failures reproduce.
#include <gtest/gtest.h>

#include "arch/systolic.h"
#include "core/block.h"
#include "core/layer.h"
#include "engine/evaluator.h"
#include "engine/scenario.h"
#include "engine/sweep_runner.h"
#include "models/zoo.h"
#include "sched/scheduler.h"
#include "sched/traffic.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace mbs {
namespace {

using core::Block;
using core::FeatureShape;
using core::Layer;

// ---- Random generators -------------------------------------------------------

core::Layer random_conv(util::Rng& rng, FeatureShape in) {
  const int kernel = 1 + 2 * static_cast<int>(rng.uniform_int(3));  // 1/3/5
  const int stride = 1 + static_cast<int>(rng.uniform_int(2));
  const int pad = kernel / 2;
  const int out_c = 1 << (3 + rng.uniform_int(6));  // 8..256
  return core::make_conv("c", in, out_c, kernel, stride, pad);
}

FeatureShape random_shape(util::Rng& rng) {
  const int c = 1 << (2 + rng.uniform_int(7));       // 4..256
  const int hw = 4 + static_cast<int>(rng.uniform_int(60));
  return FeatureShape{c, hw, hw};
}

// ---- Conv / GEMM properties ---------------------------------------------------

class RandomConvProperties : public ::testing::TestWithParam<int> {};

TEST_P(RandomConvProperties, GemmShapesConsistent) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 20; ++trial) {
    const Layer conv = random_conv(rng, random_shape(rng));
    const int n = 1 + static_cast<int>(rng.uniform_int(32));
    const auto fwd = arch::gemm_shape(conv, n, arch::GemmPass::kForward);
    const auto dgrad = arch::gemm_shape(conv, n, arch::GemmPass::kDataGrad);
    const auto wgrad = arch::gemm_shape(conv, n, arch::GemmPass::kWeightGrad);
    // Forward and weight-gradient GEMMs perform identical MAC counts
    // (Tab. 1: the dimensions are permutations of each other).
    EXPECT_EQ(fwd.macs(), wgrad.macs());
    // Forward MACs equal the layer's FLOP count over n samples.
    EXPECT_EQ(2 * fwd.macs(), conv.flops_per_sample() * n);
    // Weight-gradient output is exactly the weight tensor.
    EXPECT_EQ(wgrad.gh * wgrad.gw, conv.param_count());
    // Data-gradient Gh covers the input spatial grid (Tab. 1: N x Hi x Wi).
    EXPECT_EQ(dgrad.gh, static_cast<std::int64_t>(n) * conv.in.h * conv.in.w);
  }
}

TEST_P(RandomConvProperties, SystolicModelBounds) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  arch::SystolicConfig with;
  arch::SystolicConfig without = with;
  without.weight_double_buffering = false;
  for (int trial = 0; trial < 20; ++trial) {
    const Layer conv = random_conv(rng, random_shape(rng));
    const int n = 1 + static_cast<int>(rng.uniform_int(16));
    const auto shape = arch::gemm_shape(conv, n, arch::GemmPass::kForward);
    const auto a = arch::simulate_gemm(with, shape);
    const auto b = arch::simulate_gemm(without, shape);
    EXPECT_GT(a.cycles, 0);
    EXPECT_LE(a.cycles, b.cycles);          // double buffering never hurts
    EXPECT_LE(a.utilization, 1.0);
    EXPECT_GT(a.utilization, 0.0);
    EXPECT_GE(a.cycles * with.macs_per_cycle(), a.macs);  // physics
    EXPECT_EQ(a.macs, shape.macs());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomConvProperties, ::testing::Range(1, 6));

// ---- Block footprint properties ------------------------------------------------

class RandomBlockProperties : public ::testing::TestWithParam<int> {};

TEST_P(RandomBlockProperties, ResidualFootprintOrdering) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 77);
  for (int trial = 0; trial < 10; ++trial) {
    const int c = 16 << rng.uniform_int(4);
    const int hw = 7 * (1 + static_cast<int>(rng.uniform_int(8)));
    const FeatureShape in{c, hw, hw};
    const int planes = c / 4;
    std::vector<Layer> main;
    main.push_back(core::make_conv("a", in, planes, 1, 1, 0));
    main.push_back(core::make_norm("an", main.back().out));
    main.push_back(core::make_act("ar", main.back().out));
    main.push_back(core::make_conv("b", main.back().out, c, 3, 1, 1));
    main.push_back(core::make_norm("bn", main.back().out));
    const Block blk = core::make_residual_block("res", in, main, {});

    // Inter-branch provisioning (Eq. 1) needs at least the per-branch peak,
    // and at most per-branch + block-in + block-out (the conditional terms).
    const auto pb = blk.footprint_per_branch();
    const auto ib = blk.footprint_inter_branch();
    EXPECT_GE(ib, pb);
    EXPECT_LE(ib, pb + in.bytes() + blk.out.bytes());
    EXPECT_GT(pb, 0);
  }
}

TEST_P(RandomBlockProperties, InceptionFootprintOrdering) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 131);
  for (int trial = 0; trial < 10; ++trial) {
    const FeatureShape in{32 << rng.uniform_int(3), 17, 17};
    std::vector<std::vector<Layer>> branches;
    const int n_branches = 2 + static_cast<int>(rng.uniform_int(3));
    for (int b = 0; b < n_branches; ++b) {
      std::vector<Layer> chain;
      std::string name = "b";  // += avoids a GCC 12 false -Wrestrict
      name += std::to_string(b);
      chain.push_back(
          core::make_conv(name, in, 16 << rng.uniform_int(3), 1, 1, 0));
      if (rng.uniform() < 0.5)
        chain.push_back(core::make_conv(name + "x", chain.back().out,
                                        16 << rng.uniform_int(3), 3, 1, 1));
      branches.push_back(std::move(chain));
    }
    const Block blk = core::make_inception_block("mix", in, branches);
    EXPECT_GE(blk.footprint_inter_branch(), blk.footprint_per_branch());
    EXPECT_LE(blk.footprint_inter_branch(),
              blk.footprint_per_branch() + in.bytes() + blk.out.bytes());
    // Output channels are the branch sum.
    int c_sum = 0;
    for (const auto& br : blk.branches) c_sum += br.layers.back().out.c;
    EXPECT_EQ(blk.out.c, c_sum);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBlockProperties, ::testing::Range(1, 5));

// ---- Schedule properties over randomized parameters ----------------------------

class RandomScheduleProperties : public ::testing::TestWithParam<int> {};

TEST_P(RandomScheduleProperties, ValidAcrossBufferAndBatchSweep) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 313);
  const core::Network net = models::make_network(
      models::evaluated_network_names()[static_cast<std::size_t>(
          GetParam() - 1) % 6]);
  for (int trial = 0; trial < 6; ++trial) {
    sched::ScheduleParams p;
    p.buffer_bytes = (2 + static_cast<std::int64_t>(rng.uniform_int(62))) *
                     1024 * 1024;
    p.mini_batch = 1 << rng.uniform_int(8);  // 1..128
    for (auto cfg : {sched::ExecConfig::kMbsFs, sched::ExecConfig::kMbs1,
                     sched::ExecConfig::kMbs2}) {
      const sched::Schedule s = sched::build_schedule(net, cfg, p);
      EXPECT_EQ(s.validate(net), "")
          << net.name << " " << sched::to_string(cfg) << " buffer "
          << p.buffer_bytes << " batch " << p.mini_batch;
      EXPECT_GT(sched::dram_traffic_bytes(net, s), 0);
    }
  }
}

TEST_P(RandomScheduleProperties, TrafficScalesWithMiniBatch) {
  // Doubling the mini-batch should (weakly) increase every config's traffic.
  const core::Network net = models::make_network(
      models::evaluated_network_names()[static_cast<std::size_t>(
          GetParam() - 1) % 6]);
  for (auto cfg : {sched::ExecConfig::kBaseline, sched::ExecConfig::kMbs2}) {
    sched::ScheduleParams small;
    small.mini_batch = 16;
    sched::ScheduleParams big;
    big.mini_batch = 32;
    const double t_small =
        sched::dram_traffic_bytes(net, sched::build_schedule(net, cfg, small));
    const double t_big =
        sched::dram_traffic_bytes(net, sched::build_schedule(net, cfg, big));
    EXPECT_GT(t_big, t_small) << sched::to_string(cfg);
  }
}

TEST_P(RandomScheduleProperties, SingleSampleMiniBatchDegenerate) {
  // mini-batch 1: serialization has nothing to split; every group runs one
  // iteration and MBS traffic cannot exceed baseline by more than the
  // (empty) partial-sum overhead.
  const core::Network net = models::make_network(
      models::evaluated_network_names()[static_cast<std::size_t>(
          GetParam() - 1) % 6]);
  sched::ScheduleParams p;
  p.mini_batch = 1;
  const sched::Schedule s =
      sched::build_schedule(net, sched::ExecConfig::kMbs2, p);
  EXPECT_EQ(s.validate(net), "");
  for (const sched::Group& g : s.groups) EXPECT_EQ(g.iterations, 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomScheduleProperties,
                         ::testing::Range(1, 7));

// ---- Edge cases ---------------------------------------------------------------

TEST(EdgeCases, TinyBufferForcesSingleSampleSubBatches) {
  const core::Network net = models::make_network("resnet50");
  sched::ScheduleParams p;
  p.buffer_bytes = 1024;  // absurdly small: every footprint exceeds it
  const sched::Schedule s =
      sched::build_schedule(net, sched::ExecConfig::kMbs2, p);
  EXPECT_EQ(s.validate(net), "");
  for (const sched::Group& g : s.groups) EXPECT_EQ(g.sub_batch, 1);
}

TEST(EdgeCases, HugeBufferCollapsesToOneGroup) {
  const core::Network net = models::make_network("resnet50");
  sched::ScheduleParams p;
  p.buffer_bytes = 64ll * 1024 * 1024 * 1024;  // everything fits
  const sched::Schedule s =
      sched::build_schedule(net, sched::ExecConfig::kMbs2, p);
  EXPECT_EQ(s.validate(net), "");
  EXPECT_EQ(s.groups.size(), 1u);
  EXPECT_EQ(s.groups[0].sub_batch, s.mini_batch);
  EXPECT_EQ(s.groups[0].iterations, 1);
}

TEST(EdgeCases, HugeBufferMbsTrafficBelowBaseline) {
  // With an infinite buffer MBS degenerates to pure inter-layer reuse and
  // must beat baseline outright (no iteration overhead remains).
  const core::Network net = models::make_network("resnet50");
  sched::ScheduleParams p;
  p.buffer_bytes = 64ll * 1024 * 1024 * 1024;
  const double mbs = sched::dram_traffic_bytes(
      net, sched::build_schedule(net, sched::ExecConfig::kMbs2, p));
  const double base = sched::dram_traffic_bytes(
      net, sched::build_schedule(net, sched::ExecConfig::kBaseline, p));
  EXPECT_LT(mbs, 0.5 * base);
}

TEST(EdgeCases, SingleBlockNetwork) {
  core::Network net;
  net.name = "single";
  net.input = FeatureShape{3, 8, 8};
  net.mini_batch_per_core = 4;
  net.blocks.push_back(core::make_simple_block(
      "conv", {core::make_conv("conv", net.input, 8, 3, 1, 1)}));
  net.check();
  for (auto cfg : {sched::ExecConfig::kBaseline, sched::ExecConfig::kMbs2}) {
    const sched::Schedule s = sched::build_schedule(net, cfg);
    EXPECT_EQ(s.validate(net), "");
    EXPECT_GT(sched::dram_traffic_bytes(net, s), 0);
  }
}

TEST(EdgeCases, GemmWithUnitDimensions) {
  arch::SystolicConfig cfg;
  const auto t = arch::simulate_gemm(cfg, {1, 1, 1});
  EXPECT_GT(t.cycles, 0);
  EXPECT_EQ(t.macs, 1);
  EXPECT_LE(t.utilization, 1.0);
}

// ---- Cycle-backend (Device::kSystolic) properties ------------------------------

arch::Dataflow random_dataflow(util::Rng& rng) {
  const arch::Dataflow flows[] = {arch::Dataflow::kOutputStationary,
                                  arch::Dataflow::kWeightStationary,
                                  arch::Dataflow::kInputStationary};
  return flows[rng.uniform_int(3)];
}

class CycleBackendProperties : public ::testing::TestWithParam<int> {
 protected:
  core::Network net_ = models::make_network(
      models::evaluated_network_names()[static_cast<std::size_t>(
          GetParam() - 1) % 6]);
  sched::Schedule schedule_ =
      sched::build_schedule(net_, sched::ExecConfig::kMbs2);
  sched::Traffic traffic_ = sched::compute_traffic(net_, schedule_);
};

TEST_P(CycleBackendProperties, MoreBandwidthNeverIncreasesStalls) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 517);
  for (int trial = 0; trial < 8; ++trial) {
    arch::SystolicOptions options;
    options.dataflow = random_dataflow(rng);
    options.scratchpad_bytes = std::int64_t{1}
                               << (10 + rng.uniform_int(14));  // 1K..8M
    sim::WaveCoreConfig hw;
    hw.cores = 2;
    hw.vector_flops = 2.87e12;
    hw.buffer_bw_bytes = 5e11;
    hw.memory.bandwidth_bytes_per_s =
        (50.0 + static_cast<double>(rng.uniform_int(400))) * 1e9 * hw.cores;
    const auto slow =
        sim::simulate_systolic_step(net_, schedule_, traffic_, hw, options);
    sim::WaveCoreConfig fast = hw;
    fast.memory.bandwidth_bytes_per_s *= 2;
    const auto faster =
        sim::simulate_systolic_step(net_, schedule_, traffic_, fast, options);
    EXPECT_LE(faster.stats.stall_cycles, slow.stats.stall_cycles);
    // Compute cycles are bandwidth-independent.
    EXPECT_EQ(faster.stats.comp_cycles, slow.stats.comp_cycles);
    // The unconstrained limit lower-bounds every finite bandwidth.
    sim::WaveCoreConfig nobw = hw;
    nobw.unlimited_dram_bw = true;
    EXPECT_EQ(
        sim::simulate_systolic_step(net_, schedule_, traffic_, nobw, options)
            .stats.stall_cycles,
        0);
  }
}

TEST_P(CycleBackendProperties, LargerScratchpadNeverIncreasesCycleTime) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 991);
  for (int trial = 0; trial < 8; ++trial) {
    arch::SystolicOptions options;
    options.dataflow = random_dataflow(rng);
    options.scratchpad_bytes = std::int64_t{1} << (8 + rng.uniform_int(12));
    sim::WaveCoreConfig hw;
    hw.cores = 2;
    hw.vector_flops = 2.87e12;
    hw.buffer_bw_bytes = 5e11;
    hw.memory.bandwidth_bytes_per_s =
        (50.0 + static_cast<double>(rng.uniform_int(400))) * 1e9 * hw.cores;
    const auto small =
        sim::simulate_systolic_step(net_, schedule_, traffic_, hw, options);
    arch::SystolicOptions big = options;
    big.scratchpad_bytes *= 2;
    const auto bigger =
        sim::simulate_systolic_step(net_, schedule_, traffic_, hw, big);
    EXPECT_LE(bigger.stats.total_cycles(), small.stats.total_cycles());
    EXPECT_EQ(bigger.stats.comp_cycles, small.stats.comp_cycles);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CycleBackendProperties, ::testing::Range(1, 5));

TEST(CycleBackendDeterminism, SweepInvariantUnderThreads) {
  // Cycle-backend sweep results are bit-identical whatever the thread count
  // — the same determinism contract the analytic backend has.
  std::vector<engine::Scenario> grid;
  for (const char* net : {"alexnet", "vit_small"})
    for (engine::Device dev :
         {engine::Device::kWaveCore, engine::Device::kSystolic})
      for (double mib : {4.0, 10.0}) {
        engine::Scenario s;
        s.network = net;
        s.config = sched::ExecConfig::kMbs2;
        s.device = dev;
        s.params.buffer_bytes = static_cast<std::int64_t>(mib * 1024 * 1024);
        s.hw.global_buffer_bytes = s.params.buffer_bytes;
        grid.push_back(std::move(s));
      }

  engine::SweepOptions opts;
  engine::Evaluator serial_eval;
  opts.threads = 1;
  engine::SweepRunner serial(opts);
  const auto reference = serial.run(grid, serial_eval);

  for (int threads : {2, 8}) {
    engine::Evaluator threaded_eval;
    opts.threads = threads;
    const auto parallel = engine::SweepRunner(opts).run(grid, threaded_eval);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const auto& ref = reference[i];
      const auto& got = parallel[i];
      EXPECT_EQ(ref.step.time_s, got.step.time_s) << i;
      EXPECT_EQ(ref.step.dram_bytes, got.step.dram_bytes) << i;
      EXPECT_EQ(ref.systolic.stats.comp_cycles,
                got.systolic.stats.comp_cycles)
          << i;
      EXPECT_EQ(ref.systolic.stats.stall_cycles,
                got.systolic.stats.stall_cycles)
          << i;
      EXPECT_EQ(ref.systolic.time_s, got.systolic.time_s) << i;
    }
  }
}

// ---- Attention traffic properties ----------------------------------------------

/// Total DRAM bytes (read + write) of attention-layer records of one class.
double attention_dram(const sched::Traffic& t, sched::TrafficClass cls) {
  double sum = 0;
  for (const sched::TrafficRecord& r : t.records)
    if (r.kind == core::LayerKind::kAttention && r.cls == cls)
      sum += r.dram_read + r.dram_write;
  return sum;
}

/// One-way score-stash bytes: sum over attention layers of B * H * S * S
/// feature-precision bytes — what one full pass must move per step.
double score_stash_bytes(const core::Network& net) {
  double total = 0;
  for (const core::Block& b : net.blocks)
    b.for_each_layer([&](const core::Layer& l, int) {
      if (l.kind == core::LayerKind::kAttention)
        total += static_cast<double>(l.attention_score_bytes_per_sample()) *
                 net.mini_batch_per_core;
    });
  return total;
}

TEST(AttentionTraffic, ScoreStashConservedAcrossSubBatchSplits) {
  // P = softmax(Q.K^T) is written once forward and read once backward —
  // exactly B*H*S*S feature-precision bytes each way — no matter how the
  // schedule splits the mini-batch. Serialization relocates reuse; it
  // cannot change what backward must remember. The attention layer's total
  // stash also carries its Q/K/V operand stash, whose policy depends on
  // the config but never on the sub-batch split — so per config, the total
  // is exactly invariant across buffer sizes (and the splits they induce),
  // and always at least the two-way score bytes.
  for (const char* name : {"vit_small", "transformer_base"}) {
    const core::Network net = models::make_network(name);
    const double score_two_way = 2 * score_stash_bytes(net);
    ASSERT_GT(score_two_way, 0) << name;
    for (auto cfg : {sched::ExecConfig::kBaseline, sched::ExecConfig::kMbsFs,
                     sched::ExecConfig::kMbs1, sched::ExecConfig::kMbs2}) {
      double reference = -1;
      for (double mib : {2.0, 8.0, 32.0}) {
        sched::ScheduleParams p;
        p.buffer_bytes = static_cast<std::int64_t>(mib * 1024 * 1024);
        const sched::Schedule s = sched::build_schedule(net, cfg, p);
        ASSERT_EQ(s.validate(net), "") << name;
        const double stash =
            attention_dram(compute_traffic(net, s), sched::TrafficClass::kStash);
        EXPECT_GE(stash, score_two_way)
            << name << " " << sched::to_string(cfg) << " " << mib << " MiB";
        if (reference < 0) reference = stash;
        EXPECT_DOUBLE_EQ(stash, reference)
            << name << " " << sched::to_string(cfg) << " " << mib << " MiB";
      }
    }
  }
}

TEST(AttentionTraffic, MonotoneInSequenceLength) {
  // Longer sequences strictly increase total step traffic (the score
  // footprint grows quadratically while everything else is at worst
  // linear) under every configuration.
  const core::Network shorter = models::make_network("vit_small");
  const core::Network longer = models::make_network("vit_small", 256);
  for (auto cfg : {sched::ExecConfig::kBaseline, sched::ExecConfig::kMbs1,
                   sched::ExecConfig::kMbs2}) {
    const double t_short = sched::dram_traffic_bytes(
        shorter, sched::build_schedule(shorter, cfg));
    const double t_long =
        sched::dram_traffic_bytes(longer, sched::build_schedule(longer, cfg));
    EXPECT_GT(t_long, t_short) << sched::to_string(cfg);
  }
  EXPECT_GT(score_stash_bytes(longer), score_stash_bytes(shorter));
}

TEST(AttentionTraffic, BufferGateMonotoneWithExactEndpoints) {
  // The unserialized baseline keeps a full mini-batch of score matrices per
  // group: spilling charges 9x the one-way stash bytes in intermediate
  // feature traffic, fitting charges none, and growing the buffer can only
  // move layers from spill to fit.
  const core::Network net = models::make_network("vit_small");
  const double p = score_stash_bytes(net);
  // Under baseline every inter-layer edge moves through DRAM, so the
  // attention layers carry a buffer-independent edge term (Q/K/V in, ctx
  // out) on top of the gated score intermediates.
  double edge = 0;
  for (const core::Block& b : net.blocks)
    b.for_each_layer([&](const core::Layer& l, int) {
      if (l.kind == core::LayerKind::kAttention)
        edge += static_cast<double>(l.input_bytes_per_sample(core::DataType::kF16) +
                                    l.output_bytes_per_sample(core::DataType::kF16)) *
                net.mini_batch_per_core;
    });
  double prev = -1;
  bool first = true;
  for (double mib : {1.0, 2.0, 4.0, 8.0, 16.0, 64.0}) {
    sched::ScheduleParams sp;
    sp.buffer_bytes = static_cast<std::int64_t>(mib * 1024 * 1024);
    const sched::Schedule s =
        sched::build_schedule(net, sched::ExecConfig::kBaseline, sp);
    const double feat =
        attention_dram(compute_traffic(net, s), sched::TrafficClass::kFeature);
    if (!first) {
      EXPECT_LE(feat, prev) << mib << " MiB";
    }
    prev = feat;
    first = false;
    if (mib == 1.0) {
      EXPECT_DOUBLE_EQ(feat, edge + 9 * p);  // every layer spills
    }
    if (mib == 64.0) {
      EXPECT_DOUBLE_EQ(feat, edge);  // every layer fits: only edges remain
    }
  }
  // Serialized MBS schedules shrink sub-batches until block footprints —
  // which include the score matrix — fit, so their attention intermediates
  // never touch DRAM even at a small buffer.
  sched::ScheduleParams sp;
  sp.buffer_bytes = 4 * 1024 * 1024;
  const sched::Schedule mbs =
      sched::build_schedule(net, sched::ExecConfig::kMbs2, sp);
  EXPECT_DOUBLE_EQ(
      attention_dram(compute_traffic(net, mbs), sched::TrafficClass::kFeature),
      0.0);
}

TEST(AttentionTraffic, SweepInvariantUnderThreadsWithSeq) {
  // The determinism contract extends to the seq axis and both backends:
  // results are bit-identical whatever the thread count.
  std::vector<engine::Scenario> grid;
  for (int seq : {0, 256})
    for (engine::Device dev :
         {engine::Device::kWaveCore, engine::Device::kSystolic}) {
      engine::Scenario s;
      s.network = "vit_small";
      s.seq = seq;
      s.config = sched::ExecConfig::kMbs2;
      s.device = dev;
      grid.push_back(std::move(s));
    }

  engine::SweepOptions opts;
  engine::Evaluator serial_eval;
  opts.threads = 1;
  engine::SweepRunner serial(opts);
  const auto reference = serial.run(grid, serial_eval);

  for (int threads : {2, 8}) {
    engine::Evaluator threaded_eval;
    opts.threads = threads;
    const auto parallel = engine::SweepRunner(opts).run(grid, threaded_eval);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const auto& ref = reference[i];
      const auto& got = parallel[i];
      EXPECT_EQ(ref.step.time_s, got.step.time_s) << i;
      EXPECT_EQ(ref.step.dram_bytes, got.step.dram_bytes) << i;
      EXPECT_EQ(ref.systolic.time_s, got.systolic.time_s) << i;
    }
  }
}

}  // namespace
}  // namespace mbs
