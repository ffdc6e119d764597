// Integration tests for the training-step simulator: the orderings and
// magnitudes behind Fig. 10, 11, 12 and 14.
#include <gtest/gtest.h>

#include "models/zoo.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace mbs::sim {
namespace {

using core::Network;
using sched::ExecConfig;

/// simulate_step charged with the schedule's own traffic.
StepResult simulate(const Network& net, const sched::Schedule& schedule,
                    const WaveCoreConfig& hw) {
  return simulate_step(net, schedule, sched::compute_traffic(net, schedule),
                       hw);
}

StepResult run(const Network& net, ExecConfig cfg,
               const WaveCoreConfig& hw = WaveCoreConfig{}) {
  return simulate(net, sched::build_schedule(net, cfg), hw);
}

class SimPerNetwork : public ::testing::TestWithParam<std::string> {
 protected:
  Network net_ = models::make_network(GetParam());
};

TEST_P(SimPerNetwork, ResultsArePositiveAndConsistent) {
  const StepResult r = run(net_, ExecConfig::kMbs2);
  EXPECT_GT(r.time_s, 0);
  EXPECT_GT(r.dram_bytes, 0);
  EXPECT_GT(r.total_macs, 0);
  EXPECT_GT(r.energy.total(), 0);
  EXPECT_GT(r.systolic_utilization, 0);
  EXPECT_LE(r.systolic_utilization, 1.0);
  // The per-layer-type breakdown partitions total time.
  EXPECT_NEAR(r.time_by_type.total(), r.time_s, r.time_s * 1e-9);
}

TEST_P(SimPerNetwork, Mbs2FasterThanBaseline) {
  EXPECT_LT(run(net_, ExecConfig::kMbs2).time_s,
            run(net_, ExecConfig::kBaseline).time_s);
}

TEST_P(SimPerNetwork, ArchOptFasterThanBaseline) {
  // Weight double buffering removes inter-wave idle time (Fig. 8).
  EXPECT_LT(run(net_, ExecConfig::kArchOpt).time_s,
            run(net_, ExecConfig::kBaseline).time_s);
}

TEST_P(SimPerNetwork, Mbs2SavesEnergy) {
  EXPECT_LT(run(net_, ExecConfig::kMbs2).energy.total(),
            run(net_, ExecConfig::kBaseline).energy.total());
}

TEST_P(SimPerNetwork, MacsIndependentOfSchedule) {
  // Scheduling changes data movement and timing, never arithmetic.
  const double base = run(net_, ExecConfig::kBaseline).total_macs;
  const double mbs2 = run(net_, ExecConfig::kMbs2).total_macs;
  EXPECT_NEAR(base, mbs2, base * 1e-9);
}

TEST_P(SimPerNetwork, DramEnergyShareDropsUnderMbs) {
  // Sec. 6: the DRAM share of step energy falls (21.6% -> 8.7% for the deep
  // CNNs) because traffic shifts into the 8x-cheaper global buffer.
  if (GetParam() == "alexnet") GTEST_SKIP() << "compute dominated";
  EXPECT_LT(run(net_, ExecConfig::kMbs2).energy.dram_fraction(),
            run(net_, ExecConfig::kBaseline).energy.dram_fraction());
}

INSTANTIATE_TEST_SUITE_P(AllNetworks, SimPerNetwork,
                         ::testing::ValuesIn(models::evaluated_network_names()));

// ---- Utilization (Fig. 14) ---------------------------------------------------

TEST(Utilization, BaselineVsArchOptMatchesPaperScale) {
  // Paper: Baseline averages 53.8%, ArchOpt 81.5% (unlimited DRAM BW).
  WaveCoreConfig hw;
  hw.unlimited_dram_bw = true;
  const Network net = models::make_network("resnet50");
  const double base = run(net, ExecConfig::kBaseline, hw).systolic_utilization;
  const double opt = run(net, ExecConfig::kArchOpt, hw).systolic_utilization;
  EXPECT_GT(base, 0.35);
  EXPECT_LT(base, 0.70);
  EXPECT_GT(opt, 0.70);
  EXPECT_GT(opt, base + 0.1);
}

TEST(Utilization, MbsWithinAFewPercentOfArchOpt) {
  // Sec. 6: grouped MBS regains utilization to within ~3% of full-batch.
  WaveCoreConfig hw;
  hw.unlimited_dram_bw = true;
  const Network net = models::make_network("resnet50");
  const double opt = run(net, ExecConfig::kArchOpt, hw).systolic_utilization;
  const double mbs2 = run(net, ExecConfig::kMbs2, hw).systolic_utilization;
  EXPECT_GT(mbs2, opt - 0.10);
}

TEST(Utilization, MbsFsLowerThanMbs1) {
  // Sec. 6: MBS-FS's single small sub-batch hurts utilization (66.7% vs
  // 78.6% in the paper).
  WaveCoreConfig hw;
  hw.unlimited_dram_bw = true;
  const Network net = models::make_network("resnet50");
  EXPECT_LT(run(net, ExecConfig::kMbsFs, hw).systolic_utilization,
            run(net, ExecConfig::kMbs1, hw).systolic_utilization);
}

// ---- Memory sensitivity (Fig. 11, 12) ------------------------------------------

TEST(MemorySensitivity, Mbs2RobustToLowBandwidth) {
  // Fig. 12: moving from HBM2x2 to LPDDR4 costs Baseline ~40% but MBS2 <15%.
  const Network net = models::make_network("resnet50");
  sched::ScheduleParams p;
  p.mini_batch = 64;  // Fig. 12 trains 64/core with high-capacity DRAM

  auto time_with = [&](ExecConfig cfg, const arch::MemoryConfig& mem) {
    WaveCoreConfig hw;
    hw.memory = mem;
    return simulate(net, sched::build_schedule(net, cfg, p), hw).time_s;
  };
  const double base_drop = time_with(ExecConfig::kBaseline, arch::lpddr4()) /
                           time_with(ExecConfig::kBaseline, arch::hbm2_x2());
  const double mbs_drop = time_with(ExecConfig::kMbs2, arch::lpddr4()) /
                          time_with(ExecConfig::kMbs2, arch::hbm2_x2());
  EXPECT_GT(base_drop, 1.2);
  EXPECT_LT(mbs_drop, 1.25);
  EXPECT_LT(mbs_drop, base_drop);
}

TEST(MemorySensitivity, BufferSizeMattersLittleForMbs) {
  // Fig. 11: MBS1/MBS2 vary little from 5 MiB to 40 MiB.
  const Network net = models::make_network("resnet50");
  auto time_at = [&](double mib) {
    sched::ScheduleParams p;
    p.buffer_bytes = static_cast<std::int64_t>(mib * 1024 * 1024);
    WaveCoreConfig hw;
    hw.global_buffer_bytes = p.buffer_bytes;
    return simulate(net, sched::build_schedule(net, ExecConfig::kMbs2, p), hw)
        .time_s;
  };
  EXPECT_LT(time_at(5.0) / time_at(40.0), 1.30);
}

TEST(MemorySensitivity, UnlimitedBandwidthRemovesMemoryTime) {
  const Network net = models::make_network("resnet50");
  WaveCoreConfig hw;
  hw.unlimited_dram_bw = true;
  const StepResult r = run(net, ExecConfig::kBaseline, hw);
  EXPECT_EQ(r.memory_time_s, 0);
  EXPECT_LT(r.time_s, run(net, ExecConfig::kBaseline).time_s);
}

// ---- Fig. 12 breakdown -----------------------------------------------------------

TEST(Breakdown, ConvDominatesComputeNetworks) {
  const Network net = models::make_network("alexnet");
  const StepResult r = run(net, ExecConfig::kArchOpt);
  EXPECT_GT(r.time_by_type.conv + r.time_by_type.fc, 0.6 * r.time_s);
}

TEST(Breakdown, NormSignificantForBaselineResNet) {
  // The memory-bound normalization layers are a large share of baseline
  // ResNet time — the bandwidth-boundedness MBS attacks.
  const Network net = models::make_network("resnet50");
  const StepResult r = run(net, ExecConfig::kBaseline);
  EXPECT_GT(r.time_by_type.norm, 0.1 * r.time_s);
}

TEST(Breakdown, MbsShrinksVectorLayerTime) {
  const Network net = models::make_network("resnet50");
  const StepResult base = run(net, ExecConfig::kBaseline);
  const StepResult mbs = run(net, ExecConfig::kMbs2);
  const double base_vec =
      base.time_by_type.norm + base.time_by_type.pool + base.time_by_type.sum;
  const double mbs_vec =
      mbs.time_by_type.norm + mbs.time_by_type.pool + mbs.time_by_type.sum;
  EXPECT_LT(mbs_vec, 0.6 * base_vec);
}

// ---- Speedup magnitudes (Fig. 10a shape) ------------------------------------------

TEST(Speedups, DeepCnnSpeedupsInPaperRange) {
  // Paper: MBS2 improves training performance by 36-66% over ArchOpt for
  // the deep CNNs. Accept a generous band around that.
  for (const char* name : {"resnet50", "resnet101", "inception_v3"}) {
    const Network net = models::make_network(name);
    const double s = run(net, ExecConfig::kArchOpt).time_s /
                     run(net, ExecConfig::kMbs2).time_s;
    EXPECT_GT(s, 1.15) << name;
    EXPECT_LT(s, 2.0) << name;
  }
}

TEST(Speedups, InceptionFsSlowerThanIl) {
  // Sec. 6's signature inversion: MBS-FS underperforms IL on Inception.
  const Network net = models::make_network("inception_v3");
  EXPECT_GT(run(net, ExecConfig::kMbsFs).time_s,
            run(net, ExecConfig::kIL).time_s);
}

TEST(Speedups, AlexNetFsSlowerThanBaseline) {
  const Network net = models::make_network("alexnet");
  EXPECT_GT(run(net, ExecConfig::kMbsFs).time_s,
            run(net, ExecConfig::kBaseline).time_s);
}

// ---- Pinned doubles ---------------------------------------------------------------

TEST(SimulateStep, PinnedResultsAtTenMiB) {
  // Every StepResult field as a literal double, so any change to the
  // analytic model's arithmetic or its summation order shows here, not only
  // in the 2-decimal goldens. HBM2 (bandwidth bound) and unlimited DRAM.
  struct Pin {
    const char* network;
    ExecConfig config;
    bool unlimited_dram_bw;
    double v[17];
  };
  const Pin pins[] = {
      {"resnet50", ExecConfig::kMbs2, false,
       {0x1.3fe11744f9d6dp-4, 0x1.aa07c66p+32, 0x1.a875e3ccp+35,
        0x1.a4a7ap+39, 0x1.566a6f4afe44dp-1, 0x1.3d71fcc23b274p-4,
        0x1.6b8bc12c5f929p-6, 0x1.e0e94f2816b62p-5, 0x1.ac33d633e0078p-13,
        0x1.2f4dea89f6cd7p-7, 0x1.5f4c22bf1b15p-12, 0x1.3a6a628eb4b95p-7,
        0x1.6df511bc1f687p-3, 0x1.69b1224147462p-3, 0x1.1582470b185d2p+0,
        0x1.ec8c6eeb4ea41p-8, 0x1.3fe11744f9d6dp-2}},
      {"resnet50", ExecConfig::kMbs2, true,
       {0x1.3d71fcc23b274p-4, 0x1.aa07c66p+32, 0x1.a875e3ccp+35,
        0x1.a4a7ap+39, 0x1.566a6f4afe44dp-1, 0x1.3d71fcc23b274p-4,
        0x0p+0, 0x1.e0bc11d10189dp-5, 0x1.ac33d633e0078p-13,
        0x1.2f4dea89f6cd7p-7, 0x1.5f4c22bf1b15p-12, 0x1.27a683d513edcp-7,
        0x1.6df511bc1f687p-3, 0x1.69b1224147462p-3, 0x1.1582470b185d2p+0,
        0x1.ec8c6eeb4ea41p-8, 0x1.3d71fcc23b274p-2}},
      {"resnet50", ExecConfig::kBaseline, false,
       {0x1.227c741b07365p-3, 0x1.92913438p+34, 0x1.b38ed17cp+35,
        0x1.a4a7ap+39, 0x1.f58d661aa15e6p-2, 0x1.a23ac57306b7fp-4,
        0x1.578625bbbbbbdp-4, 0x1.48d4c8a5fcc1ep-4, 0x1.072fc3fa5efb2p-13,
        0x1.f1b2c28f5c28ap-6, 0x1.10369d0369d03p-10, 0x1.ebcbf258bf256p-6,
        0x1.59cd76d1ffa2cp-1, 0x1.7325f337a547dp-3, 0x1.1582470b185d2p+0,
        0x1.ec8c6eeb4ea41p-8, 0x1.227c741b07365p-1}},
      {"resnet50", ExecConfig::kBaseline, true,
       {0x1.a23ac57306b7fp-4, 0x1.92913438p+34, 0x1.b38ed17cp+35,
        0x1.a4a7ap+39, 0x1.f58d661aa15e6p-2, 0x1.a23ac57306b7fp-4,
        0x0p+0, 0x1.48d4c8a5fcc1ep-4, 0x1.072fc3fa5efb2p-13,
        0x1.5aa1b770ed184p-7, 0x1.5f4c22bf1b15p-12, 0x1.61770ed180417p-7,
        0x1.59cd76d1ffa2cp-1, 0x1.7325f337a547dp-3, 0x1.1582470b185d2p+0,
        0x1.ec8c6eeb4ea41p-8, 0x1.a23ac57306b7fp-2}},
      {"vit_small", ExecConfig::kMbs2, false,
       {0x1.02bb20ffbab8ap-4, 0x1.3a8ce8ep+32, 0x1.3d57dc9cp+35,
        0x1.973a2ap+39, 0x1.5463d9def1068p-1, 0x1.01dffc064a539p-4,
        0x1.0c6a96eeeeef2p-6, 0x1.d6de91c039018p-5, 0x1.e106d9196772ap-14,
        0x1.e847480c4372ap-10, 0x1.2ec12652c7481p-16, 0x1.e3f1a6d8347dp-9,
        0x1.0e325ee6af0fep-3, 0x1.0e6a3bda00473p-3, 0x1.0ca68f803de6fp+0,
        0x1.0665037d5b2cbp-9, 0x1.02bb20ffbab8ap-2}},
      {"vit_small", ExecConfig::kMbs2, true,
       {0x1.01dffc064a539p-4, 0x1.3a8ce8ep+32, 0x1.3d57dc9cp+35,
        0x1.973a2ap+39, 0x1.5463d9def1068p-1, 0x1.01dffc064a539p-4,
        0x0p+0, 0x1.d6de91c039018p-5, 0x1.e106d9196772ap-14,
        0x1.e847480c4372ap-10, 0x1.2ec12652c7481p-16, 0x1.c88d07aa27db7p-9,
        0x1.0e325ee6af0fep-3, 0x1.0e6a3bda00473p-3, 0x1.0ca68f803de6fp+0,
        0x1.0665037d5b2cbp-9, 0x1.01dffc064a539p-2}},
      {"vit_small", ExecConfig::kBaseline, false,
       {0x1.7d84ef93057dp-4, 0x1.b71fb77p+33, 0x1.3c91ed5cp+35,
        0x1.973a2ap+39, 0x1.f35ad0fdcb682p-2, 0x1.58cb27cd6543cp-4,
        0x1.76b8140000002p-5, 0x1.41218e48491c2p-4, 0x1.d6b882d048265p-16,
        0x1.00cae147ae149p-8, 0x1.f851eb851eb85p-15, 0x1.5fd1eb851eb85p-7,
        0x1.79345d7fb7f12p-2, 0x1.0dc191ca17cf6p-3, 0x1.0ca68f803de6fp+0,
        0x1.0665037d5b2cbp-9, 0x1.7d84ef93057dp-2}},
      {"vit_small", ExecConfig::kBaseline, true,
       {0x1.58cb27cd6543cp-4, 0x1.b71fb77p+33, 0x1.3c91ed5cp+35,
        0x1.973a2ap+39, 0x1.f35ad0fdcb682p-2, 0x1.58cb27cd6543cp-4,
        0x0p+0, 0x1.41218e48491c2p-4, 0x1.d6b882d048265p-16,
        0x1.eaa0310dcbe1p-10, 0x1.2ec12652c7481p-16, 0x1.f9d824ca58e92p-9,
        0x1.79345d7fb7f12p-2, 0x1.0dc191ca17cf6p-3, 0x1.0ca68f803de6fp+0,
        0x1.0665037d5b2cbp-9, 0x1.58cb27cd6543cp-2}},
  };
  for (const Pin& pin : pins) {
    const Network net = models::make_network(pin.network);
    sched::ScheduleParams sp;
    sp.buffer_bytes = 10 * util::kMiB;
    WaveCoreConfig hw;
    hw.unlimited_dram_bw = pin.unlimited_dram_bw;
    const StepResult r =
        simulate(net, sched::build_schedule(net, pin.config, sp), hw);
    const double got[17] = {
        r.time_s, r.dram_bytes, r.buffer_bytes, r.total_macs,
        r.systolic_utilization, r.compute_time_s, r.memory_time_s,
        r.time_by_type.conv, r.time_by_type.fc, r.time_by_type.norm,
        r.time_by_type.pool, r.time_by_type.sum, r.energy.dram_j,
        r.energy.buffer_j, r.energy.mac_j, r.energy.vector_j,
        r.energy.static_j};
    for (int i = 0; i < 17; ++i)
      EXPECT_EQ(got[i], pin.v[i])
          << pin.network << " " << sched::to_string(pin.config)
          << (pin.unlimited_dram_bw ? " nobw" : " HBM2") << " field " << i;
  }
}

}  // namespace
}  // namespace mbs::sim
