// Integration tests for the training-step simulator: the orderings and
// magnitudes behind Fig. 10, 11, 12 and 14.
#include <gtest/gtest.h>

#include "models/zoo.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"

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

}  // namespace
}  // namespace mbs::sim
