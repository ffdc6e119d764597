// Tests for the WaveCore architecture models: Tab. 1 GEMM shapes, systolic
// timing properties (including the ArchOpt double-buffering win), Tab. 4
// memory configs, the energy model, Tab. 2 area roll-up, and the GPU
// comparator.
#include <gtest/gtest.h>

#include "arch/area.h"
#include "arch/energy.h"
#include "arch/gpu.h"
#include "arch/memory.h"
#include "arch/systolic.h"
#include "models/zoo.h"

namespace mbs::arch {
namespace {

using core::FeatureShape;
using core::Layer;

// ---- Tab. 1: im2col GEMM dimensions -----------------------------------------

TEST(GemmShapes, ForwardMatchesTab1) {
  const Layer conv = core::make_conv("c", FeatureShape{64, 56, 56}, 128, 3, 1, 1);
  const GemmShape s = gemm_shape(conv, 8, GemmPass::kForward);
  EXPECT_EQ(s.gh, 8LL * 56 * 56);   // N * Ho * Wo
  EXPECT_EQ(s.gw, 128);             // Co
  EXPECT_EQ(s.k, 64LL * 3 * 3);     // Ci * R * S
}

TEST(GemmShapes, DataGradMatchesTab1) {
  const Layer conv = core::make_conv("c", FeatureShape{64, 56, 56}, 128, 3, 2, 1);
  const GemmShape s = gemm_shape(conv, 4, GemmPass::kDataGrad);
  EXPECT_EQ(s.gh, 4LL * 56 * 56);   // N * Hi * Wi
  EXPECT_EQ(s.gw, 64);              // Ci
  EXPECT_EQ(s.k, 128LL * 3 * 3);    // Co * R * S
}

TEST(GemmShapes, WeightGradMatchesTab1) {
  const Layer conv = core::make_conv("c", FeatureShape{64, 56, 56}, 128, 3, 1, 1);
  const GemmShape s = gemm_shape(conv, 4, GemmPass::kWeightGrad);
  EXPECT_EQ(s.gh, 64LL * 3 * 3);    // Ci * R * S
  EXPECT_EQ(s.gw, 128);             // Co
  EXPECT_EQ(s.k, 4LL * 56 * 56);    // N * Ho * Wo
}

TEST(GemmShapes, MacCountInvariantAcrossPasses) {
  // All three passes of a conv perform the same number of MACs.
  const Layer conv = core::make_conv("c", FeatureShape{32, 14, 14}, 64, 3, 1, 1);
  const auto f = gemm_shape(conv, 8, GemmPass::kForward).macs();
  const auto d = gemm_shape(conv, 8, GemmPass::kDataGrad).macs();
  const auto w = gemm_shape(conv, 8, GemmPass::kWeightGrad).macs();
  EXPECT_EQ(f, w);
  // DataGrad differs only by the input/output spatial ratio (stride 1: equal).
  EXPECT_EQ(f, d);
}

TEST(GemmShapes, FcShapes) {
  const Layer fc = core::make_fc("fc", 2048, 1000);
  const GemmShape f = gemm_shape(fc, 16, GemmPass::kForward);
  EXPECT_EQ(f.gh, 16);
  EXPECT_EQ(f.gw, 1000);
  EXPECT_EQ(f.k, 2048);
  const GemmShape w = gemm_shape(fc, 16, GemmPass::kWeightGrad);
  EXPECT_EQ(w.gh, 2048);
  EXPECT_EQ(w.k, 16);
}

// ---- Systolic timing ---------------------------------------------------------

TEST(Systolic, TileGeometry) {
  SystolicConfig cfg;
  EXPECT_EQ(cfg.tile_m(), 256);  // 128 KiB / (128 cols * 4 B)
  EXPECT_EQ(cfg.macs_per_cycle(), 128 * 128);
}

TEST(Systolic, UtilizationBounded) {
  SystolicConfig cfg;
  for (std::int64_t gh : {1, 100, 1000, 100000})
    for (std::int64_t gw : {1, 64, 128, 512})
      for (std::int64_t k : {1, 128, 2304}) {
        const GemmTiming t = simulate_gemm(cfg, {gh, gw, k});
        EXPECT_GT(t.utilization, 0);
        EXPECT_LE(t.utilization, 1.0);
        // Cycles can never beat the ideal MAC throughput.
        EXPECT_GE(t.cycles * cfg.macs_per_cycle(), t.macs);
      }
}

TEST(Systolic, DoubleBufferingStrictlyFaster) {
  SystolicConfig with;
  SystolicConfig without = with;
  without.weight_double_buffering = false;
  const GemmShape shapes[] = {{6272, 256, 2304}, {256, 64, 576}, {32, 1000, 2048}};
  for (const GemmShape& s : shapes) {
    const GemmTiming a = simulate_gemm(with, s);
    const GemmTiming b = simulate_gemm(without, s);
    EXPECT_LT(a.cycles, b.cycles);
    EXPECT_GT(a.utilization, b.utilization);
  }
}

TEST(Systolic, DoubleBufferingGainMatchesPaperScale) {
  // Paper Fig. 14: Baseline averages ~54% utilization, ArchOpt ~81%.
  // A large, well-shaped GEMM should show that ratio per-kernel.
  SystolicConfig with;
  SystolicConfig without = with;
  without.weight_double_buffering = false;
  const GemmShape s{100352, 256, 1152};  // ResNet50 mid conv, N=32
  const double u_with = simulate_gemm(with, s).utilization;
  const double u_without = simulate_gemm(without, s).utilization;
  EXPECT_GT(u_with, 0.85);
  EXPECT_LT(u_without, 0.70);
}

TEST(Systolic, NarrowGemmUnderutilizes) {
  // Fig. 14's residual losses: early layers with small channel counts give
  // narrow tiles that cannot fill the 128-wide array.
  SystolicConfig cfg;
  const double narrow = simulate_gemm(cfg, {100000, 3, 147}).utilization;
  const double wide = simulate_gemm(cfg, {100000, 256, 1152}).utilization;
  EXPECT_LT(narrow, 0.05);
  EXPECT_GT(wide, 0.85);
}

TEST(Systolic, SmallSubBatchStillUtilizesViaIm2col) {
  // Sec. 4.1: with im2col, a sub-batch of 2 still yields a tall Gh
  // (N*Ho*Wo), so utilization stays high for typical conv layers.
  SystolicConfig cfg;
  const Layer conv = core::make_conv("c", FeatureShape{64, 56, 56}, 64, 3, 1, 1);
  const GemmTiming t =
      simulate_gemm(cfg, gemm_shape(conv, /*sub_batch=*/2, GemmPass::kForward));
  EXPECT_GT(t.utilization, 0.35);
}

TEST(Systolic, CyclesScaleLinearlyInGh) {
  SystolicConfig cfg;
  const GemmTiming a = simulate_gemm(cfg, {2560, 128, 1152});
  const GemmTiming b = simulate_gemm(cfg, {5120, 128, 1152});
  EXPECT_NEAR(static_cast<double>(b.cycles) / a.cycles, 2.0, 0.1);
}

TEST(Systolic, BufferTrafficAccountsForTileRereads) {
  SystolicConfig cfg;
  // Two tile columns force A to stream twice.
  const GemmShape s{256, 256, 128};
  const GemmTiming t = simulate_gemm(cfg, s);
  EXPECT_EQ(t.buf_read_bytes, 2 * (s.gh * s.k * 2 + s.k * s.gw * 1));
  EXPECT_EQ(t.buf_write_bytes, 2 * s.gh * s.gw);
}

// ---- Tab. 4 memory configurations ---------------------------------------------

TEST(Memory, Tab4Values) {
  EXPECT_DOUBLE_EQ(hbm2().bandwidth_bytes_per_s, 300.0 * 1024 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(hbm2_x2().bandwidth_bytes_per_s, 2 * hbm2().bandwidth_bytes_per_s);
  EXPECT_DOUBLE_EQ(gddr5().bandwidth_bytes_per_s, 384.0 * 1024 * 1024 * 1024);
  EXPECT_NEAR(lpddr4().bandwidth_bytes_per_s, 239.2 * 1024 * 1024 * 1024, 1e6);
  EXPECT_EQ(hbm2().channels, 8);
  EXPECT_EQ(gddr5().channels, 12);
  EXPECT_EQ(lpddr4().channels, 8);
}

TEST(Memory, BandwidthRatiosMatchPaper) {
  // Sec. 6: GDDR5 is 64% and LPDDR4 40% of HBM2x2 bandwidth.
  EXPECT_NEAR(gddr5().bandwidth_bytes_per_s / hbm2_x2().bandwidth_bytes_per_s,
              0.64, 0.01);
  EXPECT_NEAR(lpddr4().bandwidth_bytes_per_s / hbm2_x2().bandwidth_bytes_per_s,
              0.40, 0.01);
}

TEST(Memory, PerCoreBandwidthSplitsAcrossCores) {
  EXPECT_DOUBLE_EQ(hbm2().per_core_bandwidth(2),
                   hbm2().bandwidth_bytes_per_s / 2);
}

TEST(Memory, LookupByName) {
  EXPECT_EQ(memory_config_by_name("LPDDR4").name, "LPDDR4");
  EXPECT_EQ(all_memory_configs().size(), 4u);
}

// ---- Energy --------------------------------------------------------------------

TEST(Energy, BufferAccessEightTimesCheaperThanDram) {
  const EnergyModel m;
  EXPECT_NEAR(m.dram_pj_per_byte / m.buffer_pj_per_byte, 8.0, 0.1);
}

TEST(Energy, ComponentsAddUp) {
  const EnergyModel m;
  const EnergyBreakdown e = compute_energy(m, 1e9, 2e9, 1e12, 1e10, 0.1);
  EXPECT_NEAR(e.total(),
              e.dram_j + e.buffer_j + e.mac_j + e.vector_j + e.static_j, 1e-12);
  EXPECT_GT(e.dram_fraction(), 0);
  EXPECT_LT(e.dram_fraction(), 1);
}

TEST(Energy, ZeroSkipReducesMacEnergy) {
  EnergyModel skip;
  EnergyModel no_skip = skip;
  no_skip.zero_skip_fraction = 0;
  const double with = compute_energy(skip, 0, 0, 1e12, 0, 0).mac_j;
  const double without = compute_energy(no_skip, 0, 0, 1e12, 0, 0).mac_j;
  EXPECT_LT(with, without);
  EXPECT_NEAR(with / without, 1.0 - skip.zero_skip_fraction, 1e-9);
}

TEST(Energy, ScalesLinearly) {
  const EnergyModel m;
  const EnergyBreakdown a = compute_energy(m, 1e9, 1e9, 1e12, 1e9, 0.1);
  const EnergyBreakdown b = compute_energy(m, 2e9, 2e9, 2e12, 2e9, 0.2);
  EXPECT_NEAR(b.total(), 2 * a.total(), 1e-9);
}

// ---- Tab. 2 area / power --------------------------------------------------------

TEST(Area, PeArrayMatchesPaper) {
  const AreaModel m;
  EXPECT_NEAR(m.array_mm2(), 199.45, 0.5);  // Sec. 4.2
}

TEST(Area, TotalDieMatchesPaper) {
  const AreaModel m;
  EXPECT_NEAR(m.total_mm2(), 534.0, 2.0);  // Tab. 2
}

TEST(Area, PeakTopsMatchesPaper) {
  const AreaModel m;
  EXPECT_NEAR(m.peak_tops(), 45.0, 1.0);  // Tab. 2: 45 FP16 TOPS
}

TEST(Area, ComparisonTableListsFourAccelerators) {
  const auto specs = accelerator_comparison(AreaModel{});
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].name, "V100");
  EXPECT_EQ(specs[3].name, "WaveCore");
  EXPECT_NEAR(specs[3].peak_power_w, 56.0, 1e-9);
  // WaveCore is smaller than V100 despite a similar role.
  EXPECT_LT(specs[3].die_area_mm2, specs[0].die_area_mm2);
}

// ---- GPU comparator --------------------------------------------------------------

TEST(Gpu, StepTimeScalesWithDepth) {
  const GpuModel gpu;
  const auto r50 = simulate_gpu_step(gpu, models::make_network("resnet50"), 64);
  const auto r101 =
      simulate_gpu_step(gpu, models::make_network("resnet101"), 64);
  EXPECT_GT(r101.time_s, r50.time_s);
  EXPECT_GT(r50.time_s, 0);
}

TEST(Gpu, Im2colMaterializationCostsTrafficAndTime) {
  GpuModel with;
  GpuModel without = with;
  without.materialize_im2col = false;
  const core::Network net = models::make_network("resnet50");
  const auto a = simulate_gpu_step(with, net, 64);
  const auto b = simulate_gpu_step(without, net, 64);
  EXPECT_GT(a.dram_bytes, b.dram_bytes);
  EXPECT_GE(a.time_s, b.time_s);
}

TEST(Gpu, OverheadEqualsTheLaunchTimeCharged) {
  // overhead_s must report exactly the launch time time_s includes: the
  // step time with launches minus the step time without them.
  const core::Network net = models::make_network("resnet50");
  for (const bool im2col : {true, false}) {
    GpuModel gpu;
    gpu.materialize_im2col = im2col;
    GpuModel free_launch = gpu;
    free_launch.kernel_overhead_s = 0;
    const auto r = simulate_gpu_step(gpu, net, 64);
    const auto r0 = simulate_gpu_step(free_launch, net, 64);
    EXPECT_NEAR(r.time_s - r0.time_s, r.overhead_s, 1e-9 * r.overhead_s)
        << "materialize_im2col=" << im2col;
    EXPECT_EQ(r0.overhead_s, 0.0);
  }
}

TEST(Gpu, V100StepTimeInMeasuredBallpark) {
  // Fig. 13 reports ~200 ms per 64-sample ResNet50 step for Caffe on V100.
  const auto r = simulate_gpu_step(GpuModel{}, models::make_network("resnet50"), 64);
  EXPECT_GT(r.time_s, 0.05);
  EXPECT_LT(r.time_s, 0.6);
}

}  // namespace
}  // namespace mbs::arch
