// Cycle-level systolic backend: hand-computed fold/cycle counts per
// dataflow, conservation invariants of the step-level result, and the
// double-buffer / bandwidth edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <set>
#include <string>
#include <tuple>

#include "arch/memory.h"
#include "arch/systolic.h"
#include "core/block.h"
#include "models/zoo.h"
#include "sched/scheduler.h"
#include "sched/traffic.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace mbs::arch {
namespace {

/// 4x4 array at 1 GHz: small enough that every fold below is checkable by
/// hand from the model's documented formula
///   cycles = preload + stream + span_a + span_b - 2.
SystolicConfig tiny_array() {
  SystolicConfig cfg;
  cfg.rows = 4;
  cfg.cols = 4;
  cfg.clock_hz = 1e9;
  return cfg;
}

TEST(GemmCycles, OutputStationarySingleFold) {
  // C[2x3] = A[2x5] * B[5x3] fits one fold: K=5 streams through a 2x3
  // mapped region -> 5 + 2 + 3 - 2 = 8 cycles, no partial-sum spills.
  const GemmCycles g =
      simulate_gemm_cycles(tiny_array(), Dataflow::kOutputStationary, {2, 3, 5});
  EXPECT_EQ(g.comp_cycles, 8);
  EXPECT_EQ(g.folds, 1);
  EXPECT_EQ(g.mapped_pe_folds, 6);
  EXPECT_EQ(g.macs, 30);
  EXPECT_DOUBLE_EQ(g.mapping_eff(tiny_array()), 6.0 / 16.0);
  // fp16 streams: A once (2x5), B once (5x3), C written once (2x3).
  EXPECT_EQ(g.bytes.a, 2 * 2 * 5);
  EXPECT_EQ(g.bytes.b, 2 * 5 * 3);
  EXPECT_EQ(g.bytes.c, 2 * 2 * 3);
  // Single fold's working set = all three tiles.
  EXPECT_EQ(g.max_fold_bytes, 2 * (2 * 5 + 5 * 3 + 2 * 3));
}

TEST(GemmCycles, WeightStationaryFoldsReduction) {
  // K=5 folds over 4 array rows as k_t = 4 then 1; one n-fold (Gw=3).
  // fold 1: preload 4 + stream Gh=2 + (4 + 3 - 2) = 11 cycles
  // fold 2: preload 1 + stream 2 + (1 + 3 - 2) = 5 cycles
  const GemmCycles g =
      simulate_gemm_cycles(tiny_array(), Dataflow::kWeightStationary, {2, 3, 5});
  EXPECT_EQ(g.comp_cycles, 11 + 5);
  EXPECT_EQ(g.folds, 2);
  EXPECT_EQ(g.mapped_pe_folds, 4 * 3 + 1 * 3);
  EXPECT_EQ(g.macs, 30);
  // A streams per fold (2x4 then 2x1), B preloads each fold exactly once
  // (total = K*Gw), C partials: written by both k-folds, re-read by the
  // second -> 3 * Gh*Gw elements.
  EXPECT_EQ(g.bytes.a, 2 * (2 * 4 + 2 * 1));
  EXPECT_EQ(g.bytes.b, 2 * 5 * 3);
  EXPECT_EQ(g.bytes.c, 2 * 3 * 2 * 3);
  EXPECT_EQ(g.max_fold_bytes, 2 * (4 * 3 + 2 * 4 + 2 * 3));
}

TEST(GemmCycles, InputStationaryFoldsReduction) {
  // Mirror of ws with A pinned: folds (k_t=4, m_t=2) and (k_t=1, m_t=2),
  // streaming Gw=3: 4+3+(4+2-2)=11 and 1+3+(1+2-2)=5 cycles.
  const GemmCycles g =
      simulate_gemm_cycles(tiny_array(), Dataflow::kInputStationary, {2, 3, 5});
  EXPECT_EQ(g.comp_cycles, 11 + 5);
  EXPECT_EQ(g.folds, 2);
  EXPECT_EQ(g.mapped_pe_folds, 4 * 2 + 1 * 2);
  EXPECT_EQ(g.macs, 30);
  EXPECT_EQ(g.bytes.a, 2 * (4 * 2 + 1 * 2));  // A preloads once per fold
  EXPECT_EQ(g.bytes.b, 2 * (3 * 4 + 3 * 1));  // B streams per fold
  EXPECT_EQ(g.bytes.c, 2 * 3 * 2 * 3);        // psums: write, write+read
}

TEST(GemmCycles, SingleMacGemm) {
  EXPECT_EQ(simulate_gemm_cycles(tiny_array(), Dataflow::kOutputStationary,
                                 {1, 1, 1})
                .comp_cycles,
            1);  // 0 preload + 1 stream + 1 + 1 - 2
  EXPECT_EQ(simulate_gemm_cycles(tiny_array(), Dataflow::kWeightStationary,
                                 {1, 1, 1})
                .comp_cycles,
            2);  // 1 preload + 1 stream + 1 + 1 - 2
  EXPECT_EQ(simulate_gemm_cycles(tiny_array(), Dataflow::kInputStationary,
                                 {1, 1, 1})
                .comp_cycles,
            2);
}

TEST(GemmCycles, FullArrayFoldMapsEveryPe) {
  const GemmCycles g =
      simulate_gemm_cycles(tiny_array(), Dataflow::kOutputStationary, {4, 4, 4});
  EXPECT_EQ(g.comp_cycles, 4 + 4 + 4 - 2);
  EXPECT_EQ(g.folds, 1);
  EXPECT_DOUBLE_EQ(g.mapping_eff(tiny_array()), 1.0);
}

TEST(GemmCycles, EdgeFoldsAreExact) {
  // Gh=5 over 4 rows: folds of m_t = 4 and 1 (one n-fold, Gw=3, K=2):
  // (2+4+3-2) + (2+1+3-2) = 7 + 4.
  const GemmCycles g =
      simulate_gemm_cycles(tiny_array(), Dataflow::kOutputStationary, {5, 3, 2});
  EXPECT_EQ(g.comp_cycles, 11);
  EXPECT_EQ(g.folds, 2);
  EXPECT_EQ(g.mapped_pe_folds, 4 * 3 + 1 * 3);
}

// ---------------------------------------------------------------------------
// Closed form vs fold walk: the library sums per fold class; these oracles
// walk every fold (every tile for the wave model) one at a time.
// ---------------------------------------------------------------------------

GemmCycles oracle_gemm_cycles(const SystolicConfig& cfg, Dataflow df,
                              const GemmShape& shape) {
  const std::int64_t R = cfg.rows;
  const std::int64_t C = cfg.cols;
  constexpr std::int64_t kElemBytes = 2;
  GemmCycles g;
  auto add_fold = [&](std::int64_t cycles, std::int64_t mapped,
                      std::int64_t macs, std::int64_t fold_bytes) {
    g.comp_cycles += cycles;
    g.mapped_pe_folds += mapped;
    g.macs += macs;
    g.folds += 1;
    g.max_fold_bytes = std::max(g.max_fold_bytes, fold_bytes);
  };

  if (df == Dataflow::kOutputStationary) {
    for (std::int64_t h0 = 0; h0 < shape.gh; h0 += R) {
      const std::int64_t m_t = std::min(R, shape.gh - h0);
      for (std::int64_t w0 = 0; w0 < shape.gw; w0 += C) {
        const std::int64_t n_t = std::min(C, shape.gw - w0);
        const std::int64_t cycles = shape.k + m_t + n_t - 2;
        const std::int64_t fold_elems =
            m_t * shape.k + shape.k * n_t + m_t * n_t;
        add_fold(cycles, m_t * n_t, m_t * n_t * shape.k,
                 kElemBytes * fold_elems);
        g.bytes.a += kElemBytes * m_t * shape.k;
        g.bytes.b += kElemBytes * shape.k * n_t;
        g.bytes.c += kElemBytes * m_t * n_t;
      }
    }
    return g;
  }

  for (std::int64_t k0 = 0; k0 < shape.k; k0 += R) {
    const std::int64_t k_t = std::min(R, shape.k - k0);
    const std::int64_t psum_rw = k0 == 0 ? 1 : 2;
    if (df == Dataflow::kWeightStationary) {
      for (std::int64_t w0 = 0; w0 < shape.gw; w0 += C) {
        const std::int64_t n_t = std::min(C, shape.gw - w0);
        const std::int64_t cycles = k_t + shape.gh + k_t + n_t - 2;
        const std::int64_t fold_elems =
            k_t * n_t + shape.gh * k_t + shape.gh * n_t;
        add_fold(cycles, k_t * n_t, k_t * n_t * shape.gh,
                 kElemBytes * fold_elems);
        g.bytes.a += kElemBytes * shape.gh * k_t;
        g.bytes.b += kElemBytes * k_t * n_t;
        g.bytes.c += kElemBytes * psum_rw * shape.gh * n_t;
      }
    } else {
      for (std::int64_t h0 = 0; h0 < shape.gh; h0 += C) {
        const std::int64_t m_t = std::min(C, shape.gh - h0);
        const std::int64_t cycles = k_t + shape.gw + k_t + m_t - 2;
        const std::int64_t fold_elems =
            k_t * m_t + shape.gw * k_t + m_t * shape.gw;
        add_fold(cycles, k_t * m_t, k_t * m_t * shape.gw,
                 kElemBytes * fold_elems);
        g.bytes.a += kElemBytes * k_t * m_t;
        g.bytes.b += kElemBytes * shape.gw * k_t;
        g.bytes.c += kElemBytes * psum_rw * m_t * shape.gw;
      }
    }
  }
  return g;
}

GemmTiming oracle_gemm(const SystolicConfig& cfg, const GemmShape& shape) {
  const std::int64_t m = cfg.tile_m();
  const std::int64_t n = cfg.cols;
  const std::int64_t k_rows = cfg.rows;
  const std::int64_t tiles_h = (shape.gh + m - 1) / m;
  const std::int64_t tiles_w = (shape.gw + n - 1) / n;
  const std::int64_t waves = (shape.k + k_rows - 1) / k_rows;

  GemmTiming t;
  t.macs = shape.macs();
  for (std::int64_t th = 0; th < tiles_h; ++th) {
    const std::int64_t m_t = std::min(m, shape.gh - th * m);
    for (std::int64_t tw = 0; tw < tiles_w; ++tw) {
      const std::int64_t n_t = std::min(n, shape.gw - tw * n);
      t.cycles += cfg.weight_double_buffering
                      ? k_rows + waves * std::max(m_t, k_rows) + n_t
                      : waves * (k_rows + m_t) + k_rows + n_t;
    }
  }
  t.buf_read_bytes = 2 * (shape.gh * shape.k * tiles_w +
                          shape.k * shape.gw * tiles_h);
  t.buf_write_bytes = 2 * shape.gh * shape.gw;
  t.utilization = static_cast<double>(t.macs) /
                  (static_cast<double>(t.cycles) * cfg.rows * cfg.cols);
  return t;
}

bool same(const GemmCycles& a, const GemmCycles& b) {
  return a.comp_cycles == b.comp_cycles && a.macs == b.macs &&
         a.folds == b.folds && a.mapped_pe_folds == b.mapped_pe_folds &&
         a.bytes.a == b.bytes.a && a.bytes.b == b.bytes.b &&
         a.bytes.c == b.bytes.c && a.max_fold_bytes == b.max_fold_bytes;
}

bool same(const GemmTiming& a, const GemmTiming& b) {
  return a.cycles == b.cycles && a.macs == b.macs &&
         a.utilization == b.utilization &&
         a.buf_read_bytes == b.buf_read_bytes &&
         a.buf_write_bytes == b.buf_write_bytes;
}

std::string describe(const SystolicConfig& cfg, const GemmShape& s) {
  return std::to_string(cfg.rows) + "x" + std::to_string(cfg.cols) +
         " db=" + std::to_string(cfg.weight_double_buffering) + " gemm " +
         std::to_string(s.gh) + "x" + std::to_string(s.gw) + "x" +
         std::to_string(s.k);
}

/// Checks every field of both closed forms against the fold walks, for
/// every dataflow and both weight-buffering modes.
void expect_matches_oracles(SystolicConfig cfg, const GemmShape& shape) {
  for (Dataflow df : {Dataflow::kOutputStationary,
                      Dataflow::kWeightStationary,
                      Dataflow::kInputStationary})
    EXPECT_TRUE(same(simulate_gemm_cycles(cfg, df, shape),
                     oracle_gemm_cycles(cfg, df, shape)))
        << describe(cfg, shape) << " " << to_string(df);
  for (bool db : {true, false}) {
    cfg.weight_double_buffering = db;
    EXPECT_TRUE(same(simulate_gemm(cfg, shape), oracle_gemm(cfg, shape)))
        << describe(cfg, shape);
  }
}

/// Arrays whose wave-model tile height is small enough for the random
/// shapes below to span several tiles: 4x4 (tile_m 4), 7x5 (odd tile_m 7),
/// and the default 128x128 (tile_m 256).
std::vector<SystolicConfig> oracle_arrays() {
  SystolicConfig square = tiny_array();
  square.acc_half_bytes = 4 * 4 * 4;
  SystolicConfig odd = tiny_array();
  odd.rows = 7;
  odd.cols = 5;
  odd.acc_half_bytes = 5 * 4 * 7;
  return {square, odd, SystolicConfig{}};
}

TEST(GemmClosedForm, MatchesFoldWalkOnRandomShapes) {
  std::mt19937_64 rng(20190401);
  // Each dimension is drawn below a random limit, so shapes mix single
  // folds, exact multiples of the tile and ragged edges on every array.
  const std::int64_t limits[] = {9, 70, 700};
  auto dim = [&] {
    const std::int64_t limit = limits[rng() % 3];
    return 1 + static_cast<std::int64_t>(rng() % limit);
  };
  const std::vector<SystolicConfig> arrays = oracle_arrays();
  for (int i = 0; i < 3000; ++i) {
    const GemmShape shape{dim(), dim(), dim()};
    for (const SystolicConfig& cfg : arrays)
      expect_matches_oracles(cfg, shape);
  }
}

TEST(GemmClosedForm, MatchesFoldWalkOnEveryZooGemm) {
  std::set<std::tuple<std::int64_t, std::int64_t, std::int64_t>> shapes;
  for (const std::string& name : models::all_network_names()) {
    const core::Network net = models::make_network(name);
    for (const core::Block& b : net.blocks)
      b.for_each_layer([&](const core::Layer& l, int) {
        for (GemmPass pass : {GemmPass::kForward, GemmPass::kDataGrad,
                              GemmPass::kWeightGrad}) {
          if (l.is_gemm())
            for (int sub_batch : {1, 2, 3, 7, 8, 31, 32, 64}) {
              const GemmShape s = gemm_shape(l, sub_batch, pass);
              shapes.insert({s.gh, s.gw, s.k});
            }
          else if (l.is_attention())
            for (const GemmShape& s : attention_gemm_shapes(l, pass))
              shapes.insert({s.gh, s.gw, s.k});
        }
      });
  }
  ASSERT_GT(shapes.size(), 1000u);
  for (const auto& [gh, gw, k] : shapes)
    expect_matches_oracles(SystolicConfig{}, {gh, gw, k});
}

// ---------------------------------------------------------------------------
// Step-level invariants.
// ---------------------------------------------------------------------------

struct StepFixture {
  core::Network net = models::make_network("alexnet");
  sched::Schedule schedule =
      sched::build_schedule(net, sched::ExecConfig::kMbs2);
  sched::Traffic traffic = sched::compute_traffic(net, schedule);

  /// HBM2 split over two cores, 5e11 B/s global buffer, 2.87e12 vector
  /// ops/s.
  sim::WaveCoreConfig hw() const {
    sim::WaveCoreConfig hw;
    hw.memory = arch::hbm2();
    hw.cores = 2;
    hw.buffer_bw_bytes = 5e11;
    hw.vector_flops = 2.87e12;
    return hw;
  }
};

class SystolicStepDataflows : public ::testing::TestWithParam<Dataflow> {};

TEST_P(SystolicStepDataflows, ConservationInvariants) {
  StepFixture f;
  const sim::WaveCoreConfig hw = f.hw();
  SystolicOptions options;
  options.dataflow = GetParam();
  const SystolicStepResult r =
      sim::simulate_systolic_step(f.net, f.schedule, f.traffic, hw, options);

  EXPECT_EQ(r.stats.comp_cycles + r.stats.stall_cycles,
            r.stats.total_cycles());
  EXPECT_GT(r.stats.comp_cycles, 0);
  EXPECT_GT(r.stats.util, 0);
  EXPECT_LE(r.stats.util, 1.0);
  EXPECT_GT(r.stats.mapping_eff, 0);
  EXPECT_LE(r.stats.mapping_eff, 1.0);
  // Times are the cycle counters in seconds — nothing else contributes.
  EXPECT_DOUBLE_EQ(r.time_s, r.compute_time_s + r.stall_time_s);
  EXPECT_DOUBLE_EQ(
      r.time_s,
      static_cast<double>(r.stats.total_cycles()) / hw.systolic.clock_hz);
  EXPECT_GT(r.dram_bytes, 0);
  EXPECT_GT(r.total_macs, 0);
  EXPECT_GT(r.bw_ifmap, 0);
  EXPECT_GT(r.bw_filter, 0);
  EXPECT_GT(r.bw_ofmap, 0);
}

TEST_P(SystolicStepDataflows, UnlimitedBandwidthMeansZeroStalls) {
  StepFixture f;
  sim::WaveCoreConfig hw = f.hw();
  hw.unlimited_dram_bw = true;
  SystolicOptions options;
  options.dataflow = GetParam();
  options.scratchpad_bytes = 1;  // even with no double buffering
  const SystolicStepResult r =
      sim::simulate_systolic_step(f.net, f.schedule, f.traffic, hw, options);
  EXPECT_EQ(r.stats.stall_cycles, 0);
  EXPECT_DOUBLE_EQ(r.time_s, r.compute_time_s);
}

TEST_P(SystolicStepDataflows, DeterministicAcrossCalls) {
  StepFixture f;
  const sim::WaveCoreConfig hw = f.hw();
  SystolicOptions options;
  options.dataflow = GetParam();
  const SystolicStepResult a =
      sim::simulate_systolic_step(f.net, f.schedule, f.traffic, hw, options);
  const SystolicStepResult b =
      sim::simulate_systolic_step(f.net, f.schedule, f.traffic, hw, options);
  EXPECT_EQ(a.stats.comp_cycles, b.stats.comp_cycles);
  EXPECT_EQ(a.stats.stall_cycles, b.stats.stall_cycles);
  EXPECT_DOUBLE_EQ(a.time_s, b.time_s);
  EXPECT_DOUBLE_EQ(a.bw_ifmap, b.bw_ifmap);
}

INSTANTIATE_TEST_SUITE_P(AllDataflows, SystolicStepDataflows,
                         ::testing::Values(Dataflow::kOutputStationary,
                                           Dataflow::kWeightStationary,
                                           Dataflow::kInputStationary),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(SystolicStep, MacsMatchAnalyticBackend) {
  // Same chunks, same first-GEMM data-grad skip: both backends count the
  // exact same useful arithmetic, whatever the mapping.
  StepFixture f;
  const sim::StepResult analytic =
      sim::simulate_step(f.net, f.schedule, f.traffic, sim::WaveCoreConfig{});
  for (Dataflow df : {Dataflow::kOutputStationary,
                      Dataflow::kWeightStationary,
                      Dataflow::kInputStationary}) {
    SystolicOptions options;
    options.dataflow = df;
    const SystolicStepResult r = sim::simulate_systolic_step(
        f.net, f.schedule, f.traffic, f.hw(), options);
    EXPECT_DOUBLE_EQ(r.total_macs, analytic.total_macs);
    EXPECT_DOUBLE_EQ(r.dram_bytes, analytic.dram_bytes);
  }
}

TEST(SystolicStep, AttentionMatchesAnalyticBackendUnconstrained) {
  // The attention kind's activation-activation GEMMs (Q.K^T, P.V and their
  // four backward shapes) and softmax vector work are modeled twice —
  // analytically (sim::simulate_step) and at cycle level. With
  // unconstrained DRAM both backends must agree exactly on useful
  // arithmetic and bytes moved, for every dataflow and sequence length.
  // This is the differential gate for the attention traffic model: a
  // one-sided change to either backend breaks it.
  for (const char* name : {"vit_small", "transformer_base"})
    for (int seq : {0, 256}) {
      const core::Network net = models::make_network(name, seq);
      int attention_layers = 0;
      for (const core::Block& b : net.blocks)
        b.for_each_layer([&](const core::Layer& l, int) {
          attention_layers += (l.kind == core::LayerKind::kAttention) ? 1 : 0;
        });
      ASSERT_GT(attention_layers, 0) << name;

      const sched::Schedule schedule =
          sched::build_schedule(net, sched::ExecConfig::kMbs2);
      const sched::Traffic traffic = sched::compute_traffic(net, schedule);
      const sim::StepResult analytic =
          sim::simulate_step(net, schedule, traffic, sim::WaveCoreConfig{});

      for (Dataflow df : {Dataflow::kOutputStationary,
                          Dataflow::kWeightStationary,
                          Dataflow::kInputStationary}) {
        sim::WaveCoreConfig hw;
        hw.unlimited_dram_bw = true;
        hw.buffer_bw_bytes = 5e11;
        hw.vector_flops = 2.87e12;
        SystolicOptions options;
        options.dataflow = df;
        const SystolicStepResult r = sim::simulate_systolic_step(
            net, schedule, traffic, hw, options);
        EXPECT_EQ(r.stats.stall_cycles, 0)
            << name << " seq=" << seq << " " << to_string(df);
        EXPECT_DOUBLE_EQ(r.total_macs, analytic.total_macs)
            << name << " seq=" << seq << " " << to_string(df);
        EXPECT_DOUBLE_EQ(r.dram_bytes, analytic.dram_bytes)
            << name << " seq=" << seq << " " << to_string(df);
      }
    }
}

TEST(SystolicStep, TinyScratchpadSerializesGemmTransfers) {
  // A single-conv network (no vector layers, and its one GEMM skips the
  // data-grad pass): with a scratchpad smaller than any fold, every DRAM
  // byte serializes behind compute, so the stall count equals the traffic
  // model's per-phase transfer cycles exactly.
  core::Network net;
  net.name = "one_conv";
  net.input = {3, 32, 32};
  net.mini_batch_per_core = 8;
  net.blocks.push_back(core::make_simple_block(
      "conv", {core::make_conv("conv", net.input, 16, 3, 1, 1)}));
  net.check();
  const sched::Schedule schedule =
      sched::build_schedule(net, sched::ExecConfig::kMbs2);
  const sched::Traffic traffic = sched::compute_traffic(net, schedule);

  const double per_core_bw = 256e9;
  sim::WaveCoreConfig hw;
  hw.cores = 2;
  hw.memory.bandwidth_bytes_per_s = per_core_bw * hw.cores;
  hw.vector_flops = 2.87e12;
  hw.buffer_bw_bytes = 5e11;
  SystolicOptions options;
  options.scratchpad_bytes = 1;  // smaller than one tile: no overlap
  const SystolicStepResult r =
      sim::simulate_systolic_step(net, schedule, traffic, hw, options);

  double dram[2] = {0, 0};
  for (const sched::TrafficRecord& rec : traffic.records)
    dram[rec.phase == sched::Phase::kForward ? 0 : 1] +=
        rec.dram_read + rec.dram_write;
  const double bytes_per_cycle = per_core_bw / hw.systolic.clock_hz;
  const std::int64_t expected =
      static_cast<std::int64_t>(std::ceil(dram[0] / bytes_per_cycle)) +
      static_cast<std::int64_t>(std::ceil(dram[1] / bytes_per_cycle));
  EXPECT_EQ(r.stats.stall_cycles, expected);
}

/// Total folds one step's GEMMs make: every chunk's forward, weight-grad
/// and (past the first GEMM layer) data-grad pass, plus each attention
/// shape scaled by mini_batch * heads.
std::int64_t step_folds(const core::Network& net,
                        const sched::Schedule& schedule,
                        const SystolicConfig& cfg, Dataflow df) {
  std::int64_t folds = 0;
  bool first_gemm = true;
  for (std::size_t bi = 0; bi < net.blocks.size(); ++bi) {
    const sched::Group& grp = schedule.groups[static_cast<std::size_t>(
        schedule.group_of_block(static_cast<int>(bi)))];
    net.blocks[bi].for_each_layer([&](const core::Layer& l, int) {
      if (l.is_gemm()) {
        for (int c : grp.chunks(schedule.mini_batch)) {
          for (GemmPass pass : {GemmPass::kForward, GemmPass::kWeightGrad,
                                GemmPass::kDataGrad}) {
            if (pass == GemmPass::kDataGrad && first_gemm) continue;
            folds += simulate_gemm_cycles(cfg, df, gemm_shape(l, c, pass))
                         .folds;
          }
        }
        first_gemm = false;
      } else if (l.is_attention()) {
        for (GemmPass pass : {GemmPass::kForward, GemmPass::kDataGrad})
          for (const GemmShape& sh : attention_gemm_shapes(l, pass))
            folds += simulate_gemm_cycles(cfg, df, sh).folds *
                     schedule.mini_batch * l.heads;
      }
    });
  }
  return folds;
}

TEST(SystolicStep, PinnedCycleCountsAtMbs2TenMiB) {
  // Literal cycle and fold counts of the cycle backend, and its doubles
  // bit for bit, so any change to its accounting (however it is computed)
  // must reproduce them exactly.
  struct Pin {
    const char* network;
    Dataflow df;
    std::int64_t comp_cycles, stall_cycles, folds;
    /// time_s, util, mapping_eff, bw_ifmap, bw_filter, bw_ofmap.
    double v[6];
  };
  const Pin pins[] = {
      {"resnet50", Dataflow::kOutputStationary, 60161349, 9386908, 56616,
       {0x1.96f4e78ba1399p-4, 0x1.95e680145ce34p-2, 0x1.b360704858d7ap-1,
        0x1.28fa56404412fp+36, 0x1.1858275ad249ap+36, 0x1.d9339f666537fp+33}},
      {"resnet50", Dataflow::kWeightStationary, 60807941, 9386908, 38624,
       {0x1.9abd7a24a1d73p-4, 0x1.92295721d35f4p-2, 0x1.bc0d33f6aaf31p-1,
        0x1.263e0760b5e9bp+36, 0x1.4638e37f883dp+33, 0x1.ee34da06f2f38p+36}},
      {"resnet50", Dataflow::kInputStationary, 101572981, 5281052, 157856,
       {0x1.389fd6c459d56p-3, 0x1.08306526f1ab7p-2, 0x1.c70c42a2399aap-1,
        0x1.c0c58a849e747p+34, 0x1.6cefb54d37b5cp+35, 0x1.44a7cd77e1231p+36}},
      {"vit_small", Dataflow::kOutputStationary, 49898489, 6299717, 73138,
       {0x1.48d6fc5ce3736p-4, 0x1.e649eb1f9f70ap-2, 0x1.72796e18a7d7ep-1,
        0x1.4ff7a3be01f0cp+36, 0x1.4cd7e1e3d1162p+36, 0x1.41de08a9aeb8ep+34}},
      {"vit_small", Dataflow::kWeightStationary, 52700199, 6236025, 57655,
       {0x1.58dc7160adf7p-4, 0x1.cfb273df1dad2p-2, 0x1.6244e2a5539acp-1,
        0x1.405bf4e827982p+36, 0x1.ceb7b678134cfp+33, 0x1.188814b2c12d3p+37}},
      {"vit_small", Dataflow::kInputStationary, 62967913, 5615684, 88990,
       {0x1.914fe07a725bdp-4, 0x1.8e7880d95d8d1p-2, 0x1.7d74ea7ce26eep-1,
        0x1.4a6b21543a371p+34, 0x1.10bc57494c3c1p+36, 0x1.e22403e6e46a6p+36}},
  };
  bool saw_remainder_chunk = false;
  for (const Pin& pin : pins) {
    const core::Network net = models::make_network(pin.network);
    sched::ScheduleParams sp;
    sp.buffer_bytes = 10 * util::kMiB;
    const sched::Schedule schedule =
        sched::build_schedule(net, sched::ExecConfig::kMbs2, sp);
    const sched::Traffic traffic = sched::compute_traffic(net, schedule);
    for (const sched::Group& g : schedule.groups)
      saw_remainder_chunk |= schedule.mini_batch % g.sub_batch != 0;

    const sim::WaveCoreConfig hw = StepFixture().hw();
    SystolicOptions options;
    options.dataflow = pin.df;
    const SystolicStepResult r =
        sim::simulate_systolic_step(net, schedule, traffic, hw, options);
    EXPECT_EQ(r.stats.comp_cycles, pin.comp_cycles)
        << pin.network << " " << to_string(pin.df);
    EXPECT_EQ(r.stats.stall_cycles, pin.stall_cycles)
        << pin.network << " " << to_string(pin.df);
    EXPECT_EQ(step_folds(net, schedule, hw.systolic, pin.df), pin.folds)
        << pin.network << " " << to_string(pin.df);
    const double got[6] = {r.time_s,   r.stats.util, r.stats.mapping_eff,
                           r.bw_ifmap, r.bw_filter,  r.bw_ofmap};
    for (int i = 0; i < 6; ++i)
      EXPECT_EQ(got[i], pin.v[i])
          << pin.network << " " << to_string(pin.df) << " field " << i;
  }
  // The pins cover the partial last chunk of a group, not only full ones.
  EXPECT_TRUE(saw_remainder_chunk);
}

TEST(LayerBytes, SumsRecordsPerLayerAndPhaseAndDropsUnknownLayers) {
  StepFixture f;
  sched::Traffic traffic;
  sched::TrafficRecord fwd;
  fwd.block = 1;
  fwd.layer = 0;
  fwd.dram_read = 3;
  fwd.dram_write = 4;
  fwd.buf_read = 5;
  sched::TrafficRecord bwd = fwd;
  bwd.phase = sched::Phase::kBackward;
  sched::TrafficRecord no_block = fwd;
  no_block.block = static_cast<int>(f.net.blocks.size());
  sched::TrafficRecord no_layer = fwd;
  no_layer.layer = f.net.blocks[1].layer_count();
  traffic.records = {fwd, fwd, bwd, no_block, no_layer};

  const sim::LayerBytesTable table = sim::layer_bytes(f.net, traffic);
  ASSERT_EQ(table.size(), f.net.blocks.size());
  double total = 0;
  for (std::size_t b = 0; b < table.size(); ++b) {
    ASSERT_EQ(table[b].size(),
              static_cast<std::size_t>(f.net.blocks[b].layer_count()));
    for (const sim::LayerBytes& lb : table[b])
      total += lb.dram[0] + lb.dram[1] + lb.buf[0] + lb.buf[1];
  }
  EXPECT_EQ(table[1][0].dram[0], 14);
  EXPECT_EQ(table[1][0].buf[0], 10);
  EXPECT_EQ(table[1][0].dram[1], 7);
  EXPECT_EQ(table[1][0].buf[1], 5);
  EXPECT_EQ(total, 14 + 10 + 7 + 5);  // the two unknown layers add nothing
}

TEST(SystolicStep, ScratchpadGatesOverlapOnly) {
  // Between no-overlap (1 byte) and full-overlap (huge), only stall cycles
  // may move — tile geometry, compute cycles and traffic stay fixed.
  StepFixture f;
  const sim::WaveCoreConfig hw = f.hw();
  SystolicOptions tiny;
  tiny.scratchpad_bytes = 1;
  SystolicOptions huge;
  huge.scratchpad_bytes = std::int64_t{1} << 40;
  const SystolicStepResult a =
      sim::simulate_systolic_step(f.net, f.schedule, f.traffic, hw, tiny);
  const SystolicStepResult b =
      sim::simulate_systolic_step(f.net, f.schedule, f.traffic, hw, huge);
  EXPECT_EQ(a.stats.comp_cycles, b.stats.comp_cycles);
  EXPECT_GE(a.stats.stall_cycles, b.stats.stall_cycles);
  EXPECT_DOUBLE_EQ(a.dram_bytes, b.dram_bytes);
  EXPECT_DOUBLE_EQ(a.total_macs, b.total_macs);
}

}  // namespace
}  // namespace mbs::arch
