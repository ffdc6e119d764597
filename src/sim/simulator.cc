#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mbs::sim {

using arch::gemm_shape;
using arch::GemmPass;
using arch::GemmShape;
using core::Layer;
using core::LayerKind;

LayerBytesTable layer_bytes(const core::Network& net,
                            const sched::Traffic& traffic) {
  LayerBytesTable table(net.blocks.size());
  for (std::size_t bi = 0; bi < net.blocks.size(); ++bi)
    table[bi].resize(static_cast<std::size_t>(net.blocks[bi].layer_count()));
  for (const sched::TrafficRecord& r : traffic.records) {
    // Traffic may come from a store on disk: a record naming a layer the
    // network lacks is charged to no layer.
    if (r.block < 0 || static_cast<std::size_t>(r.block) >= table.size())
      continue;
    std::vector<LayerBytes>& block = table[static_cast<std::size_t>(r.block)];
    if (r.layer < 0 || static_cast<std::size_t>(r.layer) >= block.size())
      continue;
    LayerBytes& lb = block[static_cast<std::size_t>(r.layer)];
    const int ph = r.phase == sched::Phase::kForward ? 0 : 1;
    lb.dram[ph] += r.dram_read + r.dram_write;
    lb.buf[ph] += r.buf_read + r.buf_write;
  }
  return table;
}

namespace {

/// Vector-unit ops of a non-GEMM layer's backward pass, per sample (the
/// forward pass costs its flops_per_sample()).
double vector_ops_bwd(const Layer& l) {
  switch (l.kind) {
    case LayerKind::kNorm:
      // Gradients w.r.t. input plus scale/shift parameter gradients.
      return 2.0 * static_cast<double>(l.flops_per_sample());
    case LayerKind::kAct:
      return static_cast<double>(l.in.elements());
    case LayerKind::kPool:
      return static_cast<double>(l.out.elements());
    default:
      return 0;  // Add/Concat: backward is gradient routing
  }
}

/// Tab. 1's GEMM passes of one conv/FC layer at one chunk size.
struct ChunkPasses {
  int count = 0;  ///< chunks of this size in the layer's group
  GemmShape fwd, wgrad, dgrad;
  bool has_dgrad = true;  ///< false for the network's first GEMM layer
};

/// The one walk of a training step: decides what every layer runs, in
/// execution order, and hands it to `rule`, which only prices it. Per layer
/// the rule sees
///   - conv/FC: chunk() once per chunk class of the layer's group;
///   - attention: gemm() per Q.K^T/P.V shape, which is per (sample, head)
///     and so repeats mini_batch * heads times whatever the chunking, then
///     vector() for the softmax;
///   - other layers: vector() for their ops, floored by the time to stream
///     their global-buffer bytes;
/// and last end_layer() with the layer's DRAM and buffer bytes, which
/// closes the layer. Phase 0 is forward, 1 backward.
template <class Rule>
void walk_step(const core::Network& net, const sched::Schedule& schedule,
               const sched::Traffic& traffic, Rule& rule) {
  const LayerBytesTable by_layer = layer_bytes(net, traffic);
  const double n = schedule.mini_batch;
  bool first_gemm = true;
  for (std::size_t bi = 0; bi < net.blocks.size(); ++bi) {
    const sched::Group& grp = schedule.groups[static_cast<std::size_t>(
        schedule.group_of_block(static_cast<int>(bi)))];
    const auto chunks = grp.chunk_classes(schedule.mini_batch);

    int li = 0;
    net.blocks[bi].for_each_layer([&](const Layer& l, int) {
      const LayerBytes& lb = by_layer[bi][static_cast<std::size_t>(li)];
      ++li;
      if (l.is_gemm()) {
        // The first GEMM layer's input is the data: no gradient flows to it.
        const bool has_dgrad = !first_gemm;
        first_gemm = false;
        for (const auto& [count, c] : chunks) {
          if (count == 0) continue;
          rule.chunk({count, gemm_shape(l, c, GemmPass::kForward),
                      gemm_shape(l, c, GemmPass::kWeightGrad),
                      has_dgrad ? gemm_shape(l, c, GemmPass::kDataGrad)
                                : GemmShape{},
                      has_dgrad});
        }
      } else if (l.is_attention()) {
        const std::int64_t scale =
            static_cast<std::int64_t>(schedule.mini_batch) * l.heads;
        for (const GemmShape& sh :
             arch::attention_gemm_shapes(l, GemmPass::kForward))
          rule.gemm(sh, 0, scale);
        for (const GemmShape& sh :
             arch::attention_gemm_shapes(l, GemmPass::kDataGrad))
          rule.gemm(sh, 1, scale);
        // Softmax on the vector unit: ~4 ops per score-matrix element (max,
        // exp-subtract, sum, divide), and its backward costs the same.
        const double s = static_cast<double>(l.in.h) * l.in.w;
        const double soft = 4.0 * l.heads * s * s * n;
        const double ops[2] = {soft, soft}, no_floor[2] = {0, 0};
        rule.vector(ops, no_floor);
      } else {
        const double ops[2] = {static_cast<double>(l.flops_per_sample()) * n,
                               vector_ops_bwd(l) * n};
        rule.vector(ops, lb.buf);
      }
      rule.end_layer(l, lb);
    });
  }
}

/// Fig. 12 category of a layer. Attention is GEMM-dominated compute and
/// reports under the conv slot (LayerTypeTimes' layout is
/// serialization-frozen, so it cannot grow a field).
double* type_slot(LayerTypeTimes& t, LayerKind kind) {
  switch (kind) {
    case LayerKind::kConv: return &t.conv;
    case LayerKind::kAttention: return &t.conv;
    case LayerKind::kFc: return &t.fc;
    case LayerKind::kNorm: return &t.norm;
    case LayerKind::kPool: return &t.pool;
    default: return &t.sum;
  }
}

double dram_bandwidth(const WaveCoreConfig& hw) {
  return hw.unlimited_dram_bw ? std::numeric_limits<double>::infinity()
                              : hw.memory.per_core_bandwidth(hw.cores);
}

/// Analytic cost rule: wave-model seconds per GEMM, then per (layer, phase)
/// max(compute, DRAM), since double-buffered transfers overlap compute.
struct AnalyticRule {
  AnalyticRule(const WaveCoreConfig& hw, sched::ExecConfig config)
      : hw(hw), systolic(hw.systolic), dram_bw(dram_bandwidth(hw)) {
    systolic.weight_double_buffering =
        sched::uses_weight_double_buffering(config);
  }

  const WaveCoreConfig& hw;
  arch::SystolicConfig systolic;
  double dram_bw;

  StepResult out;
  double gemm_cycles = 0;
  double gemm_macs = 0;
  double gemm_buf_bytes = 0;
  double vector_ops = 0;
  double compute[2] = {0, 0};  // this layer's, by phase

  /// Adds `repeats` runs of one GEMM to `phase`.
  void add(const arch::GemmTiming& t, int phase, double repeats = 1) {
    gemm_cycles += repeats * static_cast<double>(t.cycles);
    gemm_macs += repeats * static_cast<double>(t.macs);
    gemm_buf_bytes +=
        repeats * static_cast<double>(t.buf_read_bytes + t.buf_write_bytes);
    compute[phase] += repeats * t.seconds(systolic);
  }

  void chunk(const ChunkPasses& c) {
    // Equal chunks run identical GEMMs: simulate each pass once, then add
    // chunk by chunk so every double sums in the same order as a per-chunk
    // simulation would.
    const arch::GemmTiming fwd = arch::simulate_gemm(systolic, c.fwd);
    const arch::GemmTiming wgrad = arch::simulate_gemm(systolic, c.wgrad);
    const arch::GemmTiming dgrad = c.has_dgrad
                                       ? arch::simulate_gemm(systolic, c.dgrad)
                                       : arch::GemmTiming{};
    for (int i = 0; i < c.count; ++i) {
      add(fwd, 0);
      add(wgrad, 1);
      if (c.has_dgrad) add(dgrad, 1);
    }
  }

  void gemm(const GemmShape& shape, int phase, std::int64_t repeats) {
    add(arch::simulate_gemm(systolic, shape), phase,
        static_cast<double>(repeats));
  }

  void vector(const double ops[2], const double floor_bytes[2]) {
    vector_ops += ops[0] + ops[1];
    for (int ph = 0; ph < 2; ++ph)
      compute[ph] = std::max(compute[ph] + ops[ph] / hw.vector_flops,
                             floor_bytes[ph] / hw.buffer_bw_bytes);
  }

  void end_layer(const Layer& l, const LayerBytes& lb) {
    const double t_fwd = std::max(compute[0], lb.dram[0] / dram_bw);
    const double t_bwd = std::max(compute[1], lb.dram[1] / dram_bw);
    out.time_s += t_fwd + t_bwd;
    out.compute_time_s += compute[0] + compute[1];
    out.memory_time_s += (lb.dram[0] + lb.dram[1]) / dram_bw;
    *type_slot(out.time_by_type, l.kind) += t_fwd + t_bwd;
    compute[0] = compute[1] = 0;
  }
};

/// ceil(bytes / per-cycle rate) as whole cycles; 0 when the rate is
/// unconstrained (rate <= 0 or infinite models infinite bandwidth).
std::int64_t transfer_cycles(double bytes, double bytes_per_cycle) {
  if (bytes_per_cycle <= 0 || bytes <= 0) return 0;
  return static_cast<std::int64_t>(std::ceil(bytes / bytes_per_cycle));
}

/// Cycle-level cost rule: fold cycles per GEMM under a dataflow, then DRAM
/// stalls per (layer, phase) behind the scratchpad's double-buffer gate.
struct CycleRule {
  CycleRule(const WaveCoreConfig& hw, const arch::SystolicOptions& options)
      : cfg(hw.systolic),
        options(options),
        dram_bpc(dram_bandwidth(hw) / cfg.clock_hz),
        buf_bpc(hw.buffer_bw_bytes > 0 ? hw.buffer_bw_bytes / cfg.clock_hz
                                       : 0),
        vec_opc(hw.vector_flops > 0 ? hw.vector_flops / cfg.clock_hz : 0) {}

  const arch::SystolicConfig& cfg;
  const arch::SystolicOptions& options;
  double dram_bpc;  ///< DRAM bytes per cycle
  double buf_bpc;   ///< global-buffer bytes per cycle; 0: unconstrained
  double vec_opc;   ///< vector ops per cycle; 0: vector work is free

  arch::ComputeStats stats;
  std::int64_t gemm_macs = 0;
  std::int64_t folds = 0;
  std::int64_t mapped_pe_folds = 0;
  arch::OperandBytes stream;
  std::int64_t comp[2] = {0, 0};  // this layer's, by phase
  std::int64_t max_fold_bytes = 0;

  /// Charges `count` runs of one GEMM to `phase`.
  void gemm(const GemmShape& shape, int phase, std::int64_t count) {
    const arch::GemmCycles gc =
        arch::simulate_gemm_cycles(cfg, options.dataflow, shape);
    comp[phase] += gc.comp_cycles * count;
    gemm_macs += gc.macs * count;
    folds += gc.folds * count;
    mapped_pe_folds += gc.mapped_pe_folds * count;
    stream.a += gc.bytes.a * count;
    stream.b += gc.bytes.b * count;
    stream.c += gc.bytes.c * count;
    max_fold_bytes = std::max(max_fold_bytes, gc.max_fold_bytes);
  }

  void chunk(const ChunkPasses& c) {
    gemm(c.fwd, 0, c.count);
    gemm(c.wgrad, 1, c.count);
    if (c.has_dgrad) gemm(c.dgrad, 1, c.count);
  }

  void vector(const double ops[2], const double floor_bytes[2]) {
    for (int ph = 0; ph < 2; ++ph) {
      if (vec_opc > 0)
        comp[ph] += static_cast<std::int64_t>(std::ceil(ops[ph] / vec_opc));
      comp[ph] = std::max(comp[ph], transfer_cycles(floor_bytes[ph], buf_bpc));
    }
  }

  void end_layer(const Layer& l, const LayerBytes& lb) {
    // Double-buffer gate: a layer on the array overlaps its DRAM transfers
    // with compute only when two copies of its largest fold fit in the
    // scratchpad (one computing, one filling); otherwise transfer and
    // compute serialize. Vector layers stream through the double-buffered
    // global buffer and always overlap.
    const bool on_array = l.is_gemm() || l.is_attention();
    const bool overlap =
        !on_array || 2 * max_fold_bytes <= options.scratchpad_bytes;
    for (int ph = 0; ph < 2; ++ph) {
      const std::int64_t dram = transfer_cycles(lb.dram[ph], dram_bpc);
      stats.comp_cycles += comp[ph];
      stats.stall_cycles +=
          overlap ? std::max<std::int64_t>(0, dram - comp[ph]) : dram;
      comp[ph] = 0;
    }
    max_fold_bytes = 0;
  }
};

}  // namespace

StepResult simulate_step(const core::Network& net,
                         const sched::Schedule& schedule,
                         const sched::Traffic& traffic,
                         const WaveCoreConfig& hw) {
  AnalyticRule rule(hw, schedule.config);
  walk_step(net, schedule, traffic, rule);

  StepResult out = rule.out;
  out.systolic_utilization =
      rule.gemm_cycles > 0
          ? rule.gemm_macs /
                (rule.gemm_cycles *
                 static_cast<double>(rule.systolic.macs_per_cycle()))
          : 0;

  // Chip-level totals: both cores run the same schedule on their halves of
  // the global mini-batch in parallel.
  const double cores = hw.cores;
  out.dram_bytes = cores * traffic.dram_bytes();
  out.buffer_bytes = cores * (traffic.buffer_bytes() + rule.gemm_buf_bytes);
  out.total_macs = cores * rule.gemm_macs;

  arch::EnergyModel em = hw.energy;
  em.dram_pj_per_byte = hw.memory.energy_pj_per_byte;
  out.energy = arch::compute_energy(em, out.dram_bytes, out.buffer_bytes,
                                    out.total_macs, cores * rule.vector_ops,
                                    out.time_s);
  return out;
}

arch::SystolicStepResult simulate_systolic_step(
    const core::Network& net, const sched::Schedule& schedule,
    const sched::Traffic& traffic, const WaveCoreConfig& hw,
    const arch::SystolicOptions& options) {
  const arch::SystolicConfig& cfg = hw.systolic;
  CycleRule rule(hw, options);
  walk_step(net, schedule, traffic, rule);

  arch::SystolicStepResult out;
  out.stats = rule.stats;
  const std::int64_t total = out.stats.total_cycles();
  out.stats.util =
      total > 0 ? static_cast<double>(rule.gemm_macs) /
                      (static_cast<double>(total) * cfg.rows * cfg.cols)
                : 0;
  out.stats.mapping_eff =
      rule.folds > 0 ? static_cast<double>(rule.mapped_pe_folds) /
                           (static_cast<double>(rule.folds) * cfg.rows *
                            cfg.cols)
                     : 0;

  out.time_s = static_cast<double>(total) / cfg.clock_hz;
  out.compute_time_s =
      static_cast<double>(out.stats.comp_cycles) / cfg.clock_hz;
  out.stall_time_s =
      static_cast<double>(out.stats.stall_cycles) / cfg.clock_hz;

  // Chip-level totals; DRAM bytes are the schedule's analytic traffic by
  // construction, so the two models can never disagree on bytes moved.
  out.dram_bytes = hw.cores * traffic.dram_bytes();
  out.total_macs =
      static_cast<double>(hw.cores) * static_cast<double>(rule.gemm_macs);
  if (out.time_s > 0) {
    out.bw_ifmap = static_cast<double>(rule.stream.a) / out.time_s;
    out.bw_filter = static_cast<double>(rule.stream.b) / out.time_s;
    out.bw_ofmap = static_cast<double>(rule.stream.c) / out.time_s;
  }
  return out;
}

}  // namespace mbs::sim
