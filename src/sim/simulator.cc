#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "arch/layer_costs.h"

namespace mbs::sim {

namespace {

using arch::attention_softmax_ops;
using arch::vector_ops_bwd;
using arch::vector_ops_fwd;
using core::Layer;
using core::LayerKind;

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

}  // namespace

StepResult simulate_step(const core::Network& net,
                         const sched::Schedule& schedule,
                         const sched::Traffic& traffic,
                         const WaveCoreConfig& hw) {
  const arch::LayerBytesTable by_layer = arch::layer_bytes(net, traffic);

  const double dram_bw = hw.unlimited_dram_bw
                             ? std::numeric_limits<double>::infinity()
                             : hw.memory.per_core_bandwidth(hw.cores);

  StepResult out;
  double gemm_cycles = 0;
  double gemm_macs = 0;
  double vector_ops_total = 0;
  double gemm_buf_bytes = 0;

  arch::SystolicConfig systolic = hw.systolic;
  systolic.weight_double_buffering =
      sched::uses_weight_double_buffering(schedule.config);

  bool first_gemm = true;
  for (std::size_t bi = 0; bi < net.blocks.size(); ++bi) {
    const sched::Group& grp = schedule.groups[static_cast<std::size_t>(
        schedule.group_of_block(static_cast<int>(bi)))];
    const auto chunks = grp.chunk_classes(schedule.mini_batch);

    int li = 0;
    net.blocks[bi].for_each_layer([&](const Layer& l, int) {
      const arch::LayerBytes& lb = by_layer[bi][static_cast<std::size_t>(li)];
      ++li;

      double compute_fwd = 0;
      double compute_bwd = 0;
      if (l.is_gemm()) {
        const bool skip_dgrad = first_gemm;
        first_gemm = false;
        auto accumulate = [&](const arch::GemmTiming& t, double* compute) {
          gemm_cycles += static_cast<double>(t.cycles);
          gemm_macs += static_cast<double>(t.macs);
          gemm_buf_bytes +=
              static_cast<double>(t.buf_read_bytes + t.buf_write_bytes);
          *compute += t.seconds(systolic);
        };
        // Equal chunks run identical GEMMs: simulate each chunk size once,
        // then accumulate chunk by chunk so every double sums in the same
        // order as a per-chunk simulation would.
        for (const sched::Group::ChunkClass& chunk : chunks) {
          if (chunk.count == 0) continue;
          const int c = chunk.size;
          const arch::GemmTiming fwd = arch::simulate_gemm(
              systolic, arch::gemm_shape(l, c, arch::GemmPass::kForward));
          const arch::GemmTiming wgrad = arch::simulate_gemm(
              systolic, arch::gemm_shape(l, c, arch::GemmPass::kWeightGrad));
          const arch::GemmTiming dgrad =
              skip_dgrad ? arch::GemmTiming{}
                         : arch::simulate_gemm(
                               systolic, arch::gemm_shape(
                                             l, c, arch::GemmPass::kDataGrad));
          for (int i = 0; i < chunk.count; ++i) {
            accumulate(fwd, &compute_fwd);
            accumulate(wgrad, &compute_bwd);
            if (!skip_dgrad) accumulate(dgrad, &compute_bwd);
          }
        }
      } else if (l.is_attention()) {
        // Attention's Q.K^T / P.V GEMMs run on the array; shapes are per
        // (sample, head), so one simulation per distinct shape scales
        // exactly by mini_batch * heads regardless of the chunking. The
        // softmax runs on the vector unit.
        const double scale =
            static_cast<double>(schedule.mini_batch) * l.heads;
        auto run_attention = [&](arch::GemmPass pass, double* compute) {
          for (const arch::GemmShape& sh : arch::attention_gemm_shapes(l, pass)) {
            const arch::GemmTiming t = arch::simulate_gemm(systolic, sh);
            gemm_cycles += scale * static_cast<double>(t.cycles);
            gemm_macs += scale * static_cast<double>(t.macs);
            gemm_buf_bytes += scale * static_cast<double>(t.buf_read_bytes +
                                                          t.buf_write_bytes);
            *compute += scale * t.seconds(systolic);
          }
        };
        run_attention(arch::GemmPass::kForward, &compute_fwd);
        run_attention(arch::GemmPass::kDataGrad, &compute_bwd);
        const double soft =
            attention_softmax_ops(l) * schedule.mini_batch;
        vector_ops_total += 2 * soft;
        compute_fwd += soft / hw.vector_flops;
        compute_bwd += soft / hw.vector_flops;
      } else {
        const double n = schedule.mini_batch;
        const double ops_f = vector_ops_fwd(l) * n;
        const double ops_b = vector_ops_bwd(l) * n;
        vector_ops_total += ops_f + ops_b;
        compute_fwd = ops_f / hw.vector_flops;
        compute_bwd = ops_b / hw.vector_flops;
        // Vector layers also contend for global-buffer bandwidth.
        compute_fwd = std::max(compute_fwd, lb.buf[0] / hw.buffer_bw_bytes);
        compute_bwd = std::max(compute_bwd, lb.buf[1] / hw.buffer_bw_bytes);
      }

      const double t_fwd = std::max(compute_fwd, lb.dram[0] / dram_bw);
      const double t_bwd = std::max(compute_bwd, lb.dram[1] / dram_bw);
      out.time_s += t_fwd + t_bwd;
      out.compute_time_s += compute_fwd + compute_bwd;
      out.memory_time_s += (lb.dram[0] + lb.dram[1]) / dram_bw;
      *type_slot(out.time_by_type, l.kind) += t_fwd + t_bwd;
    });
  }

  out.systolic_utilization =
      gemm_cycles > 0
          ? gemm_macs / (gemm_cycles *
                         static_cast<double>(systolic.macs_per_cycle()))
          : 0;

  // Chip-level totals: both cores run the same schedule on their halves of
  // the global mini-batch in parallel.
  const double cores = hw.cores;
  out.dram_bytes = cores * traffic.dram_bytes();
  out.buffer_bytes = cores * (traffic.buffer_bytes() + gemm_buf_bytes);
  out.total_macs = cores * gemm_macs;

  arch::EnergyModel em = hw.energy;
  em.dram_pj_per_byte = hw.memory.energy_pj_per_byte;
  out.energy = arch::compute_energy(em, out.dram_bytes, out.buffer_bytes,
                                    out.total_macs, cores * vector_ops_total,
                                    out.time_s);
  return out;
}

}  // namespace mbs::sim
