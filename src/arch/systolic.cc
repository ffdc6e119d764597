#include "arch/systolic.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

#include "arch/layer_costs.h"
#include "core/network.h"
#include "sched/schedule.h"
#include "sched/traffic.h"

namespace mbs::arch {

const char* to_string(GemmPass p) {
  switch (p) {
    case GemmPass::kForward: return "forward";
    case GemmPass::kDataGrad: return "data-grad";
    case GemmPass::kWeightGrad: return "weight-grad";
  }
  return "?";
}

GemmShape gemm_shape(const core::Layer& layer, int sub_batch, GemmPass pass) {
  assert(layer.is_gemm());
  const std::int64_t n = sub_batch;
  GemmShape s;
  if (layer.kind == core::LayerKind::kFc) {
    // FC is a plain GEMM: features are 1x1 "images".
    const std::int64_t in = layer.in.elements();
    const std::int64_t out = layer.out.c;
    switch (pass) {
      case GemmPass::kForward: s = {n, out, in}; break;
      case GemmPass::kDataGrad: s = {n, in, out}; break;
      case GemmPass::kWeightGrad: s = {in, out, n}; break;
    }
    return s;
  }
  const std::int64_t ci = layer.in.c;
  const std::int64_t co = layer.out.c;
  const std::int64_t rs =
      static_cast<std::int64_t>(layer.kernel_h) * layer.kernel_w;
  const std::int64_t hw_o = static_cast<std::int64_t>(layer.out.h) * layer.out.w;
  const std::int64_t hw_i = static_cast<std::int64_t>(layer.in.h) * layer.in.w;
  switch (pass) {
    case GemmPass::kForward: s = {n * hw_o, co, ci * rs}; break;
    case GemmPass::kDataGrad: s = {n * hw_i, ci, co * rs}; break;
    case GemmPass::kWeightGrad: s = {ci * rs, co, n * hw_o}; break;
  }
  return s;
}

std::vector<GemmShape> attention_gemm_shapes(const core::Layer& layer,
                                             GemmPass pass) {
  assert(layer.is_attention());
  const std::int64_t s = static_cast<std::int64_t>(layer.in.h) * layer.in.w;
  const std::int64_t dh = (layer.in.c / 3) / layer.heads;
  switch (pass) {
    case GemmPass::kForward:
      // scores[S x S] = Q[S x dh] . K^T; ctx[S x dh] = P[S x S] . V.
      return {{s, s, dh}, {s, dh, s}};
    case GemmPass::kDataGrad:
      // dP[S x S] = dCtx . V^T; dV[S x dh] = P^T . dCtx;
      // dQ[S x dh] = dS . K;    dK[S x dh] = dS^T . Q.
      return {{s, s, dh}, {s, dh, s}, {s, dh, s}, {s, dh, s}};
    case GemmPass::kWeightGrad:
      return {};
  }
  return {};
}

namespace {

/// `count` identical folds (or tiles) of `size` along one dimension.
struct FoldClass {
  std::int64_t count = 0;
  std::int64_t size = 0;
};

/// Splits `total` into `tile`-sized folds: total / tile full folds plus at
/// most one edge fold of total % tile. Every fold of a class costs the
/// same, so a GEMM's totals are sums of count x per-fold value over
/// classes, computed exactly in int64.
std::array<FoldClass, 2> fold_classes(std::int64_t total, std::int64_t tile) {
  return {{{total / tile, tile}, {total % tile != 0 ? 1 : 0, total % tile}}};
}

}  // namespace

GemmTiming simulate_gemm(const SystolicConfig& cfg, const GemmShape& shape) {
  assert(shape.gh > 0 && shape.gw > 0 && shape.k > 0);
  const std::int64_t m = cfg.tile_m();
  const std::int64_t n = cfg.cols;
  const std::int64_t k_rows = cfg.rows;

  const std::int64_t tiles_h = (shape.gh + m - 1) / m;
  const std::int64_t tiles_w = (shape.gw + n - 1) / n;
  const std::int64_t waves = (shape.k + k_rows - 1) / k_rows;

  GemmTiming t;
  t.macs = shape.macs();

  for (const FoldClass& h : fold_classes(shape.gh, m)) {
    const std::int64_t m_t = h.size;
    for (const FoldClass& w : fold_classes(shape.gw, n)) {
      const std::int64_t n_t = w.size;
      std::int64_t cycles;
      if (cfg.weight_double_buffering) {
        // Initial weight fill, then each wave streams m_t rows; the next
        // wave's weights shift into the second register concurrently, which
        // only fully hides the k_rows-cycle load when m_t >= k_rows.
        cycles = k_rows + waves * std::max(m_t, k_rows) + n_t;
      } else {
        // Every wave pays the full weight shift-in gap (Fig. 8b top).
        cycles = waves * (k_rows + m_t) + k_rows + n_t;
      }
      t.cycles += h.count * w.count * cycles;
    }
  }

  // Global-buffer streaming: an A block (m_t x K) is re-read for every tile
  // column; a B block (K x n_t) for every tile row; C written back once in
  // 16b after the 32b accumulation completes.
  t.buf_read_bytes = 2 * (shape.gh * shape.k * tiles_w +
                          shape.k * shape.gw * tiles_h);
  t.buf_write_bytes = 2 * shape.gh * shape.gw;

  t.utilization = static_cast<double>(t.macs) /
                  (static_cast<double>(t.cycles) * cfg.rows * cfg.cols);
  return t;
}

namespace {

constexpr std::int64_t kElemBytes = 2;  // fp16 operands

/// Skewed-wavefront cycles of one fold: `preload` cycles of stationary-
/// operand shift-in, then a `stream`-long skewed stream across a
/// `span_a` x `span_b` mapped region (first result after span_a + span_b - 2
/// cycles of fill/drain skew).
std::int64_t fold_cycles(std::int64_t preload, std::int64_t stream,
                         std::int64_t span_a, std::int64_t span_b) {
  return preload + stream + span_a + span_b - 2;
}

/// Adds `count` identical folds (count may be 0 for an empty class).
void add_folds(GemmCycles* g, std::int64_t count, std::int64_t cycles,
               std::int64_t mapped, std::int64_t macs,
               std::int64_t fold_bytes) {
  if (count == 0) return;
  g->comp_cycles += count * cycles;
  g->mapped_pe_folds += count * mapped;
  g->macs += count * macs;
  g->folds += count;
  g->max_fold_bytes = std::max(g->max_fold_bytes, fold_bytes);
}

}  // namespace

GemmCycles simulate_gemm_cycles(const SystolicConfig& cfg, Dataflow df,
                                const GemmShape& shape) {
  assert(shape.gh > 0 && shape.gw > 0 && shape.k > 0);
  const std::int64_t R = cfg.rows;
  const std::int64_t C = cfg.cols;
  GemmCycles g;

  if (df == Dataflow::kOutputStationary) {
    // C tiles pinned to the array: Gh folds over rows, Gw over cols, the
    // full reduction streams through each fold with no partial-sum spills.
    for (const FoldClass& h : fold_classes(shape.gh, R)) {
      const std::int64_t m_t = h.size;
      for (const FoldClass& w : fold_classes(shape.gw, C)) {
        const std::int64_t n_t = w.size;
        const std::int64_t count = h.count * w.count;
        const std::int64_t fold_elems =
            m_t * shape.k + shape.k * n_t + m_t * n_t;
        add_folds(&g, count, fold_cycles(0, shape.k, m_t, n_t), m_t * n_t,
                  m_t * n_t * shape.k, kElemBytes * fold_elems);
        g.bytes.a += count * kElemBytes * m_t * shape.k;
        g.bytes.b += count * kElemBytes * shape.k * n_t;
        g.bytes.c += count * kElemBytes * m_t * n_t;
      }
    }
    return g;
  }

  // ws/is fold the reduction over the array rows and one GEMM side over the
  // array columns, streaming the other side: ws pins B (K x Gw) and streams
  // Gh rows of A, is pins A (Gh x K) and streams Gw columns of B. Partial
  // sums spill to the scratchpad after each fold and are re-read by every
  // fold after the first along k, so the first k-fold is its own class.
  const bool ws = df == Dataflow::kWeightStationary;
  const std::int64_t stream = ws ? shape.gh : shape.gw;
  const std::int64_t span = ws ? shape.gw : shape.gh;
  const std::int64_t k_first = std::min(R, shape.k);
  const std::array<FoldClass, 2> k_rest = fold_classes(shape.k - k_first, R);
  struct KClass {
    FoldClass fold;
    std::int64_t psum_rw;  ///< write, plus read-back after the first fold
  };
  const KClass k_classes[] = {
      {{1, k_first}, 1}, {k_rest[0], 2}, {k_rest[1], 2}};
  for (const KClass& kc : k_classes) {
    const std::int64_t k_t = kc.fold.size;
    for (const FoldClass& sc : fold_classes(span, C)) {
      const std::int64_t s_t = sc.size;
      const std::int64_t count = kc.fold.count * sc.count;
      const std::int64_t fold_elems =
          k_t * s_t + stream * k_t + stream * s_t;
      add_folds(&g, count, fold_cycles(k_t, stream, k_t, s_t), k_t * s_t,
                k_t * s_t * stream, kElemBytes * fold_elems);
      const std::int64_t pinned = count * kElemBytes * k_t * s_t;
      const std::int64_t streamed = count * kElemBytes * stream * k_t;
      g.bytes.a += ws ? streamed : pinned;
      g.bytes.b += ws ? pinned : streamed;
      g.bytes.c += count * kElemBytes * kc.psum_rw * stream * s_t;
    }
  }
  return g;
}

namespace {

using core::Layer;

/// ceil(bytes / per-cycle rate) as whole cycles; 0 when the rate is
/// unconstrained (rate <= 0 models infinite bandwidth).
std::int64_t transfer_cycles(double bytes, double bytes_per_cycle) {
  if (bytes_per_cycle <= 0 || bytes <= 0) return 0;
  return static_cast<std::int64_t>(std::ceil(bytes / bytes_per_cycle));
}

}  // namespace

SystolicStepResult simulate_systolic_step(const core::Network& net,
                                          const sched::Schedule& schedule,
                                          const sched::Traffic& traffic,
                                          const SystolicSimParams& p) {
  const SystolicConfig& cfg = p.array;
  const Dataflow df = p.options.dataflow;

  const LayerBytesTable by_layer = layer_bytes(net, traffic);

  const double dram_bpc = p.dram_bw_bytes_per_s > 0
                              ? p.dram_bw_bytes_per_s / cfg.clock_hz
                              : 0;
  const double buf_bpc =
      p.buffer_bw_bytes > 0 ? p.buffer_bw_bytes / cfg.clock_hz : 0;
  const double vec_opc =
      p.vector_flops > 0 ? p.vector_flops / cfg.clock_hz : 0;

  SystolicStepResult out;
  std::int64_t gemm_macs = 0;
  std::int64_t folds_total = 0;
  std::int64_t mapped_pe_total = 0;
  OperandBytes stream;

  bool first_gemm = true;
  for (std::size_t bi = 0; bi < net.blocks.size(); ++bi) {
    const sched::Group& grp = schedule.groups[static_cast<std::size_t>(
        schedule.group_of_block(static_cast<int>(bi)))];
    // Equal chunks run identical GEMMs: each distinct chunk size is
    // simulated once and weighted by its count.
    const auto chunks = grp.chunk_classes(schedule.mini_batch);

    int li = 0;
    net.blocks[bi].for_each_layer([&](const Layer& l, int) {
      const LayerBytes& lb = by_layer[bi][static_cast<std::size_t>(li)];
      ++li;

      std::int64_t comp[2] = {0, 0};  // forward, backward
      std::int64_t max_fold_bytes = 0;
      bool gate_on_scratchpad = false;
      // Charges `count` runs of one GEMM to `phase`.
      auto run = [&](const GemmShape& shape, std::int64_t count, int phase) {
        const GemmCycles gc = simulate_gemm_cycles(cfg, df, shape);
        comp[phase] += gc.comp_cycles * count;
        gemm_macs += gc.macs * count;
        folds_total += gc.folds * count;
        mapped_pe_total += gc.mapped_pe_folds * count;
        stream.a += gc.bytes.a * count;
        stream.b += gc.bytes.b * count;
        stream.c += gc.bytes.c * count;
        max_fold_bytes = std::max(max_fold_bytes, gc.max_fold_bytes);
      };
      if (l.is_gemm()) {
        gate_on_scratchpad = true;
        const bool skip_dgrad = first_gemm;
        first_gemm = false;
        for (const sched::Group::ChunkClass& chunk : chunks) {
          if (chunk.count == 0) continue;
          const int c = chunk.size;
          run(gemm_shape(l, c, GemmPass::kForward), chunk.count, 0);
          run(gemm_shape(l, c, GemmPass::kWeightGrad), chunk.count, 1);
          if (!skip_dgrad)
            run(gemm_shape(l, c, GemmPass::kDataGrad), chunk.count, 1);
        }
      } else if (l.is_attention()) {
        // Attention GEMMs run on the array too; shapes are per (sample,
        // head), so one simulation per distinct shape scales exactly by
        // mini_batch * heads (chunking changes nothing: the shapes carry no
        // batch dimension). The softmax runs on the vector unit.
        gate_on_scratchpad = true;
        const std::int64_t scale =
            static_cast<std::int64_t>(schedule.mini_batch) * l.heads;
        for (const GemmShape& sh :
             attention_gemm_shapes(l, GemmPass::kForward))
          run(sh, scale, 0);
        for (const GemmShape& sh :
             attention_gemm_shapes(l, GemmPass::kDataGrad))
          run(sh, scale, 1);
        if (vec_opc > 0) {
          const double soft =
              attention_softmax_ops(l) * schedule.mini_batch;
          comp[0] += static_cast<std::int64_t>(std::ceil(soft / vec_opc));
          comp[1] += static_cast<std::int64_t>(std::ceil(soft / vec_opc));
        }
      } else {
        // Vector layers: op throughput, floored by global-buffer bandwidth
        // (mirrors the analytic model's max with buffer time).
        const double n = schedule.mini_batch;
        const std::int64_t ops_f = vec_opc > 0
            ? static_cast<std::int64_t>(
                  std::ceil(vector_ops_fwd(l) * n / vec_opc))
            : 0;
        const std::int64_t ops_b = vec_opc > 0
            ? static_cast<std::int64_t>(
                  std::ceil(vector_ops_bwd(l) * n / vec_opc))
            : 0;
        comp[0] = std::max(ops_f, transfer_cycles(lb.buf[0], buf_bpc));
        comp[1] = std::max(ops_b, transfer_cycles(lb.buf[1], buf_bpc));
      }

      // Double-buffer gate: a GEMM layer's DRAM transfers overlap compute
      // only when two copies of its largest fold fit in the scratchpad
      // (one computing, one filling); otherwise transfer and compute
      // serialize. Vector layers stream through the (double-buffered)
      // global buffer and always overlap.
      const bool overlap =
          !gate_on_scratchpad || 2 * max_fold_bytes <= p.options.scratchpad_bytes;
      for (int ph = 0; ph < 2; ++ph) {
        const std::int64_t dram = transfer_cycles(lb.dram[ph], dram_bpc);
        out.stats.comp_cycles += comp[ph];
        out.stats.stall_cycles +=
            overlap ? std::max<std::int64_t>(0, dram - comp[ph]) : dram;
      }
    });
  }

  const std::int64_t total = out.stats.total_cycles();
  out.stats.util =
      total > 0 ? static_cast<double>(gemm_macs) /
                      (static_cast<double>(total) * cfg.rows * cfg.cols)
                : 0;
  out.stats.mapping_eff =
      folds_total > 0 ? static_cast<double>(mapped_pe_total) /
                            (static_cast<double>(folds_total) * cfg.rows *
                             cfg.cols)
                      : 0;

  out.time_s = static_cast<double>(total) / cfg.clock_hz;
  out.compute_time_s = static_cast<double>(out.stats.comp_cycles) / cfg.clock_hz;
  out.stall_time_s = static_cast<double>(out.stats.stall_cycles) / cfg.clock_hz;

  // Chip-level totals; DRAM bytes are the schedule's analytic traffic by
  // construction, so the backends can never disagree on bytes moved.
  out.dram_bytes = p.cores * traffic.dram_bytes();
  out.total_macs = static_cast<double>(p.cores) * static_cast<double>(gemm_macs);
  if (out.time_s > 0) {
    out.bw_ifmap = static_cast<double>(stream.a) / out.time_s;
    out.bw_filter = static_cast<double>(stream.b) / out.time_s;
    out.bw_ofmap = static_cast<double>(stream.c) / out.time_s;
  }
  return out;
}

}  // namespace mbs::arch
