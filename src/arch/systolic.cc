#include "arch/systolic.h"

#include <algorithm>
#include <array>
#include <cassert>

namespace mbs::arch {

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

}  // namespace mbs::arch
