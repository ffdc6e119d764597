// Training operators on the fast kernel layer.
//
// All three convolution passes are im2col + GEMM lowerings (train/
// im2col.cc). Bit identity with the original scalar loops is preserved
// exactly, not approximately: the forward GEMM accumulates in float starting
// from the bias with K traversed in the original (c, r, s) order
// (matmul_bt_f32_into), the weight-gradient GEMM sums rows in the original
// (b, yh, yw) order (matmul_at_into), and the data-gradient GEMM runs the
// forward lowering on dY with flipped weights, whose K order (o, r', s')
// is the seed scatter's per-element addend sequence (o-major, then
// (yh, yw) ascending; see conv2d_backward_into). conv2d_forward_into
// records its im2col lowering in a per-layer ConvCache that
// conv2d_backward_into consumes, all scratch is workspace-arena memory,
// and every op's outputs land in step-persistent caller tensors — a
// steady-state train step performs zero heap allocations inside any
// kernel (Debug-asserted via util/alloc_hook.cc). Everything else is
// data-parallel over disjoint output ranges via util::parallel_for, with
// grains from util::work_grain, and never splits a floating-point
// reduction — so results are bit-identical at any MBS_THREADS setting.
#include "train/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

#include "train/im2col.h"
#include "util/arena.h"
#include "util/parallel.h"

namespace mbs::train {

namespace {

int out_dim(int in, int kernel, int stride, int pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

/// Max of one rows x cols pooling window, scanned row-major from -inf
/// (the first maximum wins), and its in-window offset r*kernel + s. A
/// window with nothing above -inf (all -inf or NaN) keeps offset 0.
/// Branch-free: on activations `v > best` is a coin flip.
inline void window_max(const float* win, std::int64_t iw, int kernel,
                       int rows, int cols, float& y, std::uint8_t& idx) {
  float best = -std::numeric_limits<float>::infinity();
  int best_off = 0;
  for (int r = 0; r < rows; ++r)
    for (int s = 0; s < cols; ++s) {
      const float v = win[r * iw + s];
      // All-ones when v wins; the offset blend is spelled as a mask, since
      // GCC turns a ?: pair on one condition back into a branch.
      const int win_mask = -static_cast<int>(v > best);
      best_off = ((r * kernel + s) & win_mask) | (best_off & ~win_mask);
      best = v > best ? v : best;
    }
  y = best;
  idx = static_cast<std::uint8_t>(best_off);
}

/// window_max over a row of `ow` full 2x2, stride-2 windows whose top and
/// bottom input rows start at `top` and `bot`. Each window's two rows are
/// scanned independently from -inf and merged: the bottom row replaces the
/// top only when its max is strictly greater — exactly where one row-major
/// scan would have moved on — so the results are identical. Written as
/// std::max and mask arithmetic, the loop vectorizes. Kept out of line:
/// inlined into the plane loop, GCC 12 loses the restrict guarantees and
/// the loop runs 2-3x slower on inputs past L1.
[[gnu::noinline]] void maxpool_row_2x2(const float* __restrict__ top,
                                       const float* __restrict__ bot, int ow,
                                       float* __restrict__ y,
                                       std::uint8_t* __restrict__ idx) {
  const float ninf = -std::numeric_limits<float>::infinity();
  for (int j = 0; j < ow; ++j) {
    const float a = top[2 * j], b = top[2 * j + 1];
    const float c = bot[2 * j], d = bot[2 * j + 1];
    const float top_first = std::max(ninf, a);
    const int top_off = b > top_first;
    const float top_best = std::max(top_first, b);
    const float bot_first = std::max(ninf, c);
    const int bot_off = 2 + (d > bot_first);
    const float bot_best = std::max(bot_first, d);
    const int take_bot = bot_best > top_best;
    y[j] = std::max(top_best, bot_best);
    idx[j] = static_cast<std::uint8_t>(top_off ^
                                       ((top_off ^ bot_off) & -take_bot));
  }
}

/// One (sample, channel) plane of maxpool_forward_into. Every size is a
/// by-value parameter: the byte stores into `idx` may alias anything, so
/// sizes read through a lambda capture would be reloaded per window.
void maxpool_plane(const float* x, int ih, int iw, int kernel, int stride,
                   int oh, int ow, float* y, std::uint8_t* idx) {
  for (int yh = 0; yh < oh; ++yh) {
    // A window hanging past the bottom/right edge (an input smaller than
    // the kernel) is clipped to the input.
    const int rows = std::min(kernel, ih - yh * stride);
    const float* x_row = x + static_cast<std::int64_t>(yh) * stride * iw;
    if (kernel == 2 && stride == 2 && rows == 2 && 2 * ow <= iw) {
      maxpool_row_2x2(x_row, x_row + iw, ow, y, idx);  // SmallCnn's pools
      y += ow;
      idx += ow;
      continue;
    }
    for (int yw = 0; yw < ow; ++yw, ++y, ++idx) {
      const int cols = std::min(kernel, iw - yw * stride);
      window_max(x_row + static_cast<std::int64_t>(yw) * stride, iw, kernel,
                 rows, cols, *y, *idx);
    }
  }
}

}  // namespace

void conv2d_forward_into(const Tensor& x, const Tensor& w, const Tensor& bias,
                         int stride, int pad, ConvCache* cache, Tensor& y) {
  assert(x.ndim() == 4 && w.ndim() == 4);
  util::ScopedKernelTimer timer(util::KernelKind::kConvFwd);
  const int n = x.dim(0), ci = x.dim(1);
  const int co = w.dim(0), kh = w.dim(2), kw = w.dim(3);
  assert(w.dim(1) == ci);
  const int oh = out_dim(x.dim(2), kh, stride, pad);
  const int ow = out_dim(x.dim(3), kw, stride, pad);
  const int rows = n * oh * ow;
  const int k = ci * kh * kw;

  util::ArenaScope scope;
  // The im2col lowering: into the layer's step-persistent cache when one
  // is attached, else into zeroed arena scratch. Buffer reuse preserves
  // contents ONLY when the full geometry stamp matches — the padding-zero
  // layout depends on kernel/stride/pad, not just the cols shape, so a
  // geometry change that happens to keep the shape (e.g. a 3x1 kernel
  // followed by a 1x3 one) must re-zero the buffer.
  float* cols = nullptr;
  if (cache) {
    if (cache->matches(x, kh, kw, stride, pad))
      cache->cols.ensure_shape({rows, k});  // padding zeros still valid
    else
      cache->cols.ensure_zeroed({rows, k});
    cols = cache->cols.data();
    cache->x_shape = x.shape();
    cache->kh = kh;
    cache->kw = kw;
    cache->stride = stride;
    cache->pad = pad;
    cache->valid = true;
  } else {
    cols = scope.floats(static_cast<std::int64_t>(rows) * k);
    std::memset(cols, 0,
                static_cast<std::size_t>(rows) * k * sizeof(float));
  }
  im2col_into(x, kh, kw, stride, pad, pad, cols);

  // W is already the [Co, Ci*Kh*Kw] GEMM operand in row-major memory; no
  // reshaped copy needed. C [N*Ho*Wo, Co] is arena scratch.
  float* c = scope.floats(static_cast<std::int64_t>(rows) * co);
  matmul_bt_f32_into(cols, rows, w.data(), co, k,
                     bias.empty() ? nullptr : bias.data(), c);
  y.ensure_shape({n, co, oh, ow});
  rows_to_nchw_into(c, y);
}

void conv2d_backward_into(const Tensor& x, const Tensor& w, const Tensor& dy,
                          int stride, int pad, bool need_dx, ConvCache* cache,
                          Conv2dGrads& g) {
  util::ScopedKernelTimer timer(util::KernelKind::kConvBwd);
  const int n = x.dim(0), ci = x.dim(1), ih = x.dim(2), iw = x.dim(3);
  const int co = w.dim(0), kh = w.dim(2), kw = w.dim(3);
  const int oh = dy.dim(2), ow = dy.dim(3);
  const int rows = n * oh * ow;
  const int k = ci * kh * kw;

  util::ArenaScope scope;
  // dY as a [N*Ho*Wo, Co] matrix (arena scratch, fully overwritten).
  float* dy2 = scope.floats(static_cast<std::int64_t>(rows) * co);
  nchw_to_rows_into(dy, dy2);

  // The forward pass's im2col lowering, reused when the layer cache holds
  // it — the other half of the per-step im2col cost. Recomputed (bit-
  // identically) when absent or stale.
  const float* cols = nullptr;
  if (cache && cache->matches(x, kh, kw, stride, pad)) {
    cols = cache->cols.data();
  } else {
    float* scratch = scope.floats(static_cast<std::int64_t>(rows) * k);
    std::memset(scratch, 0,
                static_cast<std::size_t>(rows) * k * sizeof(float));
    im2col_into(x, kh, kw, stride, pad, pad, scratch);
    cols = scratch;
  }

  // Weight gradient: im2col(x)^T * dY sums rows in the original
  // (b, yh, yw) order; bias gradient: dY column sums, same order.
  float* dw_kxn = scope.floats(static_cast<std::int64_t>(k) * co);
  matmul_at_into(cols, k, dy2, co, rows, dw_kxn);
  g.dw.ensure_shape(w.shape());
  kxn_to_conv_weights_into(dw_kxn, co, ci, kh, kw, g.dw.data());
  g.dbias.ensure_shape({co});
  column_sums_f32_into(dy2, rows, co, g.dbias.data());

  if (!need_dx) return;

  // Data gradient: dx is the stride-1 forward convolution of the zero-
  // dilated, (k-1-pad)-padded dY with flipped, transposed weights, lowered
  // like the forward pass. Its K order (o, r', s') with r' = kh-1-r visits
  // each dx element's addends o-major, then (yh, yw) ascending — the seed
  // scatter's sequence — and the zero taps (padding, dilation) add +/-0,
  // which is exact for finite values (see im2col.cc), so the result is
  // bit-identical to the seed loop at every stride and dY density.
  const int kd = co * kh * kw;
  const std::int64_t xrows = static_cast<std::int64_t>(n) * ih * iw;
  float* dcols = scope.floats(xrows * kd);
  dgrad_cols_into(dy2, n, co, oh, ow, ih, iw, kh, kw, stride, pad, dcols);
  float* wf = scope.floats(static_cast<std::int64_t>(ci) * kd);
  conv_weights_to_dgrad_into(w.data(), co, ci, kh, kw, wf);
  float* dxrows = scope.floats(xrows * ci);
  matmul_bt_f32_into(dcols, xrows, wf, ci, kd, nullptr, dxrows);
  g.dx.ensure_shape({n, ci, ih, iw});
  rows_to_nchw_into(dxrows, g.dx);
}

ConvLayer::ConvLayer(util::Rng& rng, int co, int ci, int k, int stride,
                     int pad, bool bias)
    : w(Tensor::randn({co, ci, k, k}, rng,
                      std::sqrt(2.0 / (static_cast<double>(ci) * k * k)))),
      dw(w.shape()),
      stride(stride),
      pad(pad) {
  if (bias) {
    b = Tensor({co});
    db = Tensor({co});
  }
}

void ConvLayer::forward(const Tensor& x, Tensor& y) {
  conv2d_forward_into(x, w, b, stride, pad, &cache, y);
}

void ConvLayer::backward(const Tensor& x, const Tensor& dy, bool need_dx) {
  conv2d_backward_into(x, w, dy, stride, pad, need_dx, &cache, g);
  dw.axpy(1.0f, g.dw);
  if (!db.empty()) db.axpy(1.0f, g.dbias);
}

void maxpool_forward_into(const Tensor& x, int kernel, int stride,
                          MaxPoolCache& cache, Tensor& y) {
  assert(x.ndim() == 4 && kernel * kernel <= 256);
  util::ScopedKernelTimer timer(util::KernelKind::kPool);
  const int n = x.dim(0), c = x.dim(1), ih = x.dim(2), iw = x.dim(3);
  const int oh = out_dim(ih, kernel, stride, 0);
  const int ow = out_dim(iw, kernel, stride, 0);
  y.ensure_shape({n, c, oh, ow});
  cache.argmax.resize(static_cast<std::size_t>(y.size()));
  cache.x_shape = x.shape();
  cache.kernel = kernel;
  cache.stride = stride;
  const std::int64_t per = static_cast<std::int64_t>(oh) * ow;
  const std::int64_t x_hw = static_cast<std::int64_t>(ih) * iw;
  const float* xd = x.data();
  float* yd = y.data();
  std::uint8_t* idx = cache.argmax.data();
  util::parallel_for(
      static_cast<std::int64_t>(n) * c, util::work_grain(x_hw),
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t plane = p0; plane < p1; ++plane)
          maxpool_plane(xd + plane * x_hw, ih, iw, kernel, stride, oh, ow,
                        yd + plane * per, idx + plane * per);
      });
}

void maxpool_backward_into(const Tensor& dy, const MaxPoolCache& cache,
                           Tensor& dx) {
  util::ScopedKernelTimer timer(util::KernelKind::kPool);
  dx.ensure_shape(cache.x_shape);
  const int iw = cache.x_shape[3];
  const int oh = dy.dim(2), ow = dy.dim(3);
  const int kernel = cache.kernel, stride = cache.stride;
  const std::int64_t per = static_cast<std::int64_t>(oh) * ow;
  const std::int64_t x_hw = static_cast<std::int64_t>(cache.x_shape[2]) * iw;
  // In-window offset -> input offset from the window's first element.
  std::int64_t rel[256];
  for (int off = 0; off < kernel * kernel; ++off)
    rel[off] = static_cast<std::int64_t>(off / kernel) * iw + off % kernel;
  const float* dyd = dy.data();
  const std::uint8_t* idx = cache.argmax.data();
  float* dxd = dx.data();
  // Every argmax stays inside its own (sample, channel) plane, so the
  // scatter partitions cleanly over planes; each plane is zeroed right
  // before its scatter, which adds in output order as a fresh zero tensor
  // would.
  util::parallel_for(
      static_cast<std::int64_t>(cache.x_shape[0]) * cache.x_shape[1],
      util::work_grain(x_hw), [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t plane = p0; plane < p1; ++plane) {
          float* dx_plane = dxd + plane * x_hw;
          std::fill(dx_plane, dx_plane + x_hw, 0.0f);
          std::int64_t oi = plane * per;
          for (int yh = 0; yh < oh; ++yh)
            for (int yw = 0; yw < ow; ++yw, ++oi)
              dx_plane[static_cast<std::int64_t>(yh) * stride * iw +
                       static_cast<std::int64_t>(yw) * stride + rel[idx[oi]]] +=
                  dyd[oi];
        }
      });
}

void global_avg_pool_forward_into(const Tensor& x, Tensor& y) {
  util::ScopedKernelTimer timer(util::KernelKind::kPool);
  const int n = x.dim(0), c = x.dim(1);
  const int hw = x.dim(2) * x.dim(3);
  y.ensure_shape({n, c});
  const float* xd = x.data();
  float* yd = y.data();
  util::parallel_for(
      static_cast<std::int64_t>(n) * c, util::work_grain(hw),
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t plane = p0; plane < p1; ++plane) {
          const float* row = xd + plane * hw;
          double s = 0;
          for (int i = 0; i < hw; ++i) s += row[i];
          yd[plane] = static_cast<float>(s / hw);
        }
      });
}

void global_avg_pool_backward_into(const Tensor& dy,
                                   const std::vector<int>& x_shape,
                                   Tensor& dx) {
  util::ScopedKernelTimer timer(util::KernelKind::kPool);
  dx.ensure_shape(x_shape);
  const int c = x_shape[1];
  const std::int64_t hw = static_cast<std::int64_t>(x_shape[2]) * x_shape[3];
  const float inv = 1.0f / static_cast<float>(hw);
  const float* dyd = dy.data();
  float* dxd = dx.data();
  util::parallel_for(
      static_cast<std::int64_t>(x_shape[0]) * c, util::work_grain(hw),
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t plane = p0; plane < p1; ++plane) {
          const float d = dyd[plane] * inv;
          float* row = dxd + plane * hw;
          for (std::int64_t i = 0; i < hw; ++i) row[i] = d;
        }
      });
}

void relu_forward_into(const Tensor& x, Tensor& y) {
  util::ScopedKernelTimer timer(util::KernelKind::kRelu);
  y.ensure_shape(x.shape());
  const float* xd = x.data();
  float* yd = y.data();
  util::parallel_for(x.size(), util::work_grain(1),
                     [&](std::int64_t i0, std::int64_t i1) {
                       for (std::int64_t i = i0; i < i1; ++i)
                         yd[i] = xd[i] < 0 ? 0.0f : xd[i];
                     });
}

void relu_backward_inplace(Tensor& d, const Tensor& y) {
  assert(d.size() == y.size());
  util::ScopedKernelTimer timer(util::KernelKind::kRelu);
  const float* yd = y.data();
  float* dxd = d.data();
  // A select, not `if (y <= 0) d = 0`: it stores the same value, but on
  // post-norm activations that branch is a coin flip, and the select
  // vectorizes.
  util::parallel_for(d.size(), util::work_grain(1),
                     [&](std::int64_t i0, std::int64_t i1) {
                       for (std::int64_t i = i0; i < i1; ++i)
                         dxd[i] = yd[i] <= 0 ? 0.0f : dxd[i];
                     });
}

void linear_forward_into(const Tensor& x, const Tensor& w, const Tensor& bias,
                         Tensor& y) {
  util::ScopedKernelTimer timer(util::KernelKind::kLinear);
  const int n = x.dim(0);
  const std::int64_t in = x.size() / n;
  const int out = w.dim(0);
  assert(w.dim(1) == in);
  y.ensure_shape({n, out});
  util::parallel_for(n, util::work_grain(out * in),
                     [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b)
      for (int o = 0; o < out; ++o) {
        double acc = bias.empty() ? 0.0 : bias[o];
        for (std::int64_t i = 0; i < in; ++i)
          acc += x[b * in + i] * w[o * in + i];
        y[b * out + o] = static_cast<float>(acc);
      }
  });
}

void linear_backward_into(const Tensor& x, const Tensor& w, const Tensor& dy,
                          LinearGrads& g) {
  util::ScopedKernelTimer timer(util::KernelKind::kLinear);
  const int n = x.dim(0);
  const std::int64_t in = x.size() / n;
  const int out = w.dim(0);
  g.dx.ensure_zeroed(x.shape());
  g.dw.ensure_zeroed({out, static_cast<int>(in)});
  g.dbias.ensure_zeroed({out});
  // dw/dbias reduce over the batch (owned per output unit), dx over the
  // output units (owned per sample); each keeps the original term order.
  util::parallel_for(out, util::work_grain(n * in),
                     [&](std::int64_t o0, std::int64_t o1) {
    for (std::int64_t o = o0; o < o1; ++o)
      for (int b = 0; b < n; ++b) {
        const float d = dy[static_cast<std::int64_t>(b) * out + o];
        g.dbias[o] += d;
        for (std::int64_t i = 0; i < in; ++i)
          g.dw[o * in + i] += d * x[b * in + i];
      }
  });
  util::parallel_for(n, util::work_grain(out * in),
                     [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b)
      for (int o = 0; o < out; ++o) {
        const float d = dy[b * out + o];
        for (std::int64_t i = 0; i < in; ++i)
          g.dx[b * in + i] += d * w[o * in + i];
      }
  });
}

ClassifierHead::ClassifierHead(util::Rng& rng, int classes, int features)
    : w(Tensor::randn({classes, features}, rng, std::sqrt(2.0 / features))),
      dw(w.shape()),
      b({classes}),
      db({classes}) {}

const Tensor& ClassifierHead::forward(const Tensor& x) {
  x_shape = x.shape();
  global_avg_pool_forward_into(x, pooled);
  linear_forward_into(pooled, w, b, logits);
  return logits;
}

Tensor& ClassifierHead::backward(const Tensor& dlogits) {
  linear_backward_into(pooled, w, dlogits, g);
  dw.axpy(1.0f, g.dw);
  db.axpy(1.0f, g.dbias);
  global_avg_pool_backward_into(g.dx, x_shape, dx);
  return dx;
}

}  // namespace mbs::train
