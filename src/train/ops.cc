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
// and outputs land in step-persistent caller tensors — a steady-state
// train step's conv/GEMM path performs zero heap allocations (Debug-
// asserted via util/alloc_hook.cc). Everything else is data-parallel over
// disjoint output ranges via util::parallel_for, which never splits a
// floating-point reduction — so results are bit-identical at any
// MBS_THREADS setting.
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

}  // namespace

Tensor conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& bias,
                      int stride, int pad) {
  Tensor y;
  conv2d_forward_into(x, w, bias, stride, pad, /*cache=*/nullptr, y);
  return y;
}

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

Conv2dGrads conv2d_backward(const Tensor& x, const Tensor& w,
                            const Tensor& dy, int stride, int pad,
                            bool need_dx) {
  Conv2dGrads g;
  conv2d_backward_into(x, w, dy, stride, pad, need_dx, /*cache=*/nullptr, g);
  return g;
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

MaxPoolResult maxpool_forward(const Tensor& x, int kernel, int stride) {
  util::ScopedKernelTimer timer(util::KernelKind::kPool);
  const int n = x.dim(0), c = x.dim(1), ih = x.dim(2), iw = x.dim(3);
  const int oh = out_dim(ih, kernel, stride, 0);
  const int ow = out_dim(iw, kernel, stride, 0);
  MaxPoolResult r;
  r.y = Tensor({n, c, oh, ow});
  r.argmax.assign(static_cast<std::size_t>(r.y.size()), 0);
  const std::int64_t per = static_cast<std::int64_t>(oh) * ow;
  const std::int64_t x_hw = static_cast<std::int64_t>(ih) * iw;
  const float* xd = x.data();
  float* yd = r.y.data();
  util::parallel_for(
      static_cast<std::int64_t>(n) * c, 1,
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t plane = p0; plane < p1; ++plane) {
          const float* x_plane = xd + plane * x_hw;
          const std::int64_t x_base = plane * x_hw;
          std::int64_t oi = plane * per;
          for (int yh = 0; yh < oh; ++yh)
            for (int yw = 0; yw < ow; ++yw, ++oi) {
              float best = -std::numeric_limits<float>::infinity();
              std::int64_t best_idx = 0;
              for (int r2 = 0; r2 < kernel; ++r2) {
                const int xh = yh * stride + r2;
                if (xh >= ih) continue;
                const float* row =
                    x_plane + static_cast<std::int64_t>(xh) * iw;
                for (int s2 = 0; s2 < kernel; ++s2) {
                  const int xw = yw * stride + s2;
                  if (xw >= iw) continue;
                  const float v = row[xw];
                  if (v > best) {
                    best = v;
                    best_idx = x_base + static_cast<std::int64_t>(xh) * iw + xw;
                  }
                }
              }
              yd[oi] = best;
              r.argmax[static_cast<std::size_t>(oi)] = best_idx;
            }
        }
      });
  return r;
}

Tensor maxpool_backward(const Tensor& dy, const MaxPoolResult& cache,
                        const std::vector<int>& x_shape) {
  util::ScopedKernelTimer timer(util::KernelKind::kPool);
  Tensor dx(x_shape);
  // argmax targets stay inside their own (sample, channel) plane, so the
  // scatter-add partitions cleanly over planes.
  const std::int64_t planes =
      static_cast<std::int64_t>(dy.dim(0)) * dy.dim(1);
  const std::int64_t per = dy.size() / (planes < 1 ? 1 : planes);
  util::parallel_for(planes, 1, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t i = p0 * per; i < p1 * per; ++i)
      dx[cache.argmax[static_cast<std::size_t>(i)]] += dy[i];
  });
  return dx;
}

Tensor global_avg_pool_forward(const Tensor& x) {
  util::ScopedKernelTimer timer(util::KernelKind::kPool);
  const int n = x.dim(0), c = x.dim(1);
  const int hw = x.dim(2) * x.dim(3);
  Tensor y({n, c});
  const float* xd = x.data();
  float* yd = y.data();
  util::parallel_for(
      static_cast<std::int64_t>(n) * c, 4,
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t plane = p0; plane < p1; ++plane) {
          const float* row = xd + plane * hw;
          double s = 0;
          for (int i = 0; i < hw; ++i) s += row[i];
          yd[plane] = static_cast<float>(s / hw);
        }
      });
  return y;
}

Tensor global_avg_pool_backward(const Tensor& dy,
                                const std::vector<int>& x_shape) {
  util::ScopedKernelTimer timer(util::KernelKind::kPool);
  Tensor dx(x_shape);
  const int c = x_shape[1];
  const std::int64_t hw = static_cast<std::int64_t>(x_shape[2]) * x_shape[3];
  const float inv = 1.0f / static_cast<float>(hw);
  float* dxd = dx.data();
  util::parallel_for(
      static_cast<std::int64_t>(x_shape[0]) * c, 4,
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t plane = p0; plane < p1; ++plane) {
          const float d = dy[plane] * inv;
          float* row = dxd + plane * hw;
          for (std::int64_t i = 0; i < hw; ++i) row[i] = d;
        }
      });
  return dx;
}

Tensor relu_forward(const Tensor& x) {
  util::ScopedKernelTimer timer(util::KernelKind::kRelu);
  Tensor y = x;
  float* yd = y.data();
  util::parallel_for(y.size(), 1 << 15,
                     [&](std::int64_t i0, std::int64_t i1) {
                       for (std::int64_t i = i0; i < i1; ++i)
                         if (yd[i] < 0) yd[i] = 0;
                     });
  return y;
}

void relu_forward_into(const Tensor& x, Tensor& y) {
  util::ScopedKernelTimer timer(util::KernelKind::kRelu);
  y.ensure_shape(x.shape());
  const float* xd = x.data();
  float* yd = y.data();
  // One pass writing every element: value-identical to copy-then-clamp.
  util::parallel_for(x.size(), 1 << 15,
                     [&](std::int64_t i0, std::int64_t i1) {
                       for (std::int64_t i = i0; i < i1; ++i)
                         yd[i] = xd[i] < 0 ? 0.0f : xd[i];
                     });
}

Tensor relu_backward(const Tensor& dy, const Tensor& y) {
  assert(dy.size() == y.size());
  Tensor dx = dy;
  relu_backward_inplace(dx, y);
  return dx;
}

void relu_backward_inplace(Tensor& d, const Tensor& y) {
  assert(d.size() == y.size());
  util::ScopedKernelTimer timer(util::KernelKind::kRelu);
  const float* yd = y.data();
  float* dxd = d.data();
  util::parallel_for(d.size(), 1 << 15,
                     [&](std::int64_t i0, std::int64_t i1) {
                       for (std::int64_t i = i0; i < i1; ++i)
                         if (yd[i] <= 0) dxd[i] = 0;
                     });
}

Tensor linear_forward(const Tensor& x, const Tensor& w, const Tensor& bias) {
  util::ScopedKernelTimer timer(util::KernelKind::kLinear);
  const int n = x.dim(0);
  const std::int64_t in = x.size() / n;
  const int out = w.dim(0);
  assert(w.dim(1) == in);
  Tensor y({n, out});
  util::parallel_for(n, 1, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b)
      for (int o = 0; o < out; ++o) {
        double acc = bias.empty() ? 0.0 : bias[o];
        for (std::int64_t i = 0; i < in; ++i)
          acc += x[b * in + i] * w[o * in + i];
        y[b * out + o] = static_cast<float>(acc);
      }
  });
  return y;
}

LinearGrads linear_backward(const Tensor& x, const Tensor& w,
                            const Tensor& dy) {
  util::ScopedKernelTimer timer(util::KernelKind::kLinear);
  const int n = x.dim(0);
  const std::int64_t in = x.size() / n;
  const int out = w.dim(0);
  LinearGrads g;
  g.dx = Tensor(x.shape());
  g.dw = Tensor({out, static_cast<int>(in)});
  g.dbias = Tensor({out});
  // dw/dbias reduce over the batch (owned per output unit), dx over the
  // output units (owned per sample); each keeps the original term order.
  util::parallel_for(out, 4, [&](std::int64_t o0, std::int64_t o1) {
    for (std::int64_t o = o0; o < o1; ++o)
      for (int b = 0; b < n; ++b) {
        const float d = dy[static_cast<std::int64_t>(b) * out + o];
        g.dbias[o] += d;
        for (std::int64_t i = 0; i < in; ++i)
          g.dw[o * in + i] += d * x[b * in + i];
      }
  });
  util::parallel_for(n, 1, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b)
      for (int o = 0; o < out; ++o) {
        const float d = dy[b * out + o];
        for (std::int64_t i = 0; i < in; ++i)
          g.dx[b * in + i] += d * w[o * in + i];
      }
  });
  return g;
}

}  // namespace mbs::train
