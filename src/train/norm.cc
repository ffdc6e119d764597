// Normalization layers on the kernel pool: BN statistics are per channel
// and GN statistics per (sample, group), so the loops fan those units out
// across util::parallel_for — each unit's reductions stay on one thread in
// the original accumulation order, keeping results bit-identical at any
// thread count. GN's backward additionally accumulates dgamma/dbeta across
// samples, so it parallelizes over groups only (samples stay an inner,
// in-order loop).
//
// The loops walk raw pointers over the contiguous [H,W] (BN) / [Cg,H,W]
// (GN) runs of the NCHW layout and hoist loop-invariant scalars. They
// preserve every floating-point expression SHAPE of the seed's Tensor::at()
// form — accumulation order, promotion points, and association are
// unchanged, and only subexpressions that appear verbatim per iteration
// (e.g. `sum_dy / m`, `gam * inv`) are hoisted, never re-associated ones
// (`xh * sum / m` stays written out, because `(xh*sum)/m != xh*(sum/m)` in
// rounding) — so both forms are bit-identical; tests/kernel_test.cc keeps
// the Tensor::at() form as its oracle and enforces it.
#include "train/norm.h"

#include <cassert>
#include <cmath>
#include <vector>

#include "util/parallel.h"

namespace mbs::train {

const char* to_string(NormMode m) {
  switch (m) {
    case NormMode::kNone: return "none";
    case NormMode::kBatch: return "BN";
    case NormMode::kGroup: return "GN";
  }
  return "?";
}

// Each (b, ch) pair owns one contiguous [H*W] run of the NCHW layout;
// walking it with a flat index visits elements in exactly the i-then-j order
// of the Tensor::at() loops.

void batchnorm_forward_into(const Tensor& x, const Tensor& gamma,
                            const Tensor& beta, NormCache& cache, Tensor& y,
                            float eps) {
  assert(x.ndim() == 4);
  util::ScopedKernelTimer timer(util::KernelKind::kNorm);
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t m = static_cast<std::int64_t>(n) * h * w;
  cache.x_shape = x.shape();
  cache.mean.ensure_shape({c});
  cache.inv_std.ensure_shape({c});
  cache.xhat.ensure_shape(x.shape());
  y.ensure_shape(x.shape());
  const std::int64_t plane = static_cast<std::int64_t>(h) * w;
  util::parallel_for(c, util::work_grain(m), [&](std::int64_t c0,
                                                 std::int64_t c1) {
  for (int ch = static_cast<int>(c0); ch < c1; ++ch) {
    double sum = 0, sq = 0;
    for (int b = 0; b < n; ++b) {
      const float* px =
          x.data() + (static_cast<std::int64_t>(b) * c + ch) * plane;
      for (std::int64_t t = 0; t < plane; ++t) {
        const double v = px[t];
        sum += v;
        sq += v * v;
      }
    }
    const double mean = sum / static_cast<double>(m);
    const double var = sq / static_cast<double>(m) - mean * mean;
    const double inv = 1.0 / std::sqrt(var + eps);
    cache.mean[ch] = static_cast<float>(mean);
    cache.inv_std[ch] = static_cast<float>(inv);
    const float ga = gamma[ch], be = beta[ch];
    for (int b = 0; b < n; ++b) {
      const std::int64_t off = (static_cast<std::int64_t>(b) * c + ch) * plane;
      const float* px = x.data() + off;
      float* pxh = cache.xhat.data() + off;
      float* py = y.data() + off;
      for (std::int64_t t = 0; t < plane; ++t) {
        const float xh = static_cast<float>((px[t] - mean) * inv);
        pxh[t] = xh;
        py[t] = ga * xh + be;
      }
    }
  }
  });
}

void batchnorm_backward_into(const Tensor& dy, const Tensor& gamma,
                             const NormCache& cache, NormGrads& g) {
  util::ScopedKernelTimer timer(util::KernelKind::kNorm);
  const std::vector<int>& xs = cache.x_shape;
  const int n = xs[0], c = xs[1], h = xs[2], w = xs[3];
  const double m = static_cast<double>(n) * h * w;
  const std::int64_t plane = static_cast<std::int64_t>(h) * w;
  g.dx.ensure_shape(xs);
  g.dgamma.ensure_shape({c});
  g.dbeta.ensure_shape({c});
  util::parallel_for(c, util::work_grain(n * plane), [&](std::int64_t c0,
                                                         std::int64_t c1) {
  for (int ch = static_cast<int>(c0); ch < c1; ++ch) {
    double sum_dy = 0, sum_dy_xhat = 0;
    for (int b = 0; b < n; ++b) {
      const std::int64_t off = (static_cast<std::int64_t>(b) * c + ch) * plane;
      const float* pdy = dy.data() + off;
      const float* pxh = cache.xhat.data() + off;
      for (std::int64_t t = 0; t < plane; ++t) {
        const double d = pdy[t];
        sum_dy += d;
        sum_dy_xhat += d * pxh[t];
      }
    }
    g.dbeta[ch] = static_cast<float>(sum_dy);
    g.dgamma[ch] = static_cast<float>(sum_dy_xhat);
    const double inv = cache.inv_std[ch];
    const double gam = gamma[ch];
    // gam * inv and sum_dy / m appear verbatim in the Tensor::at() expression
    // (left-to-right association), so hoisting them is bit-preserving;
    // `xh * sum_dy_xhat / m` associates as (xh*sum)/m and must stay
    // written out.
    const double gi = gam * inv;
    const double k1 = sum_dy / m;
    for (int b = 0; b < n; ++b) {
      const std::int64_t off = (static_cast<std::int64_t>(b) * c + ch) * plane;
      const float* pdy = dy.data() + off;
      const float* pxh = cache.xhat.data() + off;
      float* pdx = g.dx.data() + off;
      for (std::int64_t t = 0; t < plane; ++t) {
        const double d = pdy[t];
        const double xh = pxh[t];
        pdx[t] = static_cast<float>(gi * (d - k1 - xh * sum_dy_xhat / m));
      }
    }
  }
  });
}

void groupnorm_forward_into(const Tensor& x, const Tensor& gamma,
                            const Tensor& beta, int groups, NormCache& cache,
                            Tensor& y, float eps) {
  assert(x.ndim() == 4);
  util::ScopedKernelTimer timer(util::KernelKind::kNorm);
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  assert(c % groups == 0);
  const int cpg = c / groups;
  const double m = static_cast<double>(cpg) * h * w;
  cache.x_shape = x.shape();
  cache.mean.ensure_shape({n, groups});
  cache.inv_std.ensure_shape({n, groups});
  cache.xhat.ensure_shape(x.shape());
  y.ensure_shape(x.shape());
  const std::int64_t plane = static_cast<std::int64_t>(h) * w;
  util::parallel_for(
      static_cast<std::int64_t>(n) * groups, util::work_grain(cpg * plane),
      [&](std::int64_t u0, std::int64_t u1) {
  for (std::int64_t unit = u0; unit < u1; ++unit) {
    const int b = static_cast<int>(unit / groups);
    const int gr = static_cast<int>(unit % groups);
    // The group's cpg channels are contiguous in NCHW, so the statistics
    // pass is one flat run (same cc-then-i-then-j visit order).
    const std::int64_t base =
        (static_cast<std::int64_t>(b) * c + gr * cpg) * plane;
    const std::int64_t run = static_cast<std::int64_t>(cpg) * plane;
    double sum = 0, sq = 0;
    {
      const float* px = x.data() + base;
      for (std::int64_t t = 0; t < run; ++t) {
        const double v = px[t];
        sum += v;
        sq += v * v;
      }
    }
    const double mean = sum / m;
    const double var = sq / m - mean * mean;
    const double inv = 1.0 / std::sqrt(var + eps);
    cache.mean[static_cast<std::int64_t>(b) * groups + gr] =
        static_cast<float>(mean);
    cache.inv_std[static_cast<std::int64_t>(b) * groups + gr] =
        static_cast<float>(inv);
    for (int cc = gr * cpg; cc < (gr + 1) * cpg; ++cc) {
      const std::int64_t off = (static_cast<std::int64_t>(b) * c + cc) * plane;
      const float* px = x.data() + off;
      float* pxh = cache.xhat.data() + off;
      float* py = y.data() + off;
      const float ga = gamma[cc], be = beta[cc];
      for (std::int64_t t = 0; t < plane; ++t) {
        const float xh = static_cast<float>((px[t] - mean) * inv);
        pxh[t] = xh;
        py[t] = ga * xh + be;
      }
    }
  }
      });
}

void groupnorm_backward_into(const Tensor& dy, const Tensor& gamma,
                             int groups, const NormCache& cache,
                             NormGrads& g) {
  util::ScopedKernelTimer timer(util::KernelKind::kNorm);
  const std::vector<int>& xs = cache.x_shape;
  const int n = xs[0], c = xs[1], h = xs[2], w = xs[3];
  const int cpg = c / groups;
  const double m = static_cast<double>(cpg) * h * w;
  const std::int64_t plane = static_cast<std::int64_t>(h) * w;
  g.dx.ensure_shape(xs);
  // dgamma/dbeta accumulate across samples from zero.
  g.dgamma.ensure_zeroed({c});
  g.dbeta.ensure_zeroed({c});
  // That accumulation makes the fan-out unit the group (channels
  // partition by group); samples stay in-order inside.
  util::parallel_for(groups, util::work_grain(n * cpg * plane),
                     [&](std::int64_t g0, std::int64_t g1) {
  for (int gr = static_cast<int>(g0); gr < g1; ++gr)
    for (int b = 0; b < n; ++b) {
      // Sums over the normalization group, with dy scaled by gamma (the
      // affine transform sits between xhat and the loss).
      double sum_dyg = 0, sum_dyg_xhat = 0;
      for (int cc = gr * cpg; cc < (gr + 1) * cpg; ++cc) {
        const std::int64_t off =
            (static_cast<std::int64_t>(b) * c + cc) * plane;
        const float* pdy = dy.data() + off;
        const float* pxh = cache.xhat.data() + off;
        const double ga = gamma[cc];
        // Float accumulators across the b loop: read-modify-write through
        // locals keeps the adds in the Tensor::at() order and type.
        float db = g.dbeta[cc], dg = g.dgamma[cc];
        for (std::int64_t t = 0; t < plane; ++t) {
          const double d = pdy[t];
          const double xh = pxh[t];
          db += static_cast<float>(d);
          dg += static_cast<float>(d * xh);
          sum_dyg += d * ga;
          sum_dyg_xhat += d * ga * xh;
        }
        g.dbeta[cc] = db;
        g.dgamma[cc] = dg;
      }
      const double inv =
          cache.inv_std[static_cast<std::int64_t>(b) * groups + gr];
      const double k1 = sum_dyg / m;
      for (int cc = gr * cpg; cc < (gr + 1) * cpg; ++cc) {
        const std::int64_t off =
            (static_cast<std::int64_t>(b) * c + cc) * plane;
        const float* pdy = dy.data() + off;
        const float* pxh = cache.xhat.data() + off;
        float* pdx = g.dx.data() + off;
        const float gaf = gamma[cc];
        for (std::int64_t t = 0; t < plane; ++t) {
          const double d = pdy[t] * gaf;  // float multiply, then promote
          const double xh = pxh[t];
          pdx[t] = static_cast<float>(
              inv * (d - k1 - xh * sum_dyg_xhat / m));
        }
      }
    }
  });
}

NormLayer::NormLayer(int channels, NormMode mode, int groups)
    : mode(mode), groups(groups) {
  assert(mode != NormMode::kGroup || channels % groups == 0);
  if (mode == NormMode::kNone) return;
  gamma = Tensor::full({channels}, 1.0f);
  beta = Tensor({channels});
  dgamma = Tensor({channels});
  dbeta = Tensor({channels});
}

const Tensor& NormLayer::forward(const Tensor& x) {
  switch (mode) {
    case NormMode::kNone: return x;
    case NormMode::kBatch:
      batchnorm_forward_into(x, gamma, beta, cache, out);
      return out;
    case NormMode::kGroup:
      groupnorm_forward_into(x, gamma, beta, groups, cache, out);
      return out;
  }
  return x;
}

Tensor& NormLayer::backward(Tensor& dy) {
  if (mode == NormMode::kNone) return dy;
  if (mode == NormMode::kBatch)
    batchnorm_backward_into(dy, gamma, cache, g);
  else
    groupnorm_backward_into(dy, gamma, groups, cache, g);
  dgamma.axpy(1.0f, g.dgamma);
  dbeta.axpy(1.0f, g.dbeta);
  return g.dx;
}

}  // namespace mbs::train
