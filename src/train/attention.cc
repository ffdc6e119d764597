#include "train/attention.h"

#include <cassert>
#include <cmath>

#include "train/im2col.h"
#include "util/arena.h"

namespace mbs::train {

namespace {

/// In-place row softmax of an [s, s] matrix with max-subtraction. Serial
/// per row: deterministic regardless of the kernel pool size.
void softmax_rows(float* m, int s) {
  for (int i = 0; i < s; ++i) {
    float* row = m + static_cast<std::int64_t>(i) * s;
    float mx = row[0];
    for (int j = 1; j < s; ++j) mx = row[j] > mx ? row[j] : mx;
    double sum = 0;
    for (int j = 0; j < s; ++j) {
      row[j] = std::exp(row[j] - mx);
      sum += row[j];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (int j = 0; j < s; ++j) row[j] *= inv;
  }
}

}  // namespace

void attention_forward_into(const Tensor& x, int heads, AttentionCache& cache,
                            Tensor& y) {
  assert(x.ndim() == 4 && x.dim(3) == 1);
  const int n = x.dim(0);
  const int d = x.dim(1) / 3;
  const int s = x.dim(2);
  assert(x.dim(1) == 3 * d && heads > 0 && d % heads == 0);
  const int dh = d / heads;
  const float scale = static_cast<float>(1.0 / std::sqrt(double(dh)));

  y.ensure_shape({n, d, s, 1});
  cache.probs.ensure_shape({n, heads, s, s});
  const std::int64_t ss = static_cast<std::int64_t>(s) * s;
  for (int b = 0; b < n; ++b) {
    for (int h = 0; h < heads; ++h) {
      const float* q = x.data() + (static_cast<std::int64_t>(b) * 3 * d +
                                   static_cast<std::int64_t>(h) * dh) * s;
      const float* k = q + static_cast<std::int64_t>(d) * s;
      const float* v = k + static_cast<std::int64_t>(d) * s;
      float* p = cache.probs.data() +
                 (static_cast<std::int64_t>(b) * heads + h) * ss;
      // scores[i,j] = sum_c Q[c,i] K[c,j] / sqrt(dh), softmaxed in place.
      matmul_at_into(q, s, k, s, dh, p);
      for (std::int64_t e = 0; e < ss; ++e) p[e] *= scale;
      softmax_rows(p, s);
      // ctx[c,i] = sum_j V[c,j] P[i,j] — the P.V GEMM, streamed operands.
      float* ctx = y.data() + (static_cast<std::int64_t>(b) * d +
                               static_cast<std::int64_t>(h) * dh) * s;
      matmul_bt_f32_into(v, dh, p, s, s, nullptr, ctx);
    }
  }
}

void attention_backward_into(const Tensor& dy, const Tensor& x, int heads,
                             const AttentionCache& cache, Tensor& dx) {
  const int n = x.dim(0);
  const int d = x.dim(1) / 3;
  const int s = x.dim(2);
  assert(dy.dim(0) == n && dy.dim(1) == d && dy.dim(2) == s);
  const int dh = d / heads;
  const float scale = static_cast<float>(1.0 / std::sqrt(double(dh)));
  const std::int64_t ss = static_cast<std::int64_t>(s) * s;

  dx.ensure_shape({n, 3 * d, s, 1});
  // Per-(sample, head) scratch, reused across the loop: the upstream score
  // gradient and one transpose staging buffer for the B^T-only microkernel.
  util::ArenaScope scope;
  float* dp = scope.floats(ss);
  float* tr = scope.floats(ss);
  for (int b = 0; b < n; ++b) {
    for (int h = 0; h < heads; ++h) {
      const float* q = x.data() + (static_cast<std::int64_t>(b) * 3 * d +
                                   static_cast<std::int64_t>(h) * dh) * s;
      const float* k = q + static_cast<std::int64_t>(d) * s;
      const float* v = k + static_cast<std::int64_t>(d) * s;
      const float* p = cache.probs.data() +
                       (static_cast<std::int64_t>(b) * heads + h) * ss;
      const float* dctx = dy.data() + (static_cast<std::int64_t>(b) * d +
                                       static_cast<std::int64_t>(h) * dh) * s;
      float* dq = dx.data() + (static_cast<std::int64_t>(b) * 3 * d +
                               static_cast<std::int64_t>(h) * dh) * s;
      float* dk = dq + static_cast<std::int64_t>(d) * s;
      float* dv = dk + static_cast<std::int64_t>(d) * s;

      // dV[c,j] = sum_i dCtx[c,i] P[i,j] (via P^T staged in tr).
      for (int i = 0; i < s; ++i)
        for (int j = 0; j < s; ++j)
          tr[static_cast<std::int64_t>(j) * s + i] =
              p[static_cast<std::int64_t>(i) * s + j];
      matmul_bt_f32_into(dctx, dh, tr, s, s, nullptr, dv);

      // dP[i,j] = sum_c dCtx[c,i] V[c,j], then the softmax-row backward
      // dS[i,j] = scale * P[i,j] * (dP[i,j] - sum_k dP[i,k] P[i,k]).
      matmul_at_into(dctx, s, v, s, dh, dp);
      for (int i = 0; i < s; ++i) {
        const std::int64_t r = static_cast<std::int64_t>(i) * s;
        double dot = 0;
        for (int j = 0; j < s; ++j)
          dot += static_cast<double>(dp[r + j]) * p[r + j];
        for (int j = 0; j < s; ++j)
          dp[r + j] = scale * p[r + j] * (dp[r + j] - static_cast<float>(dot));
      }

      // dQ[c,i] = sum_j K[c,j] dS[i,j]; dK[c,j] = sum_i Q[c,i] dS[i,j]
      // (via dS^T staged in tr).
      matmul_bt_f32_into(k, dh, dp, s, s, nullptr, dq);
      for (int i = 0; i < s; ++i)
        for (int j = 0; j < s; ++j)
          tr[static_cast<std::int64_t>(j) * s + i] =
              dp[static_cast<std::int64_t>(i) * s + j];
      matmul_bt_f32_into(q, dh, tr, s, s, nullptr, dk);
    }
  }
}

}  // namespace mbs::train
