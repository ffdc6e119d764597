// im2col lowering and the blocked GEMM family (the fast kernel layer).
//
// The GEMMs are cache-blocked over N (a packed B panel of kPanelCols
// columns) with a register-blocked kMR x kNR micro-kernel and parallelism
// over M row blocks on util::parallel_for. Bit-identity with the naive
// triple loops is by construction: every output element C[i,j] is computed
// by exactly one thread as a single pass over p = 0..K-1 in increasing
// order with a float accumulator, as the naive loop does, so the rounded
// operation sequence per element is unchanged at any thread count or tile
// size. The naive loops' `if (v == 0) continue` sparsity skips are dropped
// on the blocked path (the small-shape path keeps the seed's skip):
// for finite operands, adding a +/-0 term never changes a float
// accumulator that is not -0.0, and the accumulators here start at +0.0
// (or a bias that SGD can never drive to -0.0) and can never become -0.0
// — exact cancellation rounds to +0.0 and +/-0 terms preserve the sign —
// so the skip was a pure optimization, not a semantic. (The one exception
// is non-finite data: 0 * Inf is NaN where the skipping loop left the
// output untouched. A training run whose tensors hold Inf/NaN has already
// diverged, so the determinism contract is scoped to finite values.)
// Two dispatch refinements on top of the PR-3 design, both preserving the
// per-element operation sequence exactly: (1) small shapes (K < 128 and a
// C that fits in L1) skip the panel pack and tile machinery entirely —
// packing cost more than it saved there (BENCH_PR3: 0.88x at K=65) — and
// run direct loops instead; (2) the packed B panel is workspace-arena
// scratch (util::Arena), not a fresh std::vector, so the blocked path
// performs no heap allocation per call.
//
// PR 6 adds the ISA dispatch layer: the microkernels this file defines are
// the PORTABLE family (baseline target, compiler-autovectorized), and the
// blocked driver calls whichever detail::MicroKernels table
// active_microkernels() resolves — this one, or the explicit AVX2 family
// in gemm_avx2.cc (MBS_KERNEL overrides, CPUID decides by default). The
// small-shape fast path is shared by both ISAs (below the cutoff the pack
// machinery, not the arithmetic, dominates), so MBS_KERNEL only affects
// the blocked path. Both families honor the same per-element contract
// documented in gemm_microkernels.h, so the dispatch is bit-invisible.
//
// The conv data gradient is lowered here too (dgrad_cols_into +
// conv_weights_to_dgrad_into): a forward-style im2col of dY against
// flipped weights whose K order reproduces the seed scatter's addend
// sequence, so it runs through matmul_bt_f32_into bit-identically (the order
// argument is at conv2d_backward_into in ops.cc).
#include "train/im2col.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstring>

#include "train/gemm_microkernels.h"
#include "util/arena.h"
#include "util/cpu.h"
#include "util/parallel.h"

namespace mbs::train {

namespace {

int out_dim(int in, int kernel, int stride, int pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

constexpr int kPanelCols = 64;  // packed B panel width (multiple of kNR)
constexpr int kMR = 4;          // micro-kernel rows
constexpr int kNR = 8;          // micro-kernel columns

/// Packs B columns [j0, j0+nc) of a [K,N] row-major matrix into
/// panel[p*nc + jj].
void pack_panel_kn(const float* b, std::int64_t n, int k, std::int64_t j0,
                   int nc, float* panel) {
  for (int p = 0; p < k; ++p)
    std::memcpy(panel + static_cast<std::int64_t>(p) * nc, b + p * n + j0,
                static_cast<std::size_t>(nc) * sizeof(float));
}

/// Packs rows [j0, j0+nc) of a [N,K] row-major matrix (columns of B^T)
/// into panel[p*nc + jj].
void pack_panel_nk(const float* b, int k, std::int64_t j0, int nc,
                   float* panel) {
  for (int jj = 0; jj < nc; ++jj) {
    const float* src = b + (j0 + jj) * k;
    for (int p = 0; p < k; ++p) panel[static_cast<std::int64_t>(p) * nc + jj] = src[p];
  }
}

/// Float micro-kernel: C rows [i0, i1) x panel columns [0, nc), K-major
/// single pass. A is addressed a[i*ars + p*acs] so the same kernel serves
/// both A-normal (ars=K, acs=1) and A-transposed (ars=1, acs=M) layouts.
/// init (length >= j0+nc) seeds each column's accumulator; null = 0.
void gemm_panel_f32(const float* a, std::int64_t ars, std::int64_t acs,
                    const float* panel, int k, int nc, const float* init,
                    std::int64_t j0, float* c, std::int64_t ldc,
                    std::int64_t i0, std::int64_t i1) {
  for (std::int64_t i = i0; i < i1; i += kMR) {
    const int mr = static_cast<int>(i1 - i < kMR ? i1 - i : kMR);
    for (int j = 0; j < nc; j += kNR) {
      const int nr = nc - j < kNR ? nc - j : kNR;
      float acc[kMR][kNR];
      for (int ii = 0; ii < mr; ++ii)
        for (int jj = 0; jj < nr; ++jj)
          acc[ii][jj] = init ? init[j0 + j + jj] : 0.0f;
      const float* bp = panel + j;
      for (int p = 0; p < k; ++p, bp += nc) {
        float av[kMR];
        for (int ii = 0; ii < mr; ++ii) av[ii] = a[(i + ii) * ars + p * acs];
        for (int ii = 0; ii < mr; ++ii)
          for (int jj = 0; jj < nr; ++jj) acc[ii][jj] += av[ii] * bp[jj];
      }
      for (int ii = 0; ii < mr; ++ii)
        for (int jj = 0; jj < nr; ++jj)
          c[(i + ii) * ldc + j0 + j + jj] = acc[ii][jj];
    }
  }
}

/// Row-block grain sized so a range is worth a pool dispatch, and never
/// below one register tile of rows.
std::int64_t row_grain(int k) {
  const std::int64_t g = util::work_grain(k);
  return g < kMR ? kMR : g;
}

/// Portable peak probe: 8 independent unfused scalar mul+add chains (the
/// exact op mix of the portable f32 kernels), autovectorized however the
/// baseline target allows. The AVX2 family carries its own FMA probe.
double peak_probe_gflops_portable() {
  constexpr int kChains = 8;
  constexpr std::int64_t kIters = 4000000;
  const float m = 0.999f, a = 1e-3f;
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {  // rep 0 is warm-up
    float acc[kChains];
    for (int r = 0; r < kChains; ++r)
      acc[r] = 1.0f + 0.01f * static_cast<float>(r);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::int64_t it = 0; it < kIters; ++it)
      for (int r = 0; r < kChains; ++r) acc[r] = acc[r] * m + a;
    const auto t1 = std::chrono::steady_clock::now();
    float total = 0;
    for (int r = 0; r < kChains; ++r) total += acc[r];
    volatile float escape = total;
    (void)escape;
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    const double flops = static_cast<double>(kIters) * kChains * 2;
    if (rep > 0 && secs > 0) best = best > flops / secs ? best : flops / secs;
  }
  return best / 1e9;
}

enum class PanelLayout { kKN, kNK };

/// Shared blocked-GEMM driver: packs one B panel per column block into
/// workspace-arena scratch, then fans the M dimension across the pool.
/// The panel is over-allocated by detail::kPanelSlack floats so the AVX2
/// family's unmasked 8-wide loads on the last row's column tail stay in
/// bounds (the extra lanes are never stored).
template <typename Kernel>
void blocked_gemm(std::int64_t m, std::int64_t n, int k, PanelLayout layout,
                  const float* b, const detail::MicroKernels& mk,
                  const Kernel& kernel) {
  util::ArenaScope scope;
  float* panel = scope.floats(static_cast<std::int64_t>(k) *
                                  (n < kPanelCols ? n : kPanelCols) +
                              detail::kPanelSlack);
  for (std::int64_t j0 = 0; j0 < n; j0 += kPanelCols) {
    const int nc =
        static_cast<int>(n - j0 < kPanelCols ? n - j0 : kPanelCols);
    if (layout == PanelLayout::kKN)
      pack_panel_kn(b, n, k, j0, nc, panel);
    else
      mk.pack_nk(b, k, j0, nc, panel);
    util::parallel_for(m, row_grain(k),
                       [&](std::int64_t i0, std::int64_t i1) {
                         kernel(panel, nc, j0, i0, i1);
                       });
  }
}

// ---- Small-shape fast path --------------------------------------------------
// Below this cutoff the pack + register-tile machinery costs more than it
// saves; the direct loops keep the identical per-element K-order pass and
// accumulator types, so the dispatch threshold is bit-irrelevant.

bool small_gemm_shape(std::int64_t m, std::int64_t n, int k) {
  return k < 128 && m * n <= std::int64_t{32} * 1024;
}

/// B in [K,N] row-major: C rows accumulated in p order — the seed's naive
/// matmul loop nest verbatim, zero skip included (the skip only drops +/-0
/// addends, and measurably helps codegen even on dense data). A is
/// addressed a[i*ars + p*acs]; matmul_at_into passes the A-transposed
/// strides.
void small_gemm_kn_f32(const float* a, std::int64_t ars, std::int64_t acs,
                       const float* b, std::int64_t m, std::int64_t n, int k,
                       float* c) {
  // A row costs about n*k multiply-adds.
  util::parallel_for(
      m, util::work_grain(n * (k < 1 ? 1 : k)),
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          float* __restrict__ crow = c + i * n;
          for (std::int64_t j = 0; j < n; ++j) crow[j] = 0.0f;
          for (int p = 0; p < k; ++p) {
            const float av = a[i * ars + p * acs];
            if (av == 0.0f) continue;
            const float* __restrict__ brow =
                b + static_cast<std::int64_t>(p) * n;
            for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
          }
        }
      });
}

}  // namespace

// ---- ISA dispatch -----------------------------------------------------------

namespace detail {

const MicroKernels& portable_microkernels() {
  static const MicroKernels mk{gemm_panel_f32, pack_panel_nk,
                               peak_probe_gflops_portable};
  return mk;
}

namespace {

std::atomic<int> g_active_isa{-1};  // -1 = unresolved

util::KernelIsa resolved_isa() {
  int v = g_active_isa.load(std::memory_order_acquire);
  if (v < 0) {
    v = static_cast<int>(
        util::resolve_kernel_isa(avx2_microkernels() != nullptr));
    g_active_isa.store(v, std::memory_order_release);
  }
  return static_cast<util::KernelIsa>(v);
}

}  // namespace

const MicroKernels& active_microkernels() {
  return resolved_isa() == util::KernelIsa::kAvx2 ? *avx2_microkernels()
                                                  : portable_microkernels();
}

void reset_microkernel_dispatch() {
  g_active_isa.store(-1, std::memory_order_release);
}

double measured_peak_gflops() {
  // The machine's ceiling, not the active path's: portable roofline rows
  // report their fraction of the same hardware peak, which is exactly the
  // "what's left on the table" number. Measured once per process.
  static const double peak = [] {
    const MicroKernels* avx2 = avx2_microkernels();
    if (avx2 && util::cpu_supports_avx2()) return avx2->peak_probe();
    return portable_microkernels().peak_probe();
  }();
  return peak;
}

}  // namespace detail

util::KernelIsa active_gemm_isa() { return detail::resolved_isa(); }

void im2col_into(const Tensor& x, int kernel_h, int kernel_w, int stride,
                 int pad_h, int pad_w, float* cd) {
  assert(x.ndim() == 4);
  util::ScopedKernelTimer timer(util::KernelKind::kIm2col);
  const int n = x.dim(0), ci = x.dim(1), ih = x.dim(2), iw = x.dim(3);
  const int oh = out_dim(ih, kernel_h, stride, pad_h);
  const int ow = out_dim(iw, kernel_w, stride, pad_w);
  const int k = ci * kernel_h * kernel_w;
  const float* xd = x.data();
  util::parallel_for(
      static_cast<std::int64_t>(n) * oh * ow, row_grain(k),
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t row = begin; row < end; ++row) {
          const int b = static_cast<int>(row / (static_cast<std::int64_t>(oh) * ow));
          const int rest = static_cast<int>(row % (static_cast<std::int64_t>(oh) * ow));
          const int yh = rest / ow, yw = rest % ow;
          float* out = cd + row * k;
          const int xw0 = yw * stride - pad_w;
          const int s_lo = xw0 < 0 ? -xw0 : 0;
          const int s_hi = iw - xw0 < kernel_w ? iw - xw0 : kernel_w;
          for (int c = 0; c < ci; ++c)
            for (int r = 0; r < kernel_h; ++r) {
              const int xh = yh * stride - pad_h + r;
              if (xh < 0 || xh >= ih) continue;  // padded row stays zero
              const float* src =
                  xd + ((static_cast<std::int64_t>(b) * ci + c) * ih + xh) * iw +
                  xw0;
              float* dst = out + (static_cast<std::int64_t>(c) * kernel_h + r) *
                                     kernel_w;
              for (int s = s_lo; s < s_hi; ++s) dst[s] = src[s];
            }
        }
      });
}

void matmul_at_into(const float* a, std::int64_t m, const float* b,
                    std::int64_t n, int k, float* c) {
  util::ScopedKernelTimer timer(util::KernelKind::kGemm);
  util::note_kernel_flops(2 * m * n * k);
  if (small_gemm_shape(m, n, k)) {
    small_gemm_kn_f32(a, 1, m, b, m, n, k, c);
    return;
  }
  const detail::MicroKernels& mk = detail::active_microkernels();
  blocked_gemm(m, n, k, PanelLayout::kKN, b, mk,
               [&](const float* panel, int nc, std::int64_t j0,
                   std::int64_t i0, std::int64_t i1) {
                 mk.gemm_f32(a, 1, m, panel, k, nc, nullptr, j0, c, n, i0,
                             i1);
               });
}

void matmul_bt_f32_into(const float* a, std::int64_t m, const float* b,
                        std::int64_t n, int k, const float* init, float* c) {
  util::ScopedKernelTimer timer(util::KernelKind::kGemm);
  util::note_kernel_flops(2 * m * n * k);
  const detail::MicroKernels& mk = detail::active_microkernels();
  blocked_gemm(m, n, k, PanelLayout::kNK, b, mk,
               [&](const float* panel, int nc, std::int64_t j0,
                   std::int64_t i0, std::int64_t i1) {
                 mk.gemm_f32(a, k, 1, panel, k, nc, init, j0, c, n, i0, i1);
               });
}

void column_sums_f32_into(const float* m, std::int64_t rows, int n,
                          float* out) {
  for (int j = 0; j < n; ++j) out[j] = 0.0f;
  for (std::int64_t r = 0; r < rows; ++r)
    for (int j = 0; j < n; ++j) out[j] += m[r * n + j];
}

void nchw_to_rows_into(const Tensor& t, float* rd) {
  assert(t.ndim() == 4);
  const int c = t.dim(1);
  const std::int64_t hw = static_cast<std::int64_t>(t.dim(2)) * t.dim(3);
  const float* td = t.data();
  util::parallel_for(static_cast<std::int64_t>(t.dim(0)) * hw, row_grain(c),
                     [&](std::int64_t begin, std::int64_t end) {
                       for (std::int64_t row = begin; row < end; ++row) {
                         const std::int64_t b = row / hw, pos = row % hw;
                         for (int ch = 0; ch < c; ++ch)
                           rd[row * c + ch] = td[(b * c + ch) * hw + pos];
                       }
                     });
}

void rows_to_nchw_into(const float* rd, Tensor& t) {
  assert(t.ndim() == 4);
  const int c = t.dim(1);
  const std::int64_t hw = static_cast<std::int64_t>(t.dim(2)) * t.dim(3);
  float* td = t.data();
  util::parallel_for(static_cast<std::int64_t>(t.dim(0)) * hw, row_grain(c),
                     [&](std::int64_t begin, std::int64_t end) {
                       for (std::int64_t row = begin; row < end; ++row) {
                         const std::int64_t b = row / hw, pos = row % hw;
                         for (int ch = 0; ch < c; ++ch)
                           td[(b * c + ch) * hw + pos] = rd[row * c + ch];
                       }
                     });
}

void kxn_to_conv_weights_into(const float* md, int co, int ci, int kh, int kw,
                              float* wd) {
  const std::int64_t k = static_cast<std::int64_t>(ci) * kh * kw;
  for (std::int64_t i = 0; i < k; ++i)
    for (int o = 0; o < co; ++o)
      wd[static_cast<std::int64_t>(o) * k + i] = md[i * co + o];
}

namespace {

/// For each input coordinate x in [0, in) and flipped tap t in [0, k): the
/// dY coordinate y with y*stride = x + t - (k-1-pad), or -1 when that
/// position is off the stride grid or out of [0, out).
void dgrad_tap_table(int in, int out, int k, int stride, int pad, int* tab) {
  for (int x = 0; x < in; ++x)
    for (int t = 0; t < k; ++t) {
      const int num = x + t - (k - 1 - pad);
      const bool on = num >= 0 && num % stride == 0 && num / stride < out;
      tab[x * k + t] = on ? num / stride : -1;
    }
}

}  // namespace

void dgrad_cols_into(const float* dy_rows, int n, int co, int oh, int ow,
                     int ih, int iw, int kernel_h, int kernel_w, int stride,
                     int pad, float* cd) {
  util::ScopedKernelTimer timer(util::KernelKind::kIm2col);
  const int taps = kernel_h * kernel_w;
  const int k = co * taps;
  const std::int64_t x_hw = static_cast<std::int64_t>(ih) * iw;
  util::ArenaScope scope;
  int* yh_of = scope.ints(static_cast<std::int64_t>(ih) * kernel_h);
  int* yw_of = scope.ints(static_cast<std::int64_t>(iw) * kernel_w);
  dgrad_tap_table(ih, oh, kernel_h, stride, pad, yh_of);
  dgrad_tap_table(iw, ow, kernel_w, stride, pad, yw_of);
  util::parallel_for(
      static_cast<std::int64_t>(n) * x_hw, row_grain(k),
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t row = begin; row < end; ++row) {
          const std::int64_t b = row / x_hw;
          const int pos = static_cast<int>(row % x_hw);
          const int* yh = yh_of + pos / iw * kernel_h;
          const int* yw = yw_of + pos % iw * kernel_w;
          float* out = cd + row * k;
          // A row with any off-grid tap is zeroed whole, then its on-grid
          // taps overwritten: one vectorized fill beats strided zero stores.
          bool all_on = true;
          for (int r = 0; r < kernel_h; ++r) all_on &= yh[r] >= 0;
          for (int s = 0; s < kernel_w; ++s) all_on &= yw[s] >= 0;
          if (!all_on) std::fill(out, out + k, 0.0f);
          for (int r = 0; r < kernel_h; ++r) {
            if (yh[r] < 0) continue;
            for (int s = 0; s < kernel_w; ++s) {
              if (yw[s] < 0) continue;
              // dY row (b, yh, yw) holds all Co channels contiguously.
              const float* src =
                  dy_rows + ((b * oh + yh[r]) * ow + yw[s]) * co;
              float* dst = out + r * kernel_w + s;
              for (int o = 0; o < co; ++o)
                dst[static_cast<std::int64_t>(o) * taps] = src[o];
            }
          }
        }
      });
}

void conv_weights_to_dgrad_into(const float* wd, int co, int ci, int kh,
                                int kw, float* wf) {
  const int taps = kh * kw;
  for (int o = 0; o < co; ++o)
    for (int c = 0; c < ci; ++c) {
      const float* src = wd + (static_cast<std::int64_t>(o) * ci + c) * taps;
      float* dst = wf + (static_cast<std::int64_t>(c) * co + o) * taps;
      for (int t = 0; t < taps; ++t) dst[taps - 1 - t] = src[t];
    }
}

}  // namespace mbs::train
