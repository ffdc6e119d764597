// Explicit AVX2 microkernels for the blocked GEMM family.
//
// This is the only translation unit compiled with -mavx2 -mfma (plus
// -ffp-contract=off, see below); everything else targets baseline x86-64,
// so the library runs on any host and picks this family at runtime via
// detail::active_microkernels().
//
// Bit-identity with the portable family is the hard constraint, not a
// nicety: the committed fig06 golden stdout must be byte-identical on both
// dispatch paths. Two rules enforce it:
//
//  1. Same per-element operation sequence. Each C[i,j] is one in-order
//     pass over p = 0..K-1; vectorizing across j (8 columns per __m256)
//     changes which elements share an instruction, never the sequence of
//     rounded operations any single element sees.
//  2. Same roundings. The portable family compiles for plain x86-64,
//     which has no FMA instruction, so its float kernels round the
//     multiply and the add separately. The f32 kernels here therefore use
//     explicit _mm256_mul_ps + _mm256_add_ps — NOT _mm256_fmadd_ps — and
//     the TU is built with -ffp-contract=off so GCC (whose mul/add
//     intrinsics are plain vector expressions it would happily contract
//     under the default -ffp-contract=fast) cannot fuse them behind our
//     back.
//
// Tile shape: 4 rows x 16 columns (8 __m256 accumulators) for full tiles,
// stepping down to one 8-wide vector with a masked tail store for column
// remainders. Column-tail B loads are unmasked — blocked_gemm over-allocates
// each panel by detail::kPanelSlack floats so they stay in bounds — and the
// garbage lanes are dropped by the masked store.
#include "train/gemm_microkernels.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <chrono>

namespace mbs::train::detail {

namespace {

using std::int64_t;

alignas(32) constexpr int kMaskTable[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                            0,  0,  0,  0,  0,  0,  0,  0};

/// Lane mask with the first r of 8 lanes enabled (1 <= r <= 8).
inline __m256i tail_mask(int r) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMaskTable + 8 - r));
}

// ---- f32: 4 x 16 full tile --------------------------------------------------

template <int MR>
inline void tile_f32_x16(const float* a_base, int64_t ars, int64_t acs,
                         const float* bp, int k, int nc, const float* initp,
                         float* c, int64_t ldc) {
  __m256 acc0[MR], acc1[MR];
  for (int ii = 0; ii < MR; ++ii) {
    acc0[ii] = initp ? _mm256_loadu_ps(initp) : _mm256_setzero_ps();
    acc1[ii] = initp ? _mm256_loadu_ps(initp + 8) : _mm256_setzero_ps();
  }
  for (int p = 0; p < k; ++p, bp += nc) {
    const __m256 b0 = _mm256_loadu_ps(bp);
    const __m256 b1 = _mm256_loadu_ps(bp + 8);
    for (int ii = 0; ii < MR; ++ii) {
      const __m256 av = _mm256_set1_ps(a_base[ii * ars + p * acs]);
      acc0[ii] = _mm256_add_ps(acc0[ii], _mm256_mul_ps(av, b0));
      acc1[ii] = _mm256_add_ps(acc1[ii], _mm256_mul_ps(av, b1));
    }
  }
  for (int ii = 0; ii < MR; ++ii) {
    _mm256_storeu_ps(c + ii * ldc, acc0[ii]);
    _mm256_storeu_ps(c + ii * ldc + 8, acc1[ii]);
  }
}

// ---- f32: one 8-wide vector, optionally masked ------------------------------

template <int MR>
inline void tile_f32_x8(const float* a_base, int64_t ars, int64_t acs,
                        const float* bp, int k, int nc, const float* initp,
                        float* c, int64_t ldc, int nr) {
  const __m256i mask = tail_mask(nr);
  __m256 acc[MR];
  for (int ii = 0; ii < MR; ++ii)
    acc[ii] = initp ? _mm256_maskload_ps(initp, mask) : _mm256_setzero_ps();
  for (int p = 0; p < k; ++p, bp += nc) {
    const __m256 b0 = _mm256_loadu_ps(bp);  // panel slack keeps this in bounds
    for (int ii = 0; ii < MR; ++ii) {
      const __m256 av = _mm256_set1_ps(a_base[ii * ars + p * acs]);
      acc[ii] = _mm256_add_ps(acc[ii], _mm256_mul_ps(av, b0));
    }
  }
  if (nr == 8) {
    for (int ii = 0; ii < MR; ++ii) _mm256_storeu_ps(c + ii * ldc, acc[ii]);
  } else {
    for (int ii = 0; ii < MR; ++ii)
      _mm256_maskstore_ps(c + ii * ldc, mask, acc[ii]);
  }
}

void gemm_panel_f32_avx2(const float* a, int64_t ars, int64_t acs,
                         const float* panel, int k, int nc, const float* init,
                         int64_t j0, float* c, int64_t ldc, int64_t i0,
                         int64_t i1) {
  for (int64_t i = i0; i < i1; i += 4) {
    const int mr = static_cast<int>(i1 - i < 4 ? i1 - i : 4);
    const float* a_base = a + i * ars;
    float* crow = c + i * ldc + j0;
    int j = 0;
    for (; j + 16 <= nc; j += 16) {
      const float* ip = init ? init + j0 + j : nullptr;
      switch (mr) {
        case 4: tile_f32_x16<4>(a_base, ars, acs, panel + j, k, nc, ip, crow + j, ldc); break;
        case 3: tile_f32_x16<3>(a_base, ars, acs, panel + j, k, nc, ip, crow + j, ldc); break;
        case 2: tile_f32_x16<2>(a_base, ars, acs, panel + j, k, nc, ip, crow + j, ldc); break;
        default: tile_f32_x16<1>(a_base, ars, acs, panel + j, k, nc, ip, crow + j, ldc); break;
      }
    }
    for (; j < nc; j += 8) {
      const int nr = nc - j < 8 ? nc - j : 8;
      const float* ip = init ? init + j0 + j : nullptr;
      switch (mr) {
        case 4: tile_f32_x8<4>(a_base, ars, acs, panel + j, k, nc, ip, crow + j, ldc, nr); break;
        case 3: tile_f32_x8<3>(a_base, ars, acs, panel + j, k, nc, ip, crow + j, ldc, nr); break;
        case 2: tile_f32_x8<2>(a_base, ars, acs, panel + j, k, nc, ip, crow + j, ldc, nr); break;
        default: tile_f32_x8<1>(a_base, ars, acs, panel + j, k, nc, ip, crow + j, ldc, nr); break;
      }
    }
  }
}

// ---- NK pack: 8x8 in-register transpose -------------------------------------

/// Transposes the 8x8 block at rows[t][p..p+7] into out columns: after the
/// shuffle network, row q of the result holds element p+q of all 8 input
/// rows. Pure data movement — bitwise equal to the scalar pack by
/// construction.
inline void transpose8x8(const float* src, int64_t stride, float* panel,
                         int nc) {
  const __m256 r0 = _mm256_loadu_ps(src + 0 * stride);
  const __m256 r1 = _mm256_loadu_ps(src + 1 * stride);
  const __m256 r2 = _mm256_loadu_ps(src + 2 * stride);
  const __m256 r3 = _mm256_loadu_ps(src + 3 * stride);
  const __m256 r4 = _mm256_loadu_ps(src + 4 * stride);
  const __m256 r5 = _mm256_loadu_ps(src + 5 * stride);
  const __m256 r6 = _mm256_loadu_ps(src + 6 * stride);
  const __m256 r7 = _mm256_loadu_ps(src + 7 * stride);
  const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
  const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
  const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
  const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
  const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
  const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
  const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
  const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  _mm256_storeu_ps(panel + 0 * nc, _mm256_permute2f128_ps(u0, u4, 0x20));
  _mm256_storeu_ps(panel + 1 * nc, _mm256_permute2f128_ps(u1, u5, 0x20));
  _mm256_storeu_ps(panel + 2 * nc, _mm256_permute2f128_ps(u2, u6, 0x20));
  _mm256_storeu_ps(panel + 3 * nc, _mm256_permute2f128_ps(u3, u7, 0x20));
  _mm256_storeu_ps(panel + 4 * nc, _mm256_permute2f128_ps(u0, u4, 0x31));
  _mm256_storeu_ps(panel + 5 * nc, _mm256_permute2f128_ps(u1, u5, 0x31));
  _mm256_storeu_ps(panel + 6 * nc, _mm256_permute2f128_ps(u2, u6, 0x31));
  _mm256_storeu_ps(panel + 7 * nc, _mm256_permute2f128_ps(u3, u7, 0x31));
}

void pack_panel_nk_avx2(const float* b, int k, int64_t j0, int nc,
                        float* panel) {
  int jj = 0;
  for (; jj + 8 <= nc; jj += 8) {
    const float* rows = b + (j0 + jj) * static_cast<int64_t>(k);
    int p = 0;
    // The vector store of transposed row p+q covers panel columns
    // [jj, jj+8) — in bounds because jj+8 <= nc; the last row p+7 < k by
    // the loop bound, so no slack is needed here.
    for (; p + 8 <= k; p += 8)
      transpose8x8(rows + p, k, panel + static_cast<int64_t>(p) * nc + jj, nc);
    for (; p < k; ++p)
      for (int t = 0; t < 8; ++t)
        panel[static_cast<int64_t>(p) * nc + jj + t] =
            rows[static_cast<int64_t>(t) * k + p];
  }
  for (; jj < nc; ++jj) {
    const float* src = b + (j0 + jj) * static_cast<int64_t>(k);
    for (int p = 0; p < k; ++p)
      panel[static_cast<int64_t>(p) * nc + jj] = src[p];
  }
}

// ---- Measured FMA roofline ceiling ------------------------------------------

/// One core's FMA throughput, measured with 10 independent 8-lane fused
/// chains (enough to cover FMA latency x 2 ports on every recent x86).
/// This is the ceiling the roofline rows report fractions of — including
/// for the f32 GEMMs, whose unfused mul+add can at best tie it.
double peak_probe_gflops_avx2() {
  constexpr int kChains = 10;
  constexpr int64_t kIters = 600000;  // ~100 MFLOP per rep
  const __m256 m = _mm256_set1_ps(0.999f);
  const __m256 a = _mm256_set1_ps(1e-3f);
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {  // rep 0 is warm-up
    __m256 acc[kChains];
    for (int r = 0; r < kChains; ++r)
      acc[r] = _mm256_set1_ps(1.0f + 0.01f * static_cast<float>(r));
    const auto t0 = std::chrono::steady_clock::now();
    for (int64_t it = 0; it < kIters; ++it)
      for (int r = 0; r < kChains; ++r)
        acc[r] = _mm256_fmadd_ps(acc[r], m, a);
    const auto t1 = std::chrono::steady_clock::now();
    float sink[8];
    __m256 total = acc[0];
    for (int r = 1; r < kChains; ++r) total = _mm256_add_ps(total, acc[r]);
    _mm256_storeu_ps(sink, total);
    volatile float escape = sink[0];
    (void)escape;
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    const double flops =
        static_cast<double>(kIters) * kChains * 8 * 2;  // 8 lanes, 2 flops/fma
    if (rep > 0 && secs > 0) best = best > flops / secs ? best : flops / secs;
  }
  return best / 1e9;
}

}  // namespace

const MicroKernels* avx2_microkernels() {
  static const MicroKernels mk{gemm_panel_f32_avx2, pack_panel_nk_avx2,
                               peak_probe_gflops_avx2};
  return &mk;
}

}  // namespace mbs::train::detail

#else  // !(__AVX2__ && __FMA__): stub so the library links on any target

namespace mbs::train::detail {

const MicroKernels* avx2_microkernels() { return nullptr; }

}  // namespace mbs::train::detail

#endif
