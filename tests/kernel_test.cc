// Tests for the fast kernel layer (util/parallel.h + the blocked GEMM
// family): bit-identity of the blocked/pooled kernels against the naive
// scalar loops they replaced, across thread budgets {1, 2, 3, 8} and
// adversarial shapes (M/N/K not multiples of the tile size, strided and
// asymmetrically padded convolutions, 1x1 and 7x7 kernels), plus the
// Tensor::count overflow guard and the compute_gradients serialization
// identity on the fast path. PR 4 adds the memory-plan layer's coverage:
// cached-im2col conv backward == uncached across budgets {1, 2, 8} and
// adversarial geometries (pad > kernel, 1x1, stride 2), util::Arena
// reuse/rewind/reset semantics, and the Debug zero-allocation contract
// for steady-state train steps. PR 6 adds the kernel-ISA dispatch layer:
// the portable and AVX2 microkernel families must be bit-identical to
// each other and to the naive references on remainder-heavy shapes, an
// MBS_KERNEL=avx2 request on a host without AVX2 must fall back cleanly,
// and the raw-pointer norm loops must equal the seed's Tensor::at() form
// (kept here as the oracle) bit for bit. The conv data gradient (a GEMM
// over flipped weights) must equal the seed's scatter loop across dY
// densities and the geometries its lowering special-cases, on both ISA
// families at every budget.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/arena.h"

#include "train/data.h"
#include "train/gemm_microkernels.h"
#include "train/im2col.h"
#include "train/loss.h"
#include "train/model.h"
#include "train/norm.h"
#include "train/ops.h"
#include "train/optim.h"
#include "train/resnet_model.h"
#include "train/trainer.h"
#include "train/transformer_model.h"
#include "util/cpu.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace mbs::train {
namespace {

const std::vector<int> kBudgets{1, 2, 3, 8};

/// Restores an approximation of the default budget (hardware concurrency)
/// when a test finishes pinning it.
struct BudgetGuard {
  ~BudgetGuard() { util::set_thread_budget(-1); }  // back to MBS_THREADS
};

void expect_bits_equal(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.size()) * sizeof(float)))
      << what << ": payload bits differ";
}

/// Runs `make` under every budget in kBudgets and bit-compares everything
/// against the budget-1 result.
void expect_budget_invariant(const std::function<std::vector<Tensor>()>& make,
                             const char* what) {
  BudgetGuard guard;
  util::set_thread_budget(1);
  const std::vector<Tensor> reference = make();
  for (int budget : kBudgets) {
    util::set_thread_budget(budget);
    const std::vector<Tensor> got = make();
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      expect_bits_equal(got[i], reference[i],
                        (std::string(what) + " budget " +
                         std::to_string(budget) + " tensor " +
                         std::to_string(i))
                            .c_str());
  }
}

// ---- Naive references (scalar loops in the seed's accumulation order) ------

/// C = A * B^T accumulated in float from init[j] (0 when `init` is empty):
/// the direct-convolution accumulation the forward and dgrad GEMMs keep.
Tensor naive_matmul_bt_f32(const Tensor& a, const Tensor& b,
                           const Tensor& init) {
  const int m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor c({m, n});
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      float acc = init.empty() ? 0.0f : init[j];
      for (int p = 0; p < k; ++p)
        acc += a[static_cast<std::int64_t>(i) * k + p] *
               b[static_cast<std::int64_t>(j) * k + p];
      c[static_cast<std::int64_t>(i) * n + j] = acc;
    }
  return c;
}

Tensor naive_matmul_at(const Tensor& a, const Tensor& b) {
  const int k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (int p = 0; p < k; ++p)
    for (int i = 0; i < m; ++i) {
      const float av = a[static_cast<std::int64_t>(p) * m + i];
      if (av == 0.0f) continue;
      for (int j = 0; j < n; ++j)
        c[static_cast<std::int64_t>(i) * n + j] +=
            av * b[static_cast<std::int64_t>(p) * n + j];
    }
  return c;
}

/// matmul_bt_f32_into / matmul_at_into into fresh [M, N] tensors.
Tensor run_matmul_bt_f32(const Tensor& a, const Tensor& b, const Tensor& init) {
  Tensor c({a.dim(0), b.dim(0)});
  matmul_bt_f32_into(a.data(), a.dim(0), b.data(), b.dim(0), a.dim(1),
                     init.empty() ? nullptr : init.data(), c.data());
  return c;
}

Tensor run_matmul_at(const Tensor& a, const Tensor& b) {
  Tensor c({a.dim(1), b.dim(1)});
  matmul_at_into(a.data(), a.dim(1), b.data(), b.dim(1), a.dim(0), c.data());
  return c;
}

/// conv2d_forward_into / conv2d_backward_into without a ConvCache, into
/// fresh tensors: the uncached reference path.
Tensor run_conv_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                        int stride, int pad) {
  Tensor y;
  conv2d_forward_into(x, w, b, stride, pad, /*cache=*/nullptr, y);
  return y;
}

Conv2dGrads run_conv_backward(const Tensor& x, const Tensor& w,
                              const Tensor& dy, int stride, int pad) {
  Conv2dGrads g;
  conv2d_backward_into(x, w, dy, stride, pad, /*need_dx=*/true,
                       /*cache=*/nullptr, g);
  return g;
}

/// The transpose of a row-major [rows, cols] matrix.
Tensor transposed(const Tensor& m) {
  const int rows = m.dim(0), cols = m.dim(1);
  Tensor t({cols, rows});
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < cols; ++j)
      t[static_cast<std::int64_t>(j) * rows + i] =
          m[static_cast<std::int64_t>(i) * cols + j];
  return t;
}

int ref_out_dim(int in, int kernel, int stride, int pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

Tensor naive_conv2d_forward(const Tensor& x, const Tensor& w,
                            const Tensor& bias, int stride, int pad) {
  const int n = x.dim(0), ci = x.dim(1), ih = x.dim(2), iw = x.dim(3);
  const int co = w.dim(0), kh = w.dim(2), kw = w.dim(3);
  const int oh = ref_out_dim(ih, kh, stride, pad);
  const int ow = ref_out_dim(iw, kw, stride, pad);
  Tensor y({n, co, oh, ow});
  for (int b = 0; b < n; ++b)
    for (int o = 0; o < co; ++o) {
      const float bv = bias.empty() ? 0.0f : bias[o];
      for (int yh = 0; yh < oh; ++yh)
        for (int yw = 0; yw < ow; ++yw) {
          float acc = bv;
          for (int c = 0; c < ci; ++c)
            for (int r = 0; r < kh; ++r) {
              const int xh = yh * stride - pad + r;
              if (xh < 0 || xh >= ih) continue;
              for (int s = 0; s < kw; ++s) {
                const int xw = yw * stride - pad + s;
                if (xw < 0 || xw >= iw) continue;
                acc += x.at(b, c, xh, xw) * w.at(o, c, r, s);
              }
            }
          y.at(b, o, yh, yw) = acc;
        }
    }
  return y;
}

Conv2dGrads naive_conv2d_backward(const Tensor& x, const Tensor& w,
                                  const Tensor& dy, int stride, int pad,
                                  bool need_dx = true) {
  const int n = x.dim(0), ci = x.dim(1), ih = x.dim(2), iw = x.dim(3);
  const int co = w.dim(0), kh = w.dim(2), kw = w.dim(3);
  const int oh = dy.dim(2), ow = dy.dim(3);
  Conv2dGrads g;
  g.dw = Tensor({co, ci, kh, kw});
  g.dbias = Tensor({co});
  if (need_dx) g.dx = Tensor({n, ci, ih, iw});
  for (int b = 0; b < n; ++b)
    for (int o = 0; o < co; ++o)
      for (int yh = 0; yh < oh; ++yh)
        for (int yw = 0; yw < ow; ++yw) {
          const float d = dy.at(b, o, yh, yw);
          if (d == 0.0f) continue;
          g.dbias[o] += d;
          for (int c = 0; c < ci; ++c)
            for (int r = 0; r < kh; ++r) {
              const int xh = yh * stride - pad + r;
              if (xh < 0 || xh >= ih) continue;
              for (int s = 0; s < kw; ++s) {
                const int xw = yw * stride - pad + s;
                if (xw < 0 || xw >= iw) continue;
                g.dw.at(o, c, r, s) += d * x.at(b, c, xh, xw);
                if (need_dx) g.dx.at(b, c, xh, xw) += d * w.at(o, c, r, s);
              }
            }
        }
  return g;
}

// ---- GEMM family: blocked == naive, bit for bit -----------------------------

struct GemmShapeCase {
  int m, k, n;
};

class BlockedGemm : public ::testing::TestWithParam<GemmShapeCase> {};

/// The production GEMM entry points against the naive loops, bit for bit:
/// matmul_bt_f32_into with and without a per-column init, and
/// matmul_at_into, each at every budget in `budgets`.
void expect_gemms_match_naive(const GemmShapeCase& p, std::uint64_t seed,
                              const std::vector<int>& budgets,
                              const std::string& tag) {
  util::Rng rng(seed);
  const Tensor a = Tensor::randn({p.m, p.k}, rng);
  const Tensor b = Tensor::randn({p.k, p.n}, rng);
  const Tensor init = Tensor::randn({p.n}, rng, 0.2);
  const Tensor bt = transposed(b);
  const Tensor at = transposed(a);

  const Tensor ref_bt = naive_matmul_bt_f32(a, bt, Tensor());
  const Tensor ref_bt_init = naive_matmul_bt_f32(a, bt, init);
  const Tensor ref_at = naive_matmul_at(at, b);
  BudgetGuard guard;
  for (int budget : budgets) {
    util::set_thread_budget(budget);
    const std::string where = tag + " budget " + std::to_string(budget);
    expect_bits_equal(run_matmul_bt_f32(a, bt, Tensor()), ref_bt,
                      (where + " matmul_bt_f32_into").c_str());
    expect_bits_equal(run_matmul_bt_f32(a, bt, init), ref_bt_init,
                      (where + " matmul_bt_f32_into+init").c_str());
    expect_bits_equal(run_matmul_at(at, b), ref_at,
                      (where + " matmul_at_into").c_str());
  }
}

TEST_P(BlockedGemm, MatchesNaiveLoopsBitForBit) {
  expect_gemms_match_naive(GetParam(), 17, kBudgets, "blocked");
}

INSTANTIATE_TEST_SUITE_P(
    AdversarialShapes, BlockedGemm,
    ::testing::Values(GemmShapeCase{17, 29, 23},   // nothing divides the tiles
                      GemmShapeCase{1, 1, 1},      // degenerate
                      GemmShapeCase{4, 8, 64},     // exact tile/panel multiples
                      GemmShapeCase{5, 3, 7},      // smaller than one tile
                      GemmShapeCase{129, 65, 130},  // crosses the panel width
                      GemmShapeCase{64, 1, 9}));   // K = 1

TEST(BlockedGemm, SparseInputsMatchTheSkippingNaiveLoop) {
  // The naive matmul_at loop skipped zero multiplicands; the blocked
  // kernels do not. Equality on zero-rich inputs (exactly what im2col
  // padding produces) is the regression test for that dropped skip.
  util::Rng rng(18);
  Tensor a = Tensor::randn({33, 31}, rng);
  Tensor b = Tensor::randn({31, 21}, rng);
  for (std::int64_t i = 0; i < a.size(); i += 2) a[i] = 0.0f;
  for (std::int64_t i = 0; i < b.size(); i += 3) b[i] = 0.0f;
  const Tensor at = transposed(a);
  expect_bits_equal(run_matmul_at(at, b), naive_matmul_at(at, b),
                    "sparse matmul_at_into");
  const Tensor bt = transposed(b);
  expect_bits_equal(run_matmul_bt_f32(a, bt, Tensor()),
                    naive_matmul_bt_f32(a, bt, Tensor()),
                    "sparse matmul_bt_f32_into");
}

// ---- Convolution: the GEMM production path == the seed's direct loops -------

struct ConvShapeCase {
  int n, ci, h, w, co, k, stride, pad;
  bool bias;
};

class FastConv : public ::testing::TestWithParam<ConvShapeCase> {};

TEST_P(FastConv, ForwardAndBackwardMatchNaiveBitForBit) {
  const ConvShapeCase p = GetParam();
  util::Rng rng(23);
  const Tensor x = Tensor::randn({p.n, p.ci, p.h, p.w}, rng);
  const Tensor w = Tensor::randn({p.co, p.ci, p.k, p.k}, rng, 0.5);
  const Tensor b = p.bias ? Tensor::randn({p.co}, rng, 0.1) : Tensor();

  const Tensor ref_y = naive_conv2d_forward(x, w, b, p.stride, p.pad);
  util::Rng rng2(29);
  const Tensor dy = Tensor::randn(ref_y.shape(), rng2);
  const Conv2dGrads ref_g = naive_conv2d_backward(x, w, dy, p.stride, p.pad);

  BudgetGuard guard;
  for (int budget : kBudgets) {
    util::set_thread_budget(budget);
    expect_bits_equal(run_conv_forward(x, w, b, p.stride, p.pad), ref_y,
                      "conv2d_forward_into");
    const Conv2dGrads g = run_conv_backward(x, w, dy, p.stride, p.pad);
    expect_bits_equal(g.dw, ref_g.dw, "conv dw");
    expect_bits_equal(g.dbias, ref_g.dbias, "conv dbias");
    expect_bits_equal(g.dx, ref_g.dx, "conv dx");
  }
}

INSTANTIATE_TEST_SUITE_P(
    AdversarialGeometries, FastConv,
    ::testing::Values(
        ConvShapeCase{2, 3, 8, 8, 4, 3, 1, 1, true},    // ResNet-style 3x3
        ConvShapeCase{1, 4, 7, 7, 8, 1, 1, 0, true},    // 1x1 bottleneck
        ConvShapeCase{2, 2, 9, 11, 3, 3, 2, 1, false},  // stride 2, H != W
        ConvShapeCase{1, 2, 13, 13, 2, 7, 1, 3, true},  // 7x7, heavy padding
        ConvShapeCase{1, 3, 10, 6, 2, 5, 2, 2, false},  // stride 2, 5x5
        ConvShapeCase{1, 3, 11, 11, 2, 5, 1, 2, true},  // 5x5 (AlexNet-style)
        ConvShapeCase{3, 1, 6, 6, 2, 3, 1, 0, true},    // valid padding
        ConvShapeCase{1, 2, 8, 8, 2, 3, 2, 0, false})); // strided valid

TEST(FastConv, ReluSparsifiedGradientsMatchTheSkippingNaiveLoop) {
  // The seed's backward skipped whole receptive fields when dy == 0 (the
  // common post-ReLU case); the GEMM weight gradient does not skip.
  util::Rng rng(31);
  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  const Tensor w = Tensor::randn({4, 3, 3, 3}, rng, 0.5);
  Tensor dy = Tensor::randn({2, 4, 8, 8}, rng);
  for (std::int64_t i = 0; i < dy.size(); i += 2) dy[i] = 0.0f;
  const Conv2dGrads ref = naive_conv2d_backward(x, w, dy, 1, 1);
  const Conv2dGrads g = run_conv_backward(x, w, dy, 1, 1);
  expect_bits_equal(g.dw, ref.dw, "sparse dw");
  expect_bits_equal(g.dbias, ref.dbias, "sparse dbias");
  expect_bits_equal(g.dx, ref.dx, "sparse dx");
}

// ---- Conv data gradient: the flipped-weight GEMM == the seed scatter --------

/// Pins MBS_KERNEL / MBS_FORCE_NO_AVX2 for one test and restores the
/// default dispatch (env unset) on the way out.
struct IsaGuard {
  ~IsaGuard() {
    unsetenv("MBS_KERNEL");
    unsetenv("MBS_FORCE_NO_AVX2");
    detail::reset_microkernel_dispatch();
  }
  void force(const char* isa) {
    setenv("MBS_KERNEL", isa, 1);
    detail::reset_microkernel_dispatch();
  }
};

bool avx2_available() {
  return detail::avx2_microkernels() != nullptr && util::cpu_supports_avx2();
}

struct DgradCase {
  const char* what;
  int n, ci, h, w, co, kh, kw, stride, pad;
  double zero_frac;  ///< exact share of dY entries zeroed, at random places
};

void PrintTo(const DgradCase& c, std::ostream* os) { *os << c.what; }

class ConvDgrad : public ::testing::TestWithParam<DgradCase> {};

TEST_P(ConvDgrad, MatchesNaiveOnBothIsasAtEveryBudget) {
  const DgradCase p = GetParam();
  util::Rng rng(109);
  const Tensor x = Tensor::randn({p.n, p.ci, p.h, p.w}, rng);
  const Tensor w = Tensor::randn({p.co, p.ci, p.kh, p.kw}, rng, 0.5);
  Tensor dy = Tensor::randn(
      {p.n, p.co, ref_out_dim(p.h, p.kh, p.stride, p.pad),
       ref_out_dim(p.w, p.kw, p.stride, p.pad)},
      rng);
  std::vector<std::int64_t> order(static_cast<std::size_t>(dy.size()));
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<std::int64_t>(i);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.uniform_int(i)]);
  const auto zeros =
      static_cast<std::size_t>(p.zero_frac * static_cast<double>(dy.size()));
  for (std::size_t i = 0; i < zeros; ++i) dy[order[i]] = 0.0f;
  const Conv2dGrads ref = naive_conv2d_backward(x, w, dy, p.stride, p.pad);

  IsaGuard isa_guard;
  BudgetGuard budget_guard;
  for (const char* isa : {"portable", "avx2"}) {
    if (std::strcmp(isa, "avx2") == 0 && !avx2_available()) continue;
    isa_guard.force(isa);
    for (int budget : kBudgets) {
      util::set_thread_budget(budget);
      const std::string tag = std::string(p.what) + " " + isa + " budget " +
                              std::to_string(budget);
      ConvCache cache;
      Conv2dGrads g;
      Tensor y;
      conv2d_forward_into(x, w, Tensor(), p.stride, p.pad, &cache, y);
      conv2d_backward_into(x, w, dy, p.stride, p.pad, /*need_dx=*/true,
                           &cache, g);
      expect_bits_equal(g.dx, ref.dx, (tag + " dx").c_str());
      expect_bits_equal(g.dw, ref.dw, (tag + " dw").c_str());
      expect_bits_equal(g.dbias, ref.dbias, (tag + " dbias").c_str());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DensitiesAndGeometries, ConvDgrad,
    ::testing::Values(
        // SmallCnn conv2 (16->32, 6x6) at the MBS sub-batch and the full
        // batch, across dY densities; 1/3 was the retired scatter
        // dispatch's density threshold.
        DgradCase{"b8 dense", 8, 16, 6, 6, 32, 3, 3, 1, 1, 0.0},
        DgradCase{"b8 1/3 zero", 8, 16, 6, 6, 32, 3, 3, 1, 1, 1.0 / 3},
        DgradCase{"b8 1/2 zero", 8, 16, 6, 6, 32, 3, 3, 1, 1, 0.5},
        DgradCase{"b8 0.9 zero", 8, 16, 6, 6, 32, 3, 3, 1, 1, 0.9},
        DgradCase{"b8 all zero", 8, 16, 6, 6, 32, 3, 3, 1, 1, 1.0},
        DgradCase{"b32 dense", 32, 16, 6, 6, 32, 3, 3, 1, 1, 0.0},
        DgradCase{"b32 1/3 zero", 32, 16, 6, 6, 32, 3, 3, 1, 1, 1.0 / 3},
        DgradCase{"b32 1/2 zero", 32, 16, 6, 6, 32, 3, 3, 1, 1, 0.5},
        DgradCase{"b32 0.9 zero", 32, 16, 6, 6, 32, 3, 3, 1, 1, 0.9},
        DgradCase{"b32 all zero", 32, 16, 6, 6, 32, 3, 3, 1, 1, 1.0},
        // Geometries the lowering treats specially: pad > k-1 makes the
        // flipped padding negative; stride 3 leaves (h+2p-k) % stride
        // input rows/columns that no output reads; rectangular kernels
        // flip each axis on its own; the stride-2 cases zero-dilate dY.
        DgradCase{"1x1 pad 1", 2, 3, 5, 6, 4, 1, 1, 1, 1, 0.0},
        DgradCase{"3x3 pad 2", 2, 3, 6, 5, 4, 3, 3, 1, 2, 0.0},
        DgradCase{"3x3 stride 3", 2, 3, 11, 12, 4, 3, 3, 3, 1, 0.0},
        DgradCase{"3x1", 2, 3, 7, 6, 4, 3, 1, 1, 1, 0.0},
        DgradCase{"1x3", 2, 3, 7, 6, 4, 1, 3, 1, 1, 0.0},
        DgradCase{"3x3 stride 2", 2, 8, 9, 9, 16, 3, 3, 2, 1, 0.5},
        DgradCase{"1x1 stride 2 projection", 2, 8, 8, 8, 16, 1, 1, 2, 0,
                  0.0}));

// ---- im2col with asymmetric padding stays thread-invariant ------------------

TEST(KernelThreading, Im2colIsBudgetInvariant) {
  util::Rng rng(37);
  const Tensor x = Tensor::randn({3, 2, 9, 7}, rng);
  // 3x2 kernel, stride 2, pad (2, 1): Ho = 6, Wo = 4, K = 2*3*2.
  expect_budget_invariant(
      [&] {
        Tensor cols({3 * 6 * 4, 2 * 3 * 2});
        im2col_into(x, 3, 2, 2, /*pad_h=*/2, /*pad_w=*/1, cols.data());
        return std::vector<Tensor>{cols};
      },
      "im2col asymmetric");
}

// ---- Pool/norm/linear/sgd kernels across budgets ----------------------------

TEST(KernelThreading, PoolNormLinearSgdAreBudgetInvariant) {
  // Sized so every kernel's util::work_grain partition really splits at
  // budgets >= 2 (each loop has several times kWorkGrainElems of work);
  // smaller tensors would run inline at every budget and prove nothing.
  util::Rng rng(41);
  const Tensor x = Tensor::randn({16, 64, 9, 9}, rng);
  const Tensor gamma = Tensor::randn({64}, rng, 0.3);
  const Tensor beta = Tensor::randn({64}, rng, 0.3);
  const Tensor fc_x = Tensor::randn({64, 1024}, rng);
  const Tensor fc_w = Tensor::randn({16, 1024}, rng, 0.4);
  const Tensor fc_b = Tensor::randn({16}, rng, 0.1);
  const Tensor fc_dy = Tensor::randn({64, 16}, rng);

  expect_budget_invariant(
      [&] {
        std::vector<Tensor> out;
        Tensor y;
        MaxPoolCache mp;
        maxpool_forward_into(x, 2, 2, mp, y);
        out.push_back(y);
        Tensor dy_pool(y.shape());
        dy_pool.fill(0.5f);
        maxpool_backward_into(dy_pool, mp, y);
        out.push_back(y);
        global_avg_pool_forward_into(x, y);
        out.push_back(y);
        relu_forward_into(x, y);
        out.push_back(y);

        NormCache bc;
        batchnorm_forward_into(x, gamma, beta, bc, y);
        out.push_back(y);
        Tensor dyn(x.shape());
        dyn.fill(0.25f);
        NormGrads bg;
        batchnorm_backward_into(dyn, gamma, bc, bg);
        out.push_back(bg.dx);
        out.push_back(bg.dgamma);
        NormCache gc;
        groupnorm_forward_into(x, gamma, beta, 2, gc, y);
        out.push_back(y);
        NormGrads gg;
        groupnorm_backward_into(dyn, gamma, 2, gc, gg);
        out.push_back(gg.dx);
        out.push_back(gg.dbeta);

        linear_forward_into(fc_x, fc_w, fc_b, y);
        out.push_back(y);
        LinearGrads lg;
        linear_backward_into(fc_x, fc_w, fc_dy, lg);
        out.push_back(lg.dx);
        out.push_back(lg.dw);
        out.push_back(lg.dbias);

        Tensor p = fc_w;
        Tensor g(fc_w.shape());
        g.fill(0.125f);
        Sgd opt({/*lr=*/0.1, /*momentum=*/0.9, /*weight_decay=*/1e-4});
        opt.step({&p}, {&g});
        opt.step({&p}, {&g});
        out.push_back(p);
        return out;
      },
      "pool/norm/linear/sgd");
}

// ---- Whole-model gradients: fast path x serialization x budgets -------------

TEST(KernelThreading, ComputeGradientsIsBudgetInvariant) {
  const Dataset data = make_synthetic_dataset(16, 4, 1, 12, /*seed=*/61);
  expect_budget_invariant(
      [&] {
        SmallCnnConfig cfg;
        cfg.norm = NormMode::kGroup;
        cfg.seed = 99;
        SmallCnn model(cfg);
        compute_gradients(model, data.images, data.labels, {4, 4, 4, 4});
        std::vector<Tensor> out;
        for (Tensor* g : model.gradients()) out.push_back(*g);
        return out;
      },
      "compute_gradients");
}

TEST(KernelThreading, SerializedGradientsStillMatchFullBatchOnFastPath) {
  // The Sec. 3 serialization identity, re-checked on the GEMM production
  // path: GN gradients for chunked sub-batches equal full-batch gradients
  // to float32 accumulation noise.
  const Dataset data = make_synthetic_dataset(16, 4, 1, 12, /*seed=*/21);
  SmallCnnConfig cfg;
  cfg.norm = NormMode::kGroup;
  cfg.seed = 99;
  SmallCnn full(cfg), serial(cfg);
  compute_gradients(full, data.images, data.labels, {16});
  compute_gradients(serial, data.images, data.labels, {4, 4, 4, 4});
  auto gf = full.gradients(), gs = serial.gradients();
  ASSERT_EQ(gf.size(), gs.size());
  for (std::size_t i = 0; i < gf.size(); ++i)
    for (std::int64_t j = 0; j < gf[i]->size(); ++j)
      EXPECT_NEAR((*gf[i])[j], (*gs[i])[j], 2e-4)
          << "param " << i << " elem " << j;
}

// ---- parallel_for semantics -------------------------------------------------

TEST(ParallelFor, CoversEveryIndexExactlyOnceAtAnyBudget) {
  BudgetGuard guard;
  for (int budget : kBudgets) {
    util::set_thread_budget(budget);
    std::vector<std::atomic<int>> hits(1000);
    util::parallel_for(1000, 1, [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i)
        hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelFor, NestedCallsRunInline) {
  BudgetGuard guard;
  util::set_thread_budget(8);
  std::atomic<bool> nested_was_inline{true};
  util::parallel_for(4, 1, [&](std::int64_t, std::int64_t) {
    // Inside a region (pool worker or inline caller), a nested parallel_for
    // must not fan out again.
    if (!util::in_parallel_region())
      nested_was_inline.store(false);
  });
  EXPECT_TRUE(nested_was_inline.load());
  EXPECT_FALSE(util::in_parallel_region());
  {
    util::ParallelRegionGuard region;
    EXPECT_TRUE(util::in_parallel_region());
  }
  EXPECT_FALSE(util::in_parallel_region());
}

TEST(ParallelFor, PropagatesExceptions) {
  BudgetGuard guard;
  util::set_thread_budget(4);
  EXPECT_THROW(
      util::parallel_for(100, 1,
                         [](std::int64_t i0, std::int64_t) {
                           if (i0 > 0) throw std::runtime_error("boom");
                         }),
      std::runtime_error);
}

// ---- Pool handoff: polling and parked helpers --------------------------------

/// Longer than the pool's polling bound (about 50 us), so a helper idle
/// this long has parked and the next dispatch must wake it.
constexpr std::chrono::milliseconds kParkGap{2};

TEST(ParallelFor, BackToBackAndParkedDispatchesCoverEveryIndexOnce) {
  BudgetGuard guard;
  for (int budget : {2, 3, 8}) {
    util::set_thread_budget(budget);
    for (int round = 0; round < 300; ++round) {
      // Runs of back-to-back dispatches, each run after an idle gap: the
      // first dispatch of a run wakes parked helpers, the rest find them
      // still polling.
      if (round % 10 == 0) std::this_thread::sleep_for(kParkGap);
      const int n = 1 + round % 19;
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      util::parallel_for(n, 1, [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i)
          hits[static_cast<std::size_t>(i)].fetch_add(1);
      });
      for (int i = 0; i < n; ++i)
        ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
            << "budget " << budget << " round " << round << " index " << i;
    }
  }
}

TEST(ParallelFor, SmallJobOnAGrownPoolUsesOnlyItsOwnHelper) {
  BudgetGuard guard;
  util::set_thread_budget(8);
  std::mutex mu;
  std::set<std::thread::id> threads;
  const auto record = [&](std::int64_t, std::int64_t) {
    std::lock_guard<std::mutex> lock(mu);
    threads.insert(std::this_thread::get_id());
  };
  util::parallel_for(64, 1, record);  // grows the pool to seven workers
  util::set_thread_budget(2);
  threads.clear();
  for (int round = 0; round < 200; ++round) {
    if (round % 20 == 0) std::this_thread::sleep_for(kParkGap);
    util::parallel_for(2, 1, record);
  }
  // A two-range job is handed to one worker only, so across all rounds at
  // most the caller and that one worker ran ranges; the other six were
  // neither woken nor waited for.
  threads.erase(std::this_thread::get_id());
  EXPECT_LE(threads.size(), 1u);
}

TEST(ParallelFor, PropagatesExceptionsFromPollingAndParkedHelpers) {
  BudgetGuard guard;
  util::set_thread_budget(2);
  const std::thread::id caller = std::this_thread::get_id();
  for (bool parked : {false, true}) {
    util::parallel_for(2, 1, [](std::int64_t, std::int64_t) {});
    if (parked) std::this_thread::sleep_for(kParkGap);
    // The caller's range waits until the helper has taken the other one,
    // so the throw always comes from the helper.
    std::atomic<bool> helper_ran{false};
    EXPECT_THROW(
        util::parallel_for(2, 1,
                           [&](std::int64_t, std::int64_t) {
                             if (std::this_thread::get_id() == caller) {
                               while (!helper_ran.load())
                                 std::this_thread::yield();
                               return;
                             }
                             helper_ran.store(true);
                             throw std::runtime_error("boom");
                           }),
        std::runtime_error)
        << (parked ? "parked" : "polling") << " helper";
  }
  std::atomic<int> after{0};
  util::parallel_for(2, 1, [&](std::int64_t i0, std::int64_t i1) {
    after.fetch_add(static_cast<int>(i1 - i0));
  });
  EXPECT_EQ(after.load(), 2) << "pool unusable after a helper threw";
}

// ---- ConvCache: cached-im2col backward == uncached, bit for bit -------------

struct CachedConvCase {
  int n, ci, h, w, co, k, stride, pad;
};

class CachedConv : public ::testing::TestWithParam<CachedConvCase> {};

TEST_P(CachedConv, BackwardWithForwardCacheMatchesUncachedBitForBit) {
  const CachedConvCase p = GetParam();
  util::Rng rng(53);
  const Tensor x = Tensor::randn({p.n, p.ci, p.h, p.w}, rng);
  const Tensor w = Tensor::randn({p.co, p.ci, p.k, p.k}, rng, 0.5);
  const Tensor b = Tensor::randn({p.co}, rng, 0.1);

  // Uncached reference (budget 1).
  BudgetGuard guard;
  util::set_thread_budget(1);
  const Tensor ref_y = run_conv_forward(x, w, b, p.stride, p.pad);
  util::Rng rng2(59);
  const Tensor dy = Tensor::randn(ref_y.shape(), rng2);
  const Conv2dGrads ref_g = run_conv_backward(x, w, dy, p.stride, p.pad);

  for (int budget : {1, 2, 8}) {
    util::set_thread_budget(budget);
    ConvCache cache;
    Conv2dGrads g;
    Tensor y;
    // Twice: the second iteration reuses every step-persistent buffer, so
    // it also exercises the ensure_shape/zeroed reuse paths.
    for (int iter = 0; iter < 2; ++iter) {
      conv2d_forward_into(x, w, b, p.stride, p.pad, &cache, y);
      expect_bits_equal(y, ref_y, "cached conv forward");
      conv2d_backward_into(x, w, dy, p.stride, p.pad, /*need_dx=*/true,
                           &cache, g);
      expect_bits_equal(g.dw, ref_g.dw, "cached conv dw");
      expect_bits_equal(g.dbias, ref_g.dbias, "cached conv dbias");
      expect_bits_equal(g.dx, ref_g.dx, "cached conv dx");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AdversarialGeometries, CachedConv,
    ::testing::Values(
        CachedConvCase{2, 3, 8, 8, 4, 3, 1, 1},    // ResNet-style 3x3
        CachedConvCase{1, 4, 7, 7, 8, 1, 1, 0},    // 1x1 bottleneck
        CachedConvCase{2, 2, 9, 11, 3, 3, 2, 1},   // stride 2, H != W
        CachedConvCase{1, 2, 6, 6, 2, 3, 1, 4},    // pad > kernel
        CachedConvCase{1, 3, 10, 6, 2, 5, 2, 2},   // stride 2, 5x5
        CachedConvCase{2, 2, 7, 7, 3, 3, 2, 3}));  // stride 2, pad > kernel/2

TEST(CachedConv, GeometryChangeWithSameColsShapeRezerosTheBuffer) {
  // A 3x1 kernel (pad 1) and a 1x3 kernel (pad 1) on the same input both
  // lower to a cols matrix of identical SHAPE, but with different
  // padding-zero layouts. Reusing one cache across the switch must not
  // preserve the first geometry's stale values in positions the second
  // geometry treats as padding.
  util::Rng rng(83);
  const Tensor x = Tensor::randn({1, 1, 4, 4}, rng);
  Tensor w31({2, 1, 3, 1}), w13({2, 1, 1, 3});
  for (std::int64_t i = 0; i < w31.size(); ++i) {
    w31[i] = 0.25f * static_cast<float>(i + 1);
    w13[i] = -0.5f * static_cast<float>(i + 1);
  }
  ConvCache cache;
  Tensor y;
  conv2d_forward_into(x, w31, Tensor(), 1, 1, &cache, y);
  expect_bits_equal(y, run_conv_forward(x, w31, Tensor(), 1, 1),
                    "3x1 pass");
  conv2d_forward_into(x, w13, Tensor(), 1, 1, &cache, y);
  expect_bits_equal(y, run_conv_forward(x, w13, Tensor(), 1, 1),
                    "1x3 pass after 3x1 cache");
  // And the backward consuming the refreshed cache is right too.
  util::Rng rng2(89);
  const Tensor dy = Tensor::randn(y.shape(), rng2);
  Conv2dGrads got;
  conv2d_backward_into(x, w13, dy, 1, 1, /*need_dx=*/true, &cache, got);
  const Conv2dGrads ref = run_conv_backward(x, w13, dy, 1, 1);
  expect_bits_equal(got.dw, ref.dw, "1x3 dw after geometry switch");
  expect_bits_equal(got.dx, ref.dx, "1x3 dx after geometry switch");
}

TEST(CachedConv, StaleCacheFallsBackToRecomputingBitForBit) {
  util::Rng rng(61);
  const Tensor x8 = Tensor::randn({2, 3, 8, 8}, rng);
  const Tensor x6 = Tensor::randn({2, 3, 6, 6}, rng);
  const Tensor w = Tensor::randn({4, 3, 3, 3}, rng, 0.5);
  ConvCache cache;
  Tensor y;
  conv2d_forward_into(x8, w, Tensor(), 1, 1, &cache, y);  // caches 8x8
  // Backward against the 6x6 input: the cache is stale (geometry stamp
  // mismatch) and must be ignored, not consumed.
  util::Rng rng2(67);
  const Tensor dy = Tensor::randn({2, 4, 6, 6}, rng2);
  Conv2dGrads got;
  conv2d_backward_into(x6, w, dy, 1, 1, /*need_dx=*/true, &cache, got);
  const Conv2dGrads ref = run_conv_backward(x6, w, dy, 1, 1);
  expect_bits_equal(got.dw, ref.dw, "stale-cache dw");
  expect_bits_equal(got.dx, ref.dx, "stale-cache dx");
}

TEST(CachedConv, RepeatedStepsWithReusedBuffersStayBitStable) {
  // Every per-layer buffer (ConvCache cols, gradient scratch, activation
  // caches) is reused in place across steps; a second pass over the same
  // data must reproduce the first bit for bit — stale state anywhere in
  // the reuse discipline would show up here.
  const Dataset data = make_synthetic_dataset(8, 4, 1, 12, /*seed=*/71);
  SmallCnnConfig cfg;
  cfg.norm = NormMode::kGroup;
  cfg.seed = 3;
  SmallCnn model(cfg);
  compute_gradients(model, data.images, data.labels, {4, 4});
  std::vector<Tensor> first;
  for (Tensor* g : model.gradients()) first.push_back(*g);
  compute_gradients(model, data.images, data.labels, {4, 4});
  auto gs = model.gradients();
  ASSERT_EQ(gs.size(), first.size());
  for (std::size_t i = 0; i < gs.size(); ++i)
    expect_bits_equal(*gs[i], first[i], "repeated-step gradients");
}

// ---- Max pool: byte window offsets == the seed's flat-index scan ------------

/// The seed's max-pool scan: row-major over each (clipped) window from
/// -inf, first maximum wins, recording a flat input index. A window with
/// nothing above -inf routes to its own first element.
void seed_maxpool(const Tensor& x, int kernel, int stride, Tensor& y,
                  std::vector<std::int64_t>& argmax) {
  const int n = x.dim(0), c = x.dim(1), ih = x.dim(2), iw = x.dim(3);
  const int oh = ref_out_dim(ih, kernel, stride, 0);
  const int ow = ref_out_dim(iw, kernel, stride, 0);
  y = Tensor({n, c, oh, ow});
  argmax.assign(static_cast<std::size_t>(y.size()), 0);
  std::int64_t oi = 0;
  for (int b = 0; b < n; ++b)
    for (int ch = 0; ch < c; ++ch)
      for (int yh = 0; yh < oh; ++yh)
        for (int yw = 0; yw < ow; ++yw, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t best_idx = x.idx4(b, ch, yh * stride, yw * stride);
          for (int r = 0; r < kernel && yh * stride + r < ih; ++r)
            for (int s = 0; s < kernel && yw * stride + s < iw; ++s) {
              const float v = x.at(b, ch, yh * stride + r, yw * stride + s);
              if (v > best) {
                best = v;
                best_idx = x.idx4(b, ch, yh * stride + r, yw * stride + s);
              }
            }
          y[oi] = best;
          argmax[static_cast<std::size_t>(oi)] = best_idx;
        }
}

TEST(MaxPoolIndex, ByteOffsetsMatchTheSeedScanBitForBit) {
  struct Case {
    int n, c, h, w, kernel, stride;
  };
  // 2x2/2 takes the vectorized row path (even and odd sizes, so some rows
  // fall back to clipped windows); 3x3/2 and 3x3/1 take the generic scan;
  // a 1x1 input clips its 2x2 window.
  const Case cases[] = {{2, 3, 12, 12, 2, 2}, {2, 3, 7, 9, 2, 2},
                        {2, 2, 9, 8, 3, 2},   {1, 2, 6, 6, 3, 1},
                        {2, 2, 1, 1, 2, 2}};
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // Ties, signed zeros, NaN and infinities, in every window position.
  const std::vector<float> specials = {0.0f, -0.0f, nan,  inf, -inf, 1.0f,
                                       1.0f, -2.0f, 0.5f, nan, -inf};
  util::Rng rng(43);
  BudgetGuard guard;
  for (const Case& p : cases) {
    for (int fill = 0; fill < 2; ++fill) {
      Tensor x = Tensor::randn({p.n, p.c, p.h, p.w}, rng);
      if (fill == 1)  // random draws, so every pairing lands in windows
        for (std::int64_t i = 0; i < x.size(); ++i)
          x[i] = specials[rng.uniform_int(specials.size())];
      Tensor ref_y;
      std::vector<std::int64_t> ref_argmax;
      seed_maxpool(x, p.kernel, p.stride, ref_y, ref_argmax);
      Tensor dy(ref_y.shape());
      for (std::int64_t i = 0; i < dy.size(); ++i)
        dy[i] = 0.25f * static_cast<float>(i + 1);
      Tensor ref_dx(x.shape());
      for (std::int64_t i = 0; i < dy.size(); ++i)
        ref_dx[ref_argmax[static_cast<std::size_t>(i)]] += dy[i];
      for (int budget : kBudgets) {
        util::set_thread_budget(budget);
        MaxPoolCache cache;
        Tensor y, dx;
        maxpool_forward_into(x, p.kernel, p.stride, cache, y);
        expect_bits_equal(y, ref_y, "maxpool y");
        maxpool_backward_into(dy, cache, dx);
        expect_bits_equal(dx, ref_dx, "maxpool dx");
      }
    }
  }
}

// ---- ReLU forward and the branch-free backward -------------------------------

TEST(ReluForms, IntoMatchesTheClampAndReusesItsBuffer) {
  util::Rng rng(73);
  const Tensor x = Tensor::randn({3, 4, 5, 5}, rng);
  Tensor ref = x;
  for (std::int64_t i = 0; i < ref.size(); ++i)
    if (ref[i] < 0) ref[i] = 0;
  Tensor y;
  relu_forward_into(x, y);
  expect_bits_equal(y, ref, "relu_forward_into");
  relu_forward_into(x, y);  // reused buffer
  expect_bits_equal(y, ref, "relu_forward_into reuse");
}

TEST(ReluForms, BackwardSelectMatchesTheBranchyReferenceBitForBit) {
  // Every pairing of special values in y (the sign source) and d (the
  // gradient): +-0, NaN, +-denormal, +-inf and ordinary values. The
  // select must store exactly what `if (y <= 0) d = 0` stored: -0 and
  // negative denormals in y mask, NaN in y keeps d (the comparison is
  // false), and kept d values pass through bit for bit, NaN payloads
  // and the sign of zero included.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> specials = {0.0f,   -0.0f, nan,  -nan,
                                       denorm, -denorm, 1e-38f, -1e-38f,
                                       inf,    -inf,  1.5f, -2.25f};
  const int k = static_cast<int>(specials.size());
  // 3 * k * k elements: long enough that the vectorized body, not just the
  // scalar tail, sees every pairing.
  Tensor y({3, k, k}), d({3, k, k});
  for (std::int64_t i = 0; i < y.size(); ++i) {
    y[i] = specials[static_cast<std::size_t>(i % k)];
    d[i] = specials[static_cast<std::size_t>((i / k) % k)];
  }
  Tensor ref = d;
  for (std::int64_t i = 0; i < ref.size(); ++i)
    if (y[i] <= 0) ref[i] = 0;
  BudgetGuard guard;
  for (int budget : kBudgets) {
    util::set_thread_budget(budget);
    Tensor got = d;
    relu_backward_inplace(got, y);
    expect_bits_equal(got, ref, "relu_backward_inplace specials");
  }
  // And on a tensor large enough to split across the pool.
  util::Rng rng(79);
  const Tensor big_y = Tensor::randn({8, 16, 24, 24}, rng);
  const Tensor big_d = Tensor::randn(big_y.shape(), rng);
  Tensor big_ref = big_d;
  for (std::int64_t i = 0; i < big_ref.size(); ++i)
    if (big_y[i] <= 0) big_ref[i] = 0;
  for (int budget : kBudgets) {
    util::set_thread_budget(budget);
    Tensor got = big_d;
    relu_backward_inplace(got, big_y);
    expect_bits_equal(got, big_ref, "relu_backward_inplace pooled");
  }
}

// ---- util::Arena -------------------------------------------------------------

TEST(Arena, ReusesCapacityAfterRewindAndReset) {
  util::Arena arena;
  float* first = arena.floats(1000);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(first) % util::Arena::kAlign,
            0u);
  const std::int64_t blocks_after_first = arena.block_allocs();
  arena.reset();
  // Same request after reset: same memory, no new block.
  float* second = arena.floats(1000);
  EXPECT_EQ(first, second);
  EXPECT_EQ(arena.block_allocs(), blocks_after_first);

  // A repeating allocation pattern reaches a steady state with zero
  // further block acquisitions (the zero-allocation contract's arena
  // half).
  for (int step = 0; step < 5; ++step) {
    arena.reset();
    arena.floats(123);
    arena.floats(4567);
    arena.floats(89);
  }
  EXPECT_EQ(arena.block_allocs(), blocks_after_first);
  EXPECT_GT(arena.high_water(), 0u);
}

TEST(Arena, MarkRewindNestsLikeAStack) {
  util::Arena arena;
  arena.floats(64);
  const util::Arena::Marker outer = arena.mark();
  float* a = arena.floats(256);
  {
    util::ArenaScope scope(arena);
    float* b = scope.floats(512);
    ASSERT_NE(b, nullptr);
    EXPECT_GT(arena.used(), 0u);
  }
  // The scope rewound its scratch; a new allocation lands where b was.
  float* b2 = arena.floats(512);
  arena.rewind(outer);
  // After rewinding to the outer marker, the same sequence replays to the
  // same addresses.
  float* a2 = arena.floats(256);
  EXPECT_EQ(a, a2);
  float* b3 = arena.floats(512);
  EXPECT_EQ(b2, b3);
}

TEST(Arena, GrowsAcrossBlocksWithoutInvalidatingLivePointers) {
  util::Arena arena;
  float* small = arena.floats(8);
  small[0] = 42.0f;
  // Force growth past the first block.
  float* big = arena.floats((std::int64_t{1} << 20));
  ASSERT_NE(big, nullptr);
  big[0] = 1.0f;
  EXPECT_EQ(small[0], 42.0f);  // old pointer still valid
  EXPECT_GE(arena.block_allocs(), 2);
}

// ---- Zero-allocation contract (Debug builds) --------------------------------

TEST(ZeroAllocContract, EveryKernelKindIsInsideTheContract) {
  // The contract covers the whole step, not just conv/GEMM: norm, pool,
  // ReLU, linear and SGD scopes count allocations too.
  EXPECT_FALSE(util::in_kernel_path());
  for (int k = 0; k < static_cast<int>(util::KernelKind::kCount); ++k) {
    util::ScopedKernelTimer timer(static_cast<util::KernelKind>(k));
    EXPECT_TRUE(util::in_kernel_path())
        << util::to_string(static_cast<util::KernelKind>(k));
  }
  EXPECT_FALSE(util::in_kernel_path());
}

/// SmallCnn as compute_gradients sees it, with one kernel timer held from
/// the end of zero_grad() until the test resets it: that puts the whole
/// chunk loop on the kernel path, so the allocation hook counts the
/// slicing, labels and loss between the kernels too.
struct ChunkLoopWatch {
  SmallCnn& model;
  std::optional<util::ScopedKernelTimer> timer;

  void zero_grad() {
    model.zero_grad();
    timer.emplace(util::KernelKind::kGemm);
  }
  const Tensor& forward(const Tensor& x) { return model.forward(x); }
  void backward(const Tensor& dlogits) { model.backward(dlogits); }
};

TEST(ZeroAllocContract, SteadyStateTrainStepIsAllocationFree) {
  if (!util::alloc_hook_active())
    GTEST_SKIP() << "allocation hook only active in Debug builds";
  const Dataset data = make_synthetic_dataset(32, 8, 1, 12, /*seed=*/7);
  for (NormMode norm : {NormMode::kGroup, NormMode::kBatch, NormMode::kNone}) {
    SmallCnnConfig cfg;
    cfg.norm = norm;
    cfg.classes = 8;
    cfg.stage_channels = {16, 32};
    SmallCnn model(cfg);
    Sgd opt({/*lr=*/0.05, /*momentum=*/0.9, /*weight_decay=*/1e-4});
    // Full-batch and MBS steps alternate, as in the benchmark's training
    // stage; warm-up grows the arena to its high-water mark and settles
    // every step-persistent buffer's capacity. Each step is train_step's
    // compute_gradients + Sgd::step, with the chunk loop watched.
    ChunkLoopWatch watch{model, std::nullopt};
    auto steps = [&] {
      for (const std::vector<int>& chunks :
           {std::vector<int>{32}, std::vector<int>{8, 8, 8, 8}}) {
        compute_gradients(watch, data.images, data.labels, chunks);
        watch.timer.reset();
        opt.step(model.parameters(), model.gradients());
      }
    };
    for (int i = 0; i < 3; ++i) steps();
    const std::int64_t before = util::kernel_path_allocs();
    for (int i = 0; i < 2; ++i) steps();
    EXPECT_EQ(util::kernel_path_allocs(), before)
        << "steady-state " << to_string(norm) << " step touched the heap";
  }
}

TEST(ZeroAllocContract, SteadyStateResNetStepIsAllocationFree) {
  if (!util::alloc_hook_active())
    GTEST_SKIP() << "allocation hook only active in Debug builds";
  // The second stage strides by 2 and projects its shortcut, so the step
  // runs the stride-2 3x3 and the 1x1 projection data gradients.
  const Dataset data = make_synthetic_dataset(16, 4, 1, 12, /*seed=*/11);
  SmallResNet model(SmallResNetConfig{});
  Sgd opt({/*lr=*/0.05, /*momentum=*/0.9, /*weight_decay=*/0.0});
  auto step = [&] {
    train_step(model, opt, data.images, data.labels, {16});
    train_step(model, opt, data.images, data.labels, {4, 4, 4, 4});
  };
  for (int i = 0; i < 3; ++i) step();
  const std::int64_t before = util::kernel_path_allocs();
  for (int i = 0; i < 2; ++i) step();
  EXPECT_EQ(util::kernel_path_allocs(), before)
      << "steady-state residual step touched the heap";
}

TEST(ZeroAllocContract, SteadyStateTransformerStepIsAllocationFree) {
  if (!util::alloc_hook_active())
    GTEST_SKIP() << "allocation hook only active in Debug builds";
  // 4x4 images read as 16-token sequences; every projection is a 1x1 conv
  // on the production (cached, scratch-backed) conv path.
  const Dataset data = make_synthetic_dataset(16, 4, 3, 4, /*seed=*/13);
  Tensor x({16, 3, 16, 1});
  std::memcpy(x.data(), data.images.data(),
              static_cast<std::size_t>(x.size()) * sizeof(float));
  TinyTransformerConfig cfg;
  cfg.seq = 16;
  TinyTransformer model(cfg);
  Sgd opt({/*lr=*/0.05, /*momentum=*/0.9, /*weight_decay=*/0.0});
  for (int i = 0; i < 3; ++i)
    train_step(model, opt, x, data.labels, {4, 4, 4, 4});
  const std::int64_t before = util::kernel_path_allocs();
  for (int i = 0; i < 2; ++i)
    train_step(model, opt, x, data.labels, {4, 4, 4, 4});
  EXPECT_EQ(util::kernel_path_allocs(), before)
      << "steady-state transformer step touched the heap";
}

// ---- Kernel-ISA dispatch: portable and AVX2 families are bit-identical ------

class KernelDispatch : public ::testing::TestWithParam<GemmShapeCase> {};

TEST_P(KernelDispatch, BothIsaFamiliesMatchNaiveBitForBit) {
  IsaGuard guard;
  for (const char* isa : {"portable", "avx2"}) {
    if (std::strcmp(isa, "avx2") == 0 && !avx2_available()) continue;
    guard.force(isa);
    ASSERT_EQ(util::to_string(active_gemm_isa()), std::string(isa));
    expect_gemms_match_naive(GetParam(), 101, kBudgets, isa);
  }
}

// K >= 128 defeats the shared small-GEMM shortcut, so every case below
// actually reaches the dispatched microkernels; N values land on the
// 16-wide block, the 8-wide half-tile, and the masked tail, and odd M
// exercises every MR row remainder.
INSTANTIATE_TEST_SUITE_P(
    RemainderTiles, KernelDispatch,
    ::testing::Values(GemmShapeCase{5, 131, 7},     // masked tail only
                      GemmShapeCase{17, 129, 23},   // 16-block + masked tail
                      GemmShapeCase{3, 200, 33},    // 2x16 + 1-lane tail
                      GemmShapeCase{4, 128, 16},    // exact tile multiples
                      GemmShapeCase{2, 257, 9},     // 8-wide + 1-lane tail
                      GemmShapeCase{1, 131, 1},     // degenerate M = N = 1
                      GemmShapeCase{33, 130, 15},   // M remainder 1, N 8+7
                      GemmShapeCase{6, 128, 31}));  // 16+8+masked 7

TEST(KernelDispatch, Avx2RequestWithoutCpuSupportFallsBackCleanly) {
  IsaGuard guard;
  setenv("MBS_FORCE_NO_AVX2", "1", 1);
  guard.force("avx2");
  EXPECT_EQ(active_gemm_isa(), util::KernelIsa::kPortable);
  // ...and GEMMs keep working on the fallback path.
  util::Rng rng(103);
  const Tensor a = Tensor::randn({9, 130}, rng);
  const Tensor bt = Tensor::randn({11, 130}, rng);
  expect_bits_equal(run_matmul_bt_f32(a, bt, Tensor()),
                    naive_matmul_bt_f32(a, bt, Tensor()),
                    "fallback matmul_bt_f32_into");
}

TEST(KernelDispatch, DefaultResolutionPrefersAvx2WhenSupported) {
  IsaGuard guard;
  unsetenv("MBS_KERNEL");
  detail::reset_microkernel_dispatch();
  if (avx2_available())
    EXPECT_EQ(active_gemm_isa(), util::KernelIsa::kAvx2);
  else
    EXPECT_EQ(active_gemm_isa(), util::KernelIsa::kPortable);
}

// ---- Norm oracle: the seed's Tensor::at() loops -----------------------------
//
// The library's norm kernels walk raw pointers and hoist loop-invariant
// scalars without changing any floating-point expression; these are the
// loops they were rewritten from, allocating their own NormCache fields.

Tensor oracle_batchnorm_forward(const Tensor& x, const Tensor& gamma,
                                const Tensor& beta, NormCache& cache,
                                float eps = 1e-5f) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t m = static_cast<std::int64_t>(n) * h * w;
  cache.x_shape = x.shape();
  cache.mean = Tensor({c});
  cache.inv_std = Tensor({c});
  cache.xhat = Tensor(x.shape());
  Tensor y(x.shape());
  util::parallel_for(c, 1, [&](std::int64_t c0, std::int64_t c1) {
  for (int ch = static_cast<int>(c0); ch < c1; ++ch) {
    double sum = 0, sq = 0;
    for (int b = 0; b < n; ++b)
      for (int i = 0; i < h; ++i)
        for (int j = 0; j < w; ++j) {
          const double v = x.at(b, ch, i, j);
          sum += v;
          sq += v * v;
        }
    const double mean = sum / static_cast<double>(m);
    const double var = sq / static_cast<double>(m) - mean * mean;
    const double inv = 1.0 / std::sqrt(var + eps);
    cache.mean[ch] = static_cast<float>(mean);
    cache.inv_std[ch] = static_cast<float>(inv);
    for (int b = 0; b < n; ++b)
      for (int i = 0; i < h; ++i)
        for (int j = 0; j < w; ++j) {
          const float xh = static_cast<float>((x.at(b, ch, i, j) - mean) * inv);
          cache.xhat.at(b, ch, i, j) = xh;
          y.at(b, ch, i, j) = gamma[ch] * xh + beta[ch];
        }
  }
  });
  return y;
}

NormGrads oracle_batchnorm_backward(const Tensor& dy, const Tensor& gamma,
                                    const NormCache& cache) {
  const std::vector<int>& xs = cache.x_shape;
  const int n = xs[0], c = xs[1], h = xs[2], w = xs[3];
  const double m = static_cast<double>(n) * h * w;
  NormGrads g;
  g.dx = Tensor(xs);
  g.dgamma = Tensor({c});
  g.dbeta = Tensor({c});
  util::parallel_for(c, 1, [&](std::int64_t c0, std::int64_t c1) {
  for (int ch = static_cast<int>(c0); ch < c1; ++ch) {
    double sum_dy = 0, sum_dy_xhat = 0;
    for (int b = 0; b < n; ++b)
      for (int i = 0; i < h; ++i)
        for (int j = 0; j < w; ++j) {
          const double d = dy.at(b, ch, i, j);
          sum_dy += d;
          sum_dy_xhat += d * cache.xhat.at(b, ch, i, j);
        }
    g.dbeta[ch] = static_cast<float>(sum_dy);
    g.dgamma[ch] = static_cast<float>(sum_dy_xhat);
    const double inv = cache.inv_std[ch];
    const double gam = gamma[ch];
    for (int b = 0; b < n; ++b)
      for (int i = 0; i < h; ++i)
        for (int j = 0; j < w; ++j) {
          const double d = dy.at(b, ch, i, j);
          const double xh = cache.xhat.at(b, ch, i, j);
          g.dx.at(b, ch, i, j) = static_cast<float>(
              gam * inv * (d - sum_dy / m - xh * sum_dy_xhat / m));
        }
  }
  });
  return g;
}

Tensor oracle_groupnorm_forward(const Tensor& x, const Tensor& gamma,
                                const Tensor& beta, int groups,
                                NormCache& cache, float eps = 1e-5f) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int cpg = c / groups;
  const double m = static_cast<double>(cpg) * h * w;
  cache.x_shape = x.shape();
  cache.mean = Tensor({n, groups});
  cache.inv_std = Tensor({n, groups});
  cache.xhat = Tensor(x.shape());
  Tensor y(x.shape());
  util::parallel_for(
      static_cast<std::int64_t>(n) * groups, 1,
      [&](std::int64_t u0, std::int64_t u1) {
  for (std::int64_t unit = u0; unit < u1; ++unit) {
    const int b = static_cast<int>(unit / groups);
    const int gr = static_cast<int>(unit % groups);
    {
      double sum = 0, sq = 0;
      for (int cc = gr * cpg; cc < (gr + 1) * cpg; ++cc)
        for (int i = 0; i < h; ++i)
          for (int j = 0; j < w; ++j) {
            const double v = x.at(b, cc, i, j);
            sum += v;
            sq += v * v;
          }
      const double mean = sum / m;
      const double var = sq / m - mean * mean;
      const double inv = 1.0 / std::sqrt(var + eps);
      cache.mean[static_cast<std::int64_t>(b) * groups + gr] =
          static_cast<float>(mean);
      cache.inv_std[static_cast<std::int64_t>(b) * groups + gr] =
          static_cast<float>(inv);
      for (int cc = gr * cpg; cc < (gr + 1) * cpg; ++cc)
        for (int i = 0; i < h; ++i)
          for (int j = 0; j < w; ++j) {
            const float xh =
                static_cast<float>((x.at(b, cc, i, j) - mean) * inv);
            cache.xhat.at(b, cc, i, j) = xh;
            y.at(b, cc, i, j) = gamma[cc] * xh + beta[cc];
          }
    }
  }
      });
  return y;
}

NormGrads oracle_groupnorm_backward(const Tensor& dy, const Tensor& gamma,
                                    int groups, const NormCache& cache) {
  const std::vector<int>& xs = cache.x_shape;
  const int n = xs[0], c = xs[1], h = xs[2], w = xs[3];
  const int cpg = c / groups;
  const double m = static_cast<double>(cpg) * h * w;
  NormGrads g;
  g.dx = Tensor(xs);
  g.dgamma = Tensor({c});
  g.dbeta = Tensor({c});
  // dgamma/dbeta accumulate across samples, so the fan-out unit is the
  // group (channels partition by group); samples stay in-order inside.
  util::parallel_for(groups, 1, [&](std::int64_t g0, std::int64_t g1) {
  for (int gr = static_cast<int>(g0); gr < g1; ++gr)
    for (int b = 0; b < n; ++b) {
      // Sums over the normalization group, with dy scaled by gamma (the
      // affine transform sits between xhat and the loss).
      double sum_dyg = 0, sum_dyg_xhat = 0;
      for (int cc = gr * cpg; cc < (gr + 1) * cpg; ++cc)
        for (int i = 0; i < h; ++i)
          for (int j = 0; j < w; ++j) {
            const double d = dy.at(b, cc, i, j);
            const double xh = cache.xhat.at(b, cc, i, j);
            g.dbeta[cc] += static_cast<float>(d);
            g.dgamma[cc] += static_cast<float>(d * xh);
            sum_dyg += d * gamma[cc];
            sum_dyg_xhat += d * gamma[cc] * xh;
          }
      const double inv =
          cache.inv_std[static_cast<std::int64_t>(b) * groups + gr];
      for (int cc = gr * cpg; cc < (gr + 1) * cpg; ++cc)
        for (int i = 0; i < h; ++i)
          for (int j = 0; j < w; ++j) {
            const double d = dy.at(b, cc, i, j) * gamma[cc];
            const double xh = cache.xhat.at(b, cc, i, j);
            g.dx.at(b, cc, i, j) = static_cast<float>(
                inv * (d - sum_dyg / m - xh * sum_dyg_xhat / m));
          }
    }
  });
  return g;
}


TEST(NormRewrite, PointerAndLegacyFormsAreBitIdentical) {
  util::Rng rng(107);
  const Tensor x = Tensor::randn({3, 4, 9, 7}, rng);  // odd H/W planes
  const Tensor gamma = Tensor::randn({4}, rng, 0.3);
  const Tensor beta = Tensor::randn({4}, rng, 0.3);
  Tensor dy = Tensor::randn(x.shape(), rng);

  /// Every output and cache tensor of BN and GN forward + backward.
  auto collect = [](const Tensor& by, const NormCache& bc, const NormGrads& bg,
                    const Tensor& gy, const NormCache& gc,
                    const NormGrads& gg) {
    return std::vector<Tensor>{by,      bc.mean,   bc.inv_std, bc.xhat,
                               bg.dx,   bg.dgamma, bg.dbeta,   gy,
                               gc.mean, gc.inv_std, gg.dx,     gg.dgamma,
                               gg.dbeta};
  };
  NormCache obc, ogc;
  const Tensor oby = oracle_batchnorm_forward(x, gamma, beta, obc);
  const NormGrads obg = oracle_batchnorm_backward(dy, gamma, obc);
  const Tensor ogy = oracle_groupnorm_forward(x, gamma, beta, 2, ogc);
  const NormGrads ogg = oracle_groupnorm_backward(dy, gamma, 2, ogc);
  const std::vector<Tensor> legacy = collect(oby, obc, obg, ogy, ogc, ogg);

  BudgetGuard budget;
  for (int budget_n : {1, 3}) {
    util::set_thread_budget(budget_n);
    NormCache bc, gc;
    NormGrads bg, gg;
    Tensor by, gy;
    // Twice: the second pass reuses every output, cache and gradient
    // buffer, so GN's dgamma/dbeta must restart from zero.
    for (int pass = 0; pass < 2; ++pass) {
      batchnorm_forward_into(x, gamma, beta, bc, by);
      batchnorm_backward_into(dy, gamma, bc, bg);
      groupnorm_forward_into(x, gamma, beta, 2, gc, gy);
      groupnorm_backward_into(dy, gamma, 2, gc, gg);
      const std::vector<Tensor> fast = collect(by, bc, bg, gy, gc, gg);
      ASSERT_EQ(fast.size(), legacy.size());
      for (std::size_t i = 0; i < fast.size(); ++i)
        expect_bits_equal(fast[i], legacy[i],
                          ("norm rewrite tensor " + std::to_string(i) +
                           " budget " + std::to_string(budget_n) + " pass " +
                           std::to_string(pass))
                              .c_str());
    }
  }
}

// ---- Tensor::count overflow guard -------------------------------------------

TEST(TensorCountDeathTest, OversizedShapesFailLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // 2^31 * 2^31 * 2^31 would silently wrap a 64-bit product in Release
  // builds before this guard existed.
  const int big = 1 << 30;
  EXPECT_DEATH(Tensor::count({big, big, big, 8}), "overflows int64");
  EXPECT_DEATH(Tensor::count({2, -3}), "negative dimension");
  // In-range products still work.
  EXPECT_EQ(Tensor::count({big, 4}), static_cast<std::int64_t>(big) * 4);
  EXPECT_EQ(Tensor::count({0, big, big}), 0);
}

}  // namespace
}  // namespace mbs::train
