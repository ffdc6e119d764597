// Tests for the im2col lowering (Sec. 4.1): the Tab. 1 [Gh, K] matrix
// im2col_into writes, its zero padding, and the 1x1 transposition case.
// Equivalence of the lowered convolution with direct convolution, bit for
// bit, is kernel_test's FastConv suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "train/im2col.h"
#include "util/rng.h"

namespace mbs::train {
namespace {

constexpr int kGuard = 64;          ///< sentinel floats after the matrix
constexpr float kSentinel = -7.0f;  ///< never a value im2col_into writes here

/// Runs im2col_into on a zeroed [gh, k] buffer followed by a guard band of
/// sentinels. The band must come back untouched: the lowering writes
/// inside the Tab. 1 matrix only.
Tensor lower(const Tensor& x, int kh, int kw, int stride, int pad, int gh,
             int k) {
  const std::size_t size = static_cast<std::size_t>(gh) * k;
  std::vector<float> buf(size + kGuard, 0.0f);
  std::fill(buf.begin() + static_cast<std::ptrdiff_t>(size), buf.end(),
            kSentinel);
  im2col_into(x, kh, kw, stride, pad, pad, buf.data());
  for (int i = 0; i < kGuard; ++i)
    EXPECT_EQ(buf[size + static_cast<std::size_t>(i)], kSentinel)
        << "write past the [Gh, K] matrix at +" << i;
  Tensor cols({gh, k});
  std::copy(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(size),
            cols.data());
  return cols;
}

TEST(Im2col, ShapeMatchesTab1) {
  // Gh = N*Ho*Wo rows of K = Ci*R*S columns; row (n, oh, ow), column
  // (c, r, s) holds x[n, c, oh*stride - pad + r, ow*stride - pad + s], or 0
  // where that position is padding.
  util::Rng rng(1);
  const Tensor x = Tensor::randn({2, 3, 9, 9}, rng);
  const int stride = 2, pad = 1, kh = 3, kw = 3;
  const int ho = (9 + 2 * pad - kh) / stride + 1;  // 5
  const Tensor cols = lower(x, kh, kw, stride, pad, 2 * ho * ho, 3 * kh * kw);
  std::int64_t row = 0;
  for (int n = 0; n < 2; ++n)
    for (int oh = 0; oh < ho; ++oh)
      for (int ow = 0; ow < ho; ++ow, ++row)
        for (int c = 0; c < 3; ++c)
          for (int r = 0; r < kh; ++r)
            for (int s = 0; s < kw; ++s) {
              const int xh = oh * stride - pad + r;
              const int xw = ow * stride - pad + s;
              const bool inside = xh >= 0 && xh < 9 && xw >= 0 && xw < 9;
              EXPECT_EQ(cols[row * 27 + (c * kh + r) * kw + s],
                        inside ? x.at(n, c, xh, xw) : 0.0f)
                  << "row " << row << " col (" << c << "," << r << "," << s
                  << ")";
            }
}

TEST(Im2col, UnitKernelIsTranspositionOnly) {
  util::Rng rng(2);
  const Tensor x = Tensor::randn({2, 3, 4, 4}, rng);
  const Tensor cols = lower(x, 1, 1, 1, 0, 2 * 4 * 4, 3);
  // Row (n, h, w), column c equals x[n, c, h, w].
  std::int64_t row = 0;
  for (int n = 0; n < 2; ++n)
    for (int h = 0; h < 4; ++h)
      for (int w = 0; w < 4; ++w, ++row)
        for (int c = 0; c < 3; ++c)
          EXPECT_EQ(cols[row * 3 + c], x.at(n, c, h, w));
}

TEST(Im2col, PaddingMaterializesZeros) {
  const Tensor x = Tensor::full({1, 1, 2, 2}, 1.0f);
  const Tensor cols = lower(x, 3, 3, 1, 1, 2 * 2, 9);
  // The (0,0) output position sees the corner: 4 in-bounds ones, 5 zeros.
  double s = 0;
  for (int i = 0; i < 9; ++i) s += cols[i];
  EXPECT_EQ(s, 4.0);
}

}  // namespace
}  // namespace mbs::train
