// im2col convolution lowering (Sec. 4.1).
//
// WaveCore maps convolutions onto its systolic array by rewriting them as
// GEMMs over im2col-expanded inputs (Chetlur et al. 2014), because direct
// convolution would need re-tuning for every sub-batch size MBS produces.
// This file implements that lowering functionally so the repository can
// demonstrate (and test) that the GEMM formulation is exactly equivalent to
// direct convolution for all three training passes of Tab. 1.
#pragma once

#include "train/tensor.h"

namespace mbs::train {

/// Expands x [N,Ci,H,W] into the im2col matrix A [N*Ho*Wo, Ci*Kh*Kw]:
/// row r = (n, oh, ow) holds the receptive field of output position (oh, ow)
/// of sample n, with zero padding materialized. Gh/Gw/K match Tab. 1.
Tensor im2col(const Tensor& x, int kernel_h, int kernel_w, int stride,
              int pad_h, int pad_w);

/// Scatter-adds columns back to input-gradient form: the adjoint of
/// im2col. cols is [N*Ho*Wo, Ci*Kh*Kw]; returns [N,Ci,H,W].
Tensor col2im(const Tensor& cols, const std::vector<int>& x_shape,
              int kernel_h, int kernel_w, int stride, int pad_h, int pad_w);

/// Plain row-major GEMM: C[M,N] = A[M,K] * B[K,N].
Tensor matmul(const Tensor& a, const Tensor& b);

/// B transposed: C[M,N] = A[M,K] * B[N,K]^T.
Tensor matmul_bt(const Tensor& a, const Tensor& b);

/// A transposed: C[M,N] = A[K,M]^T * B[K,N].
Tensor matmul_at(const Tensor& a, const Tensor& b);

/// B transposed with FLOAT accumulation and per-column initialization:
/// C[i,j] starts at init[j] (0 when init is empty) and adds a[i,p]*b[j,p]
/// for p = 0..K-1 with float rounding at every step — exactly the
/// accumulation direct convolution performs per output element, which is
/// what lets conv2d_forward delegate to the GEMM path bit-for-bit
/// (matmul_bt's double accumulator would change the low bits).
Tensor matmul_bt_f32(const Tensor& a, const Tensor& b, const Tensor& init);

/// Per-column float sums of a [R, N] matrix, each column accumulated in
/// increasing row order — the conv bias-gradient reduction.
Tensor column_sums_f32(const Tensor& m);

/// Repacks [N,C,H,W] into the GEMM row layout [N*H*W, C] (row (n,h,w),
/// column c) and back. The adjoint pair used to move dY and GEMM outputs
/// between tensor and matrix form.
Tensor nchw_to_rows(const Tensor& t);
Tensor rows_to_nchw(const Tensor& rows, const std::vector<int>& shape4);

/// Repacks a [Ci*Kh*Kw, Co] weight-gradient GEMM result into conv weight
/// layout [Co, Ci, Kh, Kw].
Tensor kxn_to_conv_weights(const Tensor& m, int co, int ci, int kh, int kw);

// ---- Raw-pointer entry points (the zero-allocation kernel path) ------------
//
// ops.cc drives the production convolutions through these: outputs land in
// caller-provided buffers (step-persistent Tensors or util::workspace()
// arena scratch), so a steady-state training step never touches the heap.
// Each mirrors its Tensor-returning namesake bit for bit.

/// im2col into `cols` (n*oh*ow rows of ci*kh*kw floats). Only in-bounds
/// receptive-field entries are written: the caller must hand either freshly
/// zeroed memory or a buffer reused from a pass with the SAME geometry
/// (padding positions only ever hold zeros, so they stay correct).
void im2col_into(const Tensor& x, int kernel_h, int kernel_w, int stride,
                 int pad_h, int pad_w, float* cols);

/// C[M,N] = A[M,K] * B[N,K]^T, float accumulation seeded per column from
/// `init` (nullptr = 0): the raw form of matmul_bt_f32.
void matmul_bt_f32_into(const float* a, std::int64_t m, const float* b,
                        std::int64_t n, int k, const float* init, float* c);

/// C[M,N] = A[K,M]^T * B[K,N]: the raw form of matmul_at.
void matmul_at_into(const float* a, std::int64_t m, const float* b,
                    std::int64_t n, int k, float* c);

/// Per-column float sums of a [rows, n] matrix into out[n] (overwritten),
/// rows accumulated in increasing order: the raw form of column_sums_f32.
void column_sums_f32_into(const float* m, std::int64_t rows, int n,
                          float* out);

/// [N,C,H,W] -> [N*H*W, C] rows into a caller buffer of t.size() floats.
void nchw_to_rows_into(const Tensor& t, float* rows);

/// [N*H*W, C] rows back into 4-D tensor `t` (already shaped, fully
/// overwritten).
void rows_to_nchw_into(const float* rows, Tensor& t);

/// [Ci*Kh*Kw, Co] -> [Co, Ci, Kh, Kw] repack into `w` (fully overwritten).
void kxn_to_conv_weights_into(const float* m, int co, int ci, int kh, int kw,
                              float* w);

/// The data-gradient lowering: dx is the stride-1 forward convolution of
/// dY, zero-dilated by `stride` and padded by kh-1-pad (kw-1-pad), with
/// flipped, transposed weights. Writes the [N*H*W, Co*Kh*Kw] im2col matrix
/// of that convolution (every entry, so `cols` may be uninitialized):
/// row (b, xh, xw), column (o, r', s') holds
/// dy[b, o, (xh+r'-ph)/stride, (xw+s'-pw)/stride] when both positions are
/// on the stride grid and in range, else 0 (ph = kh-1-pad, pw = kw-1-pad).
/// dY [N, Co, Ho, Wo] is read in the GEMM row layout `dy_rows`
/// [N*Ho*Wo, Co] (nchw_to_rows_into) the weight gradient already uses.
void dgrad_cols_into(const float* dy_rows, int n, int co, int oh, int ow,
                     int ih, int iw, int kernel_h, int kernel_w, int stride,
                     int pad, float* cols);

/// [Co, Ci, Kh, Kw] -> the data-gradient GEMM operand [Ci, Co*Kh*Kw]:
/// wf[c][o][kh-1-r][kw-1-s] = w[o][c][r][s] (fully overwritten).
void conv_weights_to_dgrad_into(const float* w, int co, int ci, int kh,
                                int kw, float* wf);

/// Convolution forward via im2col + GEMM (Tab. 1 "Forward"). Must equal
/// conv2d_forward bit-for-bit up to float summation order.
Tensor conv2d_forward_im2col(const Tensor& x, const Tensor& w,
                             const Tensor& bias, int stride, int pad);

struct Conv2dIm2colGrads {
  Tensor dx;
  Tensor dw;
  Tensor dbias;
};

/// Convolution backward via the Tab. 1 "Data Gradient" and "Weight
/// Gradient" GEMMs.
Conv2dIm2colGrads conv2d_backward_im2col(const Tensor& x, const Tensor& w,
                                         const Tensor& dy, int stride,
                                         int pad);

}  // namespace mbs::train
