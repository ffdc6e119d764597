// im2col convolution lowering (Sec. 4.1).
//
// WaveCore maps convolutions onto its systolic array by rewriting them as
// GEMMs over im2col-expanded inputs (Chetlur et al. 2014), because direct
// convolution would need re-tuning for every sub-batch size MBS produces.
// This file implements that lowering and the blocked GEMMs it feeds for all
// three training passes of Tab. 1; ops.cc's convolutions run on them and
// stay bit-identical to direct convolution.
#pragma once

#include "train/tensor.h"

namespace mbs::train {

// ---- Raw-pointer entry points (the zero-allocation kernel path) ------------
//
// ops.cc and attention.cc drive every production GEMM through these:
// outputs land in caller-provided buffers (step-persistent Tensors or
// util::workspace() arena scratch), so a steady-state training step never
// touches the heap.

/// Expands x [N,Ci,H,W] into the im2col matrix A [N*Ho*Wo, Ci*Kh*Kw] in
/// `cols`: row r = (n, oh, ow) holds the receptive field of output position
/// (oh, ow) of sample n; Gh/Gw/K match Tab. 1. Only in-bounds
/// receptive-field entries are written: the caller must hand either freshly
/// zeroed memory or a buffer reused from a pass with the SAME geometry
/// (padding positions only ever hold zeros, so they stay correct).
void im2col_into(const Tensor& x, int kernel_h, int kernel_w, int stride,
                 int pad_h, int pad_w, float* cols);

/// B transposed with FLOAT accumulation and per-column initialization:
/// C[M,N] = A[M,K] * B[N,K]^T, where C[i,j] starts at init[j] (0 when
/// `init` is nullptr) and adds a[i,p]*b[j,p] for p = 0..K-1 with float
/// rounding at every step — exactly the accumulation direct convolution
/// performs per output element.
void matmul_bt_f32_into(const float* a, std::int64_t m, const float* b,
                        std::int64_t n, int k, const float* init, float* c);

/// A transposed: C[M,N] = A[K,M]^T * B[K,N], float accumulation.
void matmul_at_into(const float* a, std::int64_t m, const float* b,
                    std::int64_t n, int k, float* c);

/// Per-column float sums of a [rows, n] matrix into out[n] (overwritten),
/// rows accumulated in increasing order: the conv bias-gradient reduction.
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

}  // namespace mbs::train
