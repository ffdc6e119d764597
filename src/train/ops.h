// Functional forward/backward operators: convolution, pooling, linear, ReLU.
//
// Every op writes into caller-owned, step-persistent tensors (reshaped in
// place by Tensor::ensure_shape), and every forward records what the
// matching backward needs in a caller-owned cache; there is no global
// autograd state, so the same model object can run full-batch and
// MBS-serialized steps interchangeably, and a steady-state training step
// allocates nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "train/tensor.h"

namespace mbs::train {

// ---- Convolution -----------------------------------------------------------

/// Step-persistent per-layer conv workspace (the NormCache analogue for
/// data reuse): conv2d_forward_into records its im2col lowering here and
/// conv2d_backward_into consumes it, so a training step lowers each conv input
/// exactly once — the paper's redundancy-elimination discipline applied to
/// our own hot path. The buffer is reused in place across steps
/// (Tensor::ensure_shape), reaching zero steady-state heap allocations.
/// One cache belongs to exactly one conv layer; backward falls back to
/// recomputing the lowering (bit-identically) whenever the cache is absent
/// or stale.
struct ConvCache {
  Tensor cols;               ///< [N*Ho*Wo, Ci*Kh*Kw] from the last forward
  std::vector<int> x_shape;  ///< geometry stamp of the cached lowering
  int kh = 0, kw = 0, stride = 0, pad = 0;
  bool valid = false;

  bool matches(const Tensor& x, int kh_, int kw_, int stride_,
               int pad_) const {
    return valid && kh == kh_ && kw == kw_ && stride == stride_ &&
           pad == pad_ && x_shape == x.shape();
  }
};

struct Conv2dGrads {
  Tensor dx;
  Tensor dw;
  Tensor dbias;
};

/// y[n,co,oh,ow] = sum_{ci,kh,kw} x[n,ci,oh*s-p+kh,ow*s-p+kw] * w[co,ci,kh,kw]
/// (+ bias), with weights [Co, Ci, Kh, Kw]; backward writes the gradients
/// w.r.t. input, weights and bias into `g`. `y`/`g` are step-persistent
/// caller tensors reshaped in place, scratch comes from the per-thread
/// workspace arena, and `cache` (optional) carries the im2col lowering
/// from forward to backward. Results are bit-identical at every
/// MBS_THREADS setting, with and without the cache. When `need_dx` is
/// false `g.dx` is left untouched.
void conv2d_forward_into(const Tensor& x, const Tensor& w, const Tensor& bias,
                         int stride, int pad, ConvCache* cache, Tensor& y);
void conv2d_backward_into(const Tensor& x, const Tensor& w, const Tensor& dy,
                          int stride, int pad, bool need_dx, ConvCache* cache,
                          Conv2dGrads& g);

/// One convolution layer of a model: weights, an optional bias, their
/// gradients, and the step-persistent ConvCache and gradient scratch that
/// keep its steady-state forward and backward allocation-free.
struct ConvLayer {
  ConvLayer() = default;
  /// He-initialized [co, ci, k, k] weights: one randn draw with std
  /// sqrt(2 / (ci*k*k)). The bias, when present, starts at zero.
  ConvLayer(util::Rng& rng, int co, int ci, int k, int stride, int pad,
            bool bias = false);

  /// y = conv(x), through the layer's cache.
  void forward(const Tensor& x, Tensor& y);
  /// Adds into dw (and db); the data gradient lands in g.dx when
  /// `need_dx`. `x` must be the tensor forward() saw.
  void backward(const Tensor& x, const Tensor& dy, bool need_dx);

  Tensor w, dw, b, db;  ///< b/db empty when the layer has no bias
  int stride = 1, pad = 0;
  ConvCache cache;
  Conv2dGrads g;
};

// ---- Pooling ---------------------------------------------------------------

/// Max pooling's backward stash: one byte per output element holding the
/// in-window offset r*kernel + s of its maximum — the simulator's 1-byte
/// pool index (Sec. 3) — plus the geometry that turns it back into an
/// input position.
struct MaxPoolCache {
  std::vector<std::uint8_t> argmax;
  std::vector<int> x_shape;
  int kernel = 0, stride = 0;
};

/// Unpadded max pooling of x [N,C,H,W] into `y`, recording each window's
/// argmax in `cache`. kernel*kernel must fit the byte index (<= 256).
void maxpool_forward_into(const Tensor& x, int kernel, int stride,
                          MaxPoolCache& cache, Tensor& y);

/// Routes dy to each window's argmax, into `dx` (shaped like x, fully
/// overwritten; overlapping windows add in output order).
void maxpool_backward_into(const Tensor& dy, const MaxPoolCache& cache,
                           Tensor& dx);

/// Global average pooling of x [N,C,H,W] to y [N, C], and its backward
/// into dx of `x_shape`.
void global_avg_pool_forward_into(const Tensor& x, Tensor& y);
void global_avg_pool_backward_into(const Tensor& dy,
                                   const std::vector<int>& x_shape,
                                   Tensor& dx);

// ---- Activation ------------------------------------------------------------

/// y = max(x, 0) into a step-persistent output (single pass, no copy, no
/// steady-state allocation). -0 and NaN pass through unchanged.
void relu_forward_into(const Tensor& x, Tensor& y);

/// ReLU backward through `d` in place (d starts as dy and becomes dx):
/// d = 0 wherever y <= 0. It needs only the sign of the forward output —
/// the property MBS exploits with 1-bit masks (Sec. 3). Branch-free, so it
/// vectorizes; NaN in y keeps d, as the comparison is false.
void relu_backward_inplace(Tensor& d, const Tensor& y);

// ---- Linear ----------------------------------------------------------------

/// y[n,o] = sum_i x[n,i] * w[o,i] + b[o], x flattened to [N, features].
void linear_forward_into(const Tensor& x, const Tensor& w, const Tensor& bias,
                         Tensor& y);

struct LinearGrads {
  Tensor dx;
  Tensor dw;
  Tensor dbias;
};

/// Gradients of linear_forward_into w.r.t. x, w and bias, into `g`.
void linear_backward_into(const Tensor& x, const Tensor& w, const Tensor& dy,
                          LinearGrads& g);

/// Global average pooling followed by a linear classifier: the head every
/// training model ends in. Owns its parameters, their gradients and the
/// step-persistent activations and scratch, so its steady-state forward
/// and backward allocate nothing.
struct ClassifierHead {
  ClassifierHead() = default;
  /// He-initialized [classes, features] weights (std sqrt(2 / features));
  /// the bias starts at zero.
  ClassifierHead(util::Rng& rng, int classes, int features);

  /// Logits [N, classes] of the feature map x [N, features, H, W].
  const Tensor& forward(const Tensor& x);
  /// Adds into dw/db and returns the gradient w.r.t. forward's x (a
  /// step-persistent buffer the caller may modify in place).
  Tensor& backward(const Tensor& dlogits);

  Tensor w, dw, b, db;
  Tensor pooled, logits, dx;
  std::vector<int> x_shape;
  LinearGrads g;
};

}  // namespace mbs::train
