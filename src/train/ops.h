// Functional forward/backward operators: convolution, pooling, linear, ReLU.
//
// Every forward returns the tensors needed for the matching backward; there
// is no global autograd state, so the same model object can run full-batch
// and MBS-serialized steps interchangeably.
#pragma once

#include <vector>

#include "train/tensor.h"

namespace mbs::train {

// ---- Convolution -----------------------------------------------------------

/// Step-persistent per-layer conv workspace (the NormCache analogue for
/// data reuse): conv2d_forward records its im2col lowering here and
/// conv2d_backward consumes it, so a training step lowers each conv input
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

/// y[n,co,oh,ow] = sum_{ci,kh,kw} x[n,ci,oh*s-p+kh,ow*s-p+kw] * w[co,ci,kh,kw]
/// (+ bias). Weights are [Co, Ci, Kh, Kw].
Tensor conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& bias,
                      int stride, int pad);

struct Conv2dGrads {
  Tensor dx;
  Tensor dw;
  Tensor dbias;
};

/// Gradients of conv2d_forward w.r.t. input, weights and bias.
Conv2dGrads conv2d_backward(const Tensor& x, const Tensor& w,
                            const Tensor& dy, int stride, int pad,
                            bool need_dx = true);

/// The zero-allocation production forms the models drive: `y`/`g` are
/// step-persistent caller tensors reshaped in place, scratch comes from
/// the per-thread workspace arena, and `cache` (optional) carries the
/// im2col lowering from forward to backward. Results are bit-identical to
/// the Tensor-returning forms at every MBS_THREADS setting, with and
/// without the cache. When `need_dx` is false `g->dx` is left untouched.
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

struct MaxPoolResult {
  Tensor y;
  /// Flat input index of each output element's maximum (the simulator's
  /// 1-byte "pool index" stash corresponds to this, Sec. 3).
  std::vector<std::int64_t> argmax;
};

MaxPoolResult maxpool_forward(const Tensor& x, int kernel, int stride);

Tensor maxpool_backward(const Tensor& dy, const MaxPoolResult& cache,
                        const std::vector<int>& x_shape);

/// Global average pooling to [N, C].
Tensor global_avg_pool_forward(const Tensor& x);
Tensor global_avg_pool_backward(const Tensor& dy, const std::vector<int>& x_shape);

// ---- Activation ------------------------------------------------------------

Tensor relu_forward(const Tensor& x);

/// relu_forward into a step-persistent output (single pass, no copy, no
/// steady-state allocation); value-identical to relu_forward.
void relu_forward_into(const Tensor& x, Tensor& y);

/// ReLU backward needs only the sign of the forward output — the property
/// MBS exploits with 1-bit masks (Sec. 3).
Tensor relu_backward(const Tensor& dy, const Tensor& y);

/// relu_backward writing through `d` in place (d starts as dy and becomes
/// dx); value-identical to d = relu_backward(d, y) without the copy.
void relu_backward_inplace(Tensor& d, const Tensor& y);

// ---- Linear ----------------------------------------------------------------

/// y[n,o] = sum_i x[n,i] * w[o,i] + b[o]. x is flattened to [N, features].
Tensor linear_forward(const Tensor& x, const Tensor& w, const Tensor& bias);

struct LinearGrads {
  Tensor dx;
  Tensor dw;
  Tensor dbias;
};

LinearGrads linear_backward(const Tensor& x, const Tensor& w, const Tensor& dy);

}  // namespace mbs::train
