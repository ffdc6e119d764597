// Batch normalization and group normalization, forward and backward.
//
// BN (Ioffe & Szegedy 2015) normalizes each channel over the whole
// mini-batch — which is exactly why it is incompatible with MBS (Sec. 3.1):
// sub-batch serialization changes the statistics. GN (Wu & He 2018)
// normalizes within channel groups of a single sample, so serializing the
// mini-batch leaves the math bit-for-bit unchanged; that property is what
// makes GN+MBS training equivalent to unserialized GN training, and it is
// verified by tests/train_test.cc.
#pragma once

#include <vector>

#include "train/tensor.h"

namespace mbs::train {

enum class NormMode { kNone, kBatch, kGroup };

const char* to_string(NormMode m);

/// Cache produced by a normalization forward pass, consumed by backward.
/// Backward reads the input only through its shape and xhat, so the input
/// itself is not kept.
struct NormCache {
  std::vector<int> x_shape;  ///< forward input shape
  Tensor xhat;               ///< normalized input
  Tensor mean;               ///< per-statistic mean
  Tensor inv_std;            ///< 1 / sqrt(var + eps)
};

struct NormGrads {
  Tensor dx;
  Tensor dgamma;
  Tensor dbeta;
};

// Every form writes into caller-owned tensors reshaped in place
// (Tensor::ensure_shape): `y`, the cache and `g` are step-persistent, so a
// steady-state step allocates nothing.

/// Batch normalization (training mode, batch statistics) into `y`.
/// x: [N,C,H,W]; gamma/beta: [C]. eps defaults to 1e-5.
void batchnorm_forward_into(const Tensor& x, const Tensor& gamma,
                            const Tensor& beta, NormCache& cache, Tensor& y,
                            float eps = 1e-5f);

void batchnorm_backward_into(const Tensor& dy, const Tensor& gamma,
                             const NormCache& cache, NormGrads& g);

/// Group normalization into `y`: statistics over (C/groups, H, W) of each
/// sample. `groups` must divide C.
void groupnorm_forward_into(const Tensor& x, const Tensor& gamma,
                            const Tensor& beta, int groups, NormCache& cache,
                            Tensor& y, float eps = 1e-5f);

void groupnorm_backward_into(const Tensor& dy, const Tensor& gamma,
                             int groups, const NormCache& cache,
                             NormGrads& g);

/// One normalization layer of a model: affine parameters, their gradients,
/// the forward cache and the step-persistent output and gradient scratch.
/// forward() and backward() hold the models' only NormMode switch; kNone
/// passes tensors through and owns no parameters (gamma, beta and their
/// gradients stay empty).
struct NormLayer {
  NormLayer() = default;
  /// `groups` must divide `channels` when `mode` is kGroup.
  NormLayer(int channels, NormMode mode, int groups);

  /// The normalized x: `out`, or x itself for kNone. Valid until the next
  /// forward().
  const Tensor& forward(const Tensor& x);
  /// What forward(x) returned, without recomputing it.
  const Tensor& output(const Tensor& x) const {
    return mode == NormMode::kNone ? x : out;
  }
  /// *Adds* into dgamma/dbeta and returns dx: `g.dx`, or dy itself for
  /// kNone. The caller may modify the result in place.
  Tensor& backward(Tensor& dy);

  Tensor gamma, beta, dgamma, dbeta;
  NormCache cache;
  Tensor out;
  NormGrads g;
  NormMode mode = NormMode::kNone;
  int groups = 1;
};

}  // namespace mbs::train
