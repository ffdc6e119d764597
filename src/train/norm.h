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

#include "train/tensor.h"

namespace mbs::train {

enum class NormMode { kNone, kBatch, kGroup };

const char* to_string(NormMode m);

/// Cache produced by a normalization forward pass, consumed by backward.
struct NormCache {
  Tensor x;      ///< forward input
  Tensor xhat;   ///< normalized input
  Tensor mean;   ///< per-statistic mean
  Tensor inv_std;///< 1 / sqrt(var + eps)
};

struct NormGrads {
  Tensor dx;
  Tensor dgamma;
  Tensor dbeta;
};

/// Batch normalization (training mode, batch statistics).
/// x: [N,C,H,W]; gamma/beta: [C]. eps defaults to 1e-5.
Tensor batchnorm_forward(const Tensor& x, const Tensor& gamma,
                         const Tensor& beta, NormCache& cache,
                         float eps = 1e-5f);

NormGrads batchnorm_backward(const Tensor& dy, const Tensor& gamma,
                             const NormCache& cache);

/// Group normalization: statistics over (C/groups, H, W) of each sample.
/// `groups` must divide C.
Tensor groupnorm_forward(const Tensor& x, const Tensor& gamma,
                         const Tensor& beta, int groups, NormCache& cache,
                         float eps = 1e-5f);

NormGrads groupnorm_backward(const Tensor& dy, const Tensor& gamma,
                             int groups, const NormCache& cache);

/// One normalization layer of a model: affine parameters, their gradients
/// and the forward cache. forward() and backward() hold the models' only
/// NormMode switch; kNone passes tensors through and owns no parameters
/// (gamma, beta and their gradients stay empty).
struct NormLayer {
  NormLayer() = default;
  /// `groups` must divide `channels` when `mode` is kGroup.
  NormLayer(int channels, NormMode mode, int groups);

  Tensor forward(const Tensor& x);
  /// Returns dx and *adds* into dgamma/dbeta.
  Tensor backward(const Tensor& dy);

  Tensor gamma, beta, dgamma, dbeta;
  NormCache cache;
  NormMode mode = NormMode::kNone;
  int groups = 1;
};

}  // namespace mbs::train
