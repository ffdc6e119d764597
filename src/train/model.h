// A compact CNN for the Fig. 6 training experiment: stages of
// conv3x3 -> norm -> ReLU -> maxpool, then global average pooling and a
// linear classifier. The normalization mode is selectable (none / BN / GN)
// to reproduce the three curves of Fig. 6.
//
// Gradients accumulate across backward() calls (zero_grad() resets them),
// which is exactly what MBS-serialized execution needs: run several
// sub-batches, accumulate, then apply one optimizer step (Sec. 3 "Data
// Synchronization").
#pragma once

#include <cstdint>
#include <vector>

#include "train/norm.h"
#include "train/ops.h"
#include "train/params.h"
#include "train/tensor.h"

namespace mbs::train {

struct SmallCnnConfig {
  int in_channels = 1;
  int image = 12;           ///< square input size
  int classes = 4;
  std::vector<int> stage_channels = {8, 16};
  NormMode norm = NormMode::kGroup;
  int gn_groups = 4;        ///< must divide every stage channel count
  std::uint64_t seed = 1;
};

class SmallCnn {
 public:
  explicit SmallCnn(const SmallCnnConfig& config);

  /// Runs the network on x [N, C, H, W]; returns logits [N, classes] and
  /// retains the per-layer caches needed by backward().
  Tensor forward(const Tensor& x);

  /// Backpropagates d(loss)/d(logits), *accumulating* parameter gradients.
  void backward(const Tensor& dlogits);

  void zero_grad() { param_list().zero_grads(); }

  /// Parameter and gradient tensors in matching order (for the optimizer
  /// and for gradient-equivalence tests).
  std::vector<Tensor*> parameters() { return param_list().params; }
  std::vector<Tensor*> gradients() { return param_list().grads; }

  /// Mean of the first/last normalization layer's output (pre-activation)
  /// from the most recent forward pass — the quantity Fig. 6 (right) plots.
  /// Falls back to the conv output when norm is disabled.
  double first_preact_mean() const { return first_preact_mean_; }
  double last_preact_mean() const { return last_preact_mean_; }

  const SmallCnnConfig& config() const { return config_; }

 private:
  struct Stage {
    ConvLayer conv;
    NormLayer norm;
    // Forward caches.
    Tensor x_in, conv_out, norm_out, relu_out;
    MaxPoolResult pool;
  };

  ParamList param_list();

  SmallCnnConfig config_;
  std::vector<Stage> stages_;
  Tensor fc_w, fc_b, fc_dw, fc_db;
  Tensor gap_out_;           ///< cache: global-average-pool output
  std::vector<int> gap_in_shape_;
  double first_preact_mean_ = 0;
  double last_preact_mean_ = 0;
};

}  // namespace mbs::train
