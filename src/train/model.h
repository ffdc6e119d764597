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

  /// Runs the network on x [N, C, H, W]; returns logits [N, classes]
  /// (valid until the next forward) and retains the per-layer caches
  /// needed by backward().
  const Tensor& forward(const Tensor& x);

  /// Backpropagates d(loss)/d(logits), *accumulating* parameter gradients.
  void backward(const Tensor& dlogits);

  void zero_grad() { param_list().zero_grads(); }

  /// Parameter and gradient tensors in matching order (for the optimizer
  /// and for gradient-equivalence tests).
  std::vector<Tensor*> parameters() { return param_list().params; }
  std::vector<Tensor*> gradients() { return param_list().grads; }

  /// Mean of the first/last normalization layer's output (pre-activation)
  /// from the most recent forward pass — the quantity Fig. 6 (right) plots.
  /// Falls back to the conv output when norm is disabled. Computed on
  /// demand from the retained output, so forward() pays nothing for it.
  double first_preact_mean() const;
  double last_preact_mean() const;

  /// Bytes of max-pool indices the last forward stashed for backward: one
  /// byte per pooled output element, the paper's 1-byte pool index.
  std::int64_t pool_index_bytes() const;

  const SmallCnnConfig& config() const { return config_; }

 private:
  struct Stage {
    ConvLayer conv;
    NormLayer norm;
    // Forward caches; the stage input is the previous stage's pool_out.
    Tensor conv_out, relu_out, pool_out;
    MaxPoolCache pool;
    Tensor pool_dx;  ///< backward scratch
  };

  ParamList param_list();
  const Tensor& stage_input(std::size_t i) const {
    return i == 0 ? in_ : stages_[i - 1].pool_out;
  }
  static double preact_mean(const Stage& s) {
    return s.norm.output(s.conv_out).mean();
  }

  SmallCnnConfig config_;
  std::vector<Stage> stages_;
  ClassifierHead head_;
  Tensor in_;  ///< copy of the last forward's input
};

}  // namespace mbs::train
