// A small residual CNN for the training substrate.
//
// The paper's Fig. 6 experiment trains ResNet50; this is its laptop-scale
// analogue with real multi-branch (residual) topology, so the
// serialization-equivalence property is exercised on the same structural
// features MBS2's inter-branch reuse targets: shared block inputs, identity
// and projection shortcuts, and merge Adds.
#pragma once

#include <cstdint>
#include <vector>

#include "train/norm.h"
#include "train/ops.h"
#include "train/params.h"
#include "train/tensor.h"

namespace mbs::train {

struct SmallResNetConfig {
  int in_channels = 1;
  int image = 12;
  int classes = 4;
  int stem_channels = 8;
  /// One residual block per stage; stages beyond the first stride by 2 and
  /// project the shortcut.
  std::vector<int> stage_channels = {8, 16};
  NormMode norm = NormMode::kGroup;
  int gn_groups = 4;
  std::uint64_t seed = 1;
};

/// conv3x3 -> norm -> ReLU -> conv3x3 -> norm, plus identity or projected
/// shortcut, merged by Add then ReLU (a basic-block ResNet).
class SmallResNet {
 public:
  explicit SmallResNet(const SmallResNetConfig& config);

  /// Forward to logits [N, classes] (valid until the next forward);
  /// retains caches for backward().
  const Tensor& forward(const Tensor& x);

  /// Accumulates parameter gradients (zero_grad() resets).
  void backward(const Tensor& dlogits);

  void zero_grad() { param_list().zero_grads(); }
  std::vector<Tensor*> parameters() { return param_list().params; }
  std::vector<Tensor*> gradients() { return param_list().grads; }

  const SmallResNetConfig& config() const { return config_; }

 private:
  struct ResBlock {
    ConvLayer conv1, conv2, proj;  ///< proj.w empty for identity shortcut
    NormLayer norm1, norm2, norm_proj;
    // Forward caches; the block input is the previous block's relu_out.
    Tensor c1_out, r1_out, c2_out, proj_out, add_out, relu_out;
  };

  ParamList param_list();
  /// Input of block i; i == blocks_.size() gives the last block's output.
  const Tensor& block_input(std::size_t i) const {
    return i == 0 ? stem_relu_out_ : blocks_[i - 1].relu_out;
  }

  SmallResNetConfig config_;
  ConvLayer stem_;
  NormLayer stem_norm_;
  Tensor stem_in_, stem_conv_out_, stem_relu_out_;
  std::vector<ResBlock> blocks_;
  ClassifierHead head_;
};

}  // namespace mbs::train
