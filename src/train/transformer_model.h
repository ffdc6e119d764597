// A tiny pre-norm transformer for the training substrate.
//
// The laptop-scale analogue of the model zoo's transformer family, built
// from the same functional ops the CNN models use: every projection is a
// 1x1 convolution over the token axis (exactly the GEMM the zoo's qkv /
// proj / MLP layers model), the mixing step is real softmax attention
// (train/attention.h), and normalization is selectable none / BN / GN.
//
// Its purpose is the transformer leg of the GN+MBS gradient-equivalence
// story: attention is sample-local (each token attends within its own
// sample) and GN is sample-local, so serializing the mini-batch into
// sub-batches with gradient accumulation reproduces full-batch gradients
// to float32 precision — while BN, whose statistics span the mini-batch,
// diverges. tests/train_test.cc asserts both halves.
//
// Token activations are [N, d_model, S, 1]: channels-major with the
// sequence along H, matching both the attention op's layout and the
// conv-as-token-projection trick.
#pragma once

#include <cstdint>
#include <vector>

#include "train/attention.h"
#include "train/norm.h"
#include "train/ops.h"
#include "train/params.h"
#include "train/tensor.h"

namespace mbs::train {

struct TinyTransformerConfig {
  int in_channels = 3;  ///< raw per-token input channels (embedded by 1x1)
  int seq = 9;          ///< tokens per sample
  int d_model = 16;
  int heads = 2;        ///< must divide d_model
  int depth = 2;        ///< transformer blocks
  int mlp_ratio = 2;    ///< MLP hidden = mlp_ratio * d_model
  int classes = 4;
  NormMode norm = NormMode::kGroup;
  int gn_groups = 4;    ///< must divide d_model and mlp_ratio * d_model
  std::uint64_t seed = 1;
};

/// Pre-norm blocks: x + proj(attn(qkv(norm(x)))) then
/// x + fc2(relu(fc1(norm(x)))); mean-pooled tokens feed a linear
/// classifier. Gradients accumulate across backward() calls (zero_grad()
/// resets) — the MBS synchronization contract.
class TinyTransformer {
 public:
  explicit TinyTransformer(const TinyTransformerConfig& config);

  /// Forward on x [N, in_channels, S, 1]; returns logits [N, classes]
  /// (valid until the next forward) and retains per-layer caches for
  /// backward().
  const Tensor& forward(const Tensor& x);

  /// Backpropagates d(loss)/d(logits), accumulating parameter gradients.
  void backward(const Tensor& dlogits);

  void zero_grad() { param_list().zero_grads(); }
  std::vector<Tensor*> parameters() { return param_list().params; }
  std::vector<Tensor*> gradients() { return param_list().grads; }

  const TinyTransformerConfig& config() const { return config_; }

 private:
  struct Block {
    NormLayer norm1, norm2;
    ConvLayer qkv, proj, fc1, fc2;  ///< 1x1 token projections
    AttentionCache attn;
    // Forward caches; `out` is the block output, and the block input is
    // the previous block's `out`.
    Tensor qkv_out, attn_out, add1, f1_out, relu_out, out;
    Tensor d_qkv;  ///< backward scratch
  };

  ParamList param_list();
  /// Input of block i; i == blocks_.size() gives the last block's output.
  const Tensor& block_input(std::size_t i) const {
    return i == 0 ? embed_out_ : blocks_[i - 1].out;
  }

  TinyTransformerConfig config_;
  ConvLayer embed_;
  Tensor embed_in_, embed_out_;
  std::vector<Block> blocks_;
  ClassifierHead head_;
};

}  // namespace mbs::train
