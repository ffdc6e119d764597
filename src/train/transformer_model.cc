#include "train/transformer_model.h"

#include <cassert>
#include <utility>

namespace mbs::train {

TinyTransformer::TinyTransformer(const TinyTransformerConfig& config)
    : config_(config) {
  assert(config.heads > 0 && config.d_model % config.heads == 0);
  assert(config.d_model % config.gn_groups == 0);
  util::Rng rng(config.seed);
  // Every projection is a 1x1 conv over the token axis: a per-token linear
  // map, He-initialized on the channel fan-in.
  auto token_proj = [&](int co, int ci) {
    return ConvLayer(rng, co, ci, 1, /*stride=*/1, /*pad=*/0);
  };
  const int d = config.d_model;
  const int m = config.mlp_ratio * d;
  embed_ = token_proj(d, config.in_channels);
  for (int i = 0; i < config.depth; ++i) {
    Block b;
    b.norm1 = NormLayer(d, config.norm, config.gn_groups);
    b.qkv = token_proj(3 * d, d);
    b.proj = token_proj(d, d);
    b.norm2 = NormLayer(d, config.norm, config.gn_groups);
    b.fc1 = token_proj(m, d);
    b.fc2 = token_proj(d, m);
    blocks_.push_back(std::move(b));
  }
  head_ = ClassifierHead(rng, config.classes, d);
}

const Tensor& TinyTransformer::forward(const Tensor& x) {
  assert(x.ndim() == 4 && x.dim(1) == config_.in_channels &&
         x.dim(2) == config_.seq && x.dim(3) == 1);
  embed_in_ = x;
  embed_.forward(x, embed_out_);

  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    Block& b = blocks_[i];
    const Tensor& in = block_input(i);
    b.qkv.forward(b.norm1.forward(in), b.qkv_out);
    attention_forward_into(b.qkv_out, config_.heads, b.attn, b.attn_out);
    b.proj.forward(b.attn_out, b.add1);
    b.add1.axpy(1.0f, in);

    b.fc1.forward(b.norm2.forward(b.add1), b.f1_out);
    relu_forward_into(b.f1_out, b.relu_out);
    b.fc2.forward(b.relu_out, b.out);
    b.out.axpy(1.0f, b.add1);
  }
  return head_.forward(block_input(blocks_.size()));
}

void TinyTransformer::backward(const Tensor& dlogits) {
  const Tensor* d = &head_.backward(dlogits);
  for (std::size_t i = blocks_.size(); i-- > 0;) {
    Block& b = blocks_[i];
    // MLP residual: the incoming gradient feeds both the branch and the
    // skip path (which continues as the gradient at add1).
    b.fc2.backward(b.relu_out, *d, /*need_dx=*/true);
    relu_backward_inplace(b.fc2.g.dx, b.relu_out);
    b.fc1.backward(b.norm2.output(b.add1), b.fc2.g.dx, /*need_dx=*/true);
    Tensor& d_add1 = b.norm2.backward(b.fc1.g.dx);
    d_add1.axpy(1.0f, *d);

    // Attention residual, mirrored: proj -> attention -> qkv -> norm.
    b.proj.backward(b.attn_out, d_add1, /*need_dx=*/true);
    attention_backward_into(b.proj.g.dx, b.qkv_out, config_.heads, b.attn,
                            b.d_qkv);
    b.qkv.backward(b.norm1.output(block_input(i)), b.d_qkv, /*need_dx=*/true);
    Tensor& d_in = b.norm1.backward(b.qkv.g.dx);
    d_in.axpy(1.0f, d_add1);
    d = &d_in;
  }

  embed_.backward(embed_in_, *d, /*need_dx=*/false);
}

ParamList TinyTransformer::param_list() {
  ParamList l;
  l.add(embed_);
  for (Block& b : blocks_) {
    l.add(b.norm1);
    l.add(b.qkv);
    l.add(b.proj);
    l.add(b.norm2);
    l.add(b.fc1);
    l.add(b.fc2);
  }
  l.add(head_);
  return l;
}

}  // namespace mbs::train
