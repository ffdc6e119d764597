#include "train/transformer_model.h"

#include <cassert>
#include <cmath>
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
  fc_w = Tensor::randn({config.classes, d}, rng, std::sqrt(2.0 / d));
  fc_b = Tensor({config.classes});
  fc_dw = Tensor(fc_w.shape());
  fc_db = Tensor({config.classes});
}

Tensor TinyTransformer::forward(const Tensor& x) {
  assert(x.ndim() == 4 && x.dim(1) == config_.in_channels &&
         x.dim(2) == config_.seq && x.dim(3) == 1);
  embed_in_ = x;
  embed_.forward(x, embed_out_);

  const Tensor* cur = &embed_out_;
  for (Block& b : blocks_) {
    b.n1_out = b.norm1.forward(*cur);
    b.qkv.forward(b.n1_out, b.qkv_out);
    b.attn_out = attention_forward(b.qkv_out, config_.heads, b.attn);
    b.proj.forward(b.attn_out, b.add1);
    b.add1.axpy(1.0f, *cur);

    b.n2_out = b.norm2.forward(b.add1);
    b.fc1.forward(b.n2_out, b.f1_out);
    relu_forward_into(b.f1_out, b.relu_out);
    b.fc2.forward(b.relu_out, b.out);
    b.out.axpy(1.0f, b.add1);
    cur = &b.out;
  }

  gap_in_shape_ = cur->shape();
  gap_out_ = global_avg_pool_forward(*cur);
  return linear_forward(gap_out_, fc_w, fc_b);
}

void TinyTransformer::backward(const Tensor& dlogits) {
  LinearGrads lg = linear_backward(gap_out_, fc_w, dlogits);
  fc_dw.axpy(1.0f, lg.dw);
  fc_db.axpy(1.0f, lg.dbias);
  Tensor d = global_avg_pool_backward(lg.dx, gap_in_shape_);

  for (std::size_t i = blocks_.size(); i-- > 0;) {
    Block& b = blocks_[i];
    // MLP residual: the incoming gradient feeds both the branch and the
    // skip path (which continues as the gradient at add1).
    b.fc2.backward(b.relu_out, d, /*need_dx=*/true);
    relu_backward_inplace(b.fc2.g.dx, b.relu_out);
    b.fc1.backward(b.n2_out, b.fc2.g.dx, /*need_dx=*/true);
    Tensor d_add1 = b.norm2.backward(b.fc1.g.dx);
    d_add1.axpy(1.0f, d);

    // Attention residual, mirrored: proj -> attention -> qkv -> norm.
    b.proj.backward(b.attn_out, d_add1, /*need_dx=*/true);
    const Tensor d_qkv =
        attention_backward(b.proj.g.dx, b.qkv_out, config_.heads, b.attn);
    b.qkv.backward(b.n1_out, d_qkv, /*need_dx=*/true);
    d = b.norm1.backward(b.qkv.g.dx);
    d.axpy(1.0f, d_add1);
  }

  embed_.backward(embed_in_, d, /*need_dx=*/false);
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
  l.add(fc_w, fc_dw);
  l.add(fc_b, fc_db);
  return l;
}

}  // namespace mbs::train
