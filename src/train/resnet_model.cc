#include "train/resnet_model.h"

#include <utility>

namespace mbs::train {

SmallResNet::SmallResNet(const SmallResNetConfig& config) : config_(config) {
  util::Rng rng(config.seed);
  const NormMode norm = config.norm;
  const int groups = config.gn_groups;
  stem_ = ConvLayer(rng, config.stem_channels, config.in_channels, 3,
                    /*stride=*/1, /*pad=*/1);
  stem_norm_ = NormLayer(config.stem_channels, norm, groups);

  int c_in = config.stem_channels;
  for (std::size_t s = 0; s < config.stage_channels.size(); ++s) {
    const int c_out = config.stage_channels[s];
    const int stride = s == 0 ? 1 : 2;
    ResBlock b;
    b.conv1 = ConvLayer(rng, c_out, c_in, 3, stride, /*pad=*/1);
    b.norm1 = NormLayer(c_out, norm, groups);
    b.conv2 = ConvLayer(rng, c_out, c_out, 3, /*stride=*/1, /*pad=*/1);
    b.norm2 = NormLayer(c_out, norm, groups);
    if (stride != 1 || c_in != c_out) {
      b.proj = ConvLayer(rng, c_out, c_in, 1, stride, /*pad=*/0);
      b.norm_proj = NormLayer(c_out, norm, groups);
    }
    blocks_.push_back(std::move(b));
    c_in = c_out;
  }

  head_ = ClassifierHead(rng, config.classes, c_in);
}

const Tensor& SmallResNet::forward(const Tensor& x) {
  stem_in_ = x;
  stem_.forward(x, stem_conv_out_);
  relu_forward_into(stem_norm_.forward(stem_conv_out_), stem_relu_out_);

  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    ResBlock& b = blocks_[i];
    const Tensor& in = block_input(i);
    b.conv1.forward(in, b.c1_out);
    relu_forward_into(b.norm1.forward(b.c1_out), b.r1_out);
    b.conv2.forward(b.r1_out, b.c2_out);
    b.add_out = b.norm2.forward(b.c2_out);
    if (!b.proj.w.empty()) {
      b.proj.forward(in, b.proj_out);
      b.add_out.axpy(1.0f, b.norm_proj.forward(b.proj_out));
    } else {
      b.add_out.axpy(1.0f, in);
    }
    relu_forward_into(b.add_out, b.relu_out);
  }
  return head_.forward(block_input(blocks_.size()));
}

void SmallResNet::backward(const Tensor& dlogits) {
  Tensor* d = &head_.backward(dlogits);
  for (std::size_t i = blocks_.size(); i-- > 0;) {
    ResBlock& b = blocks_[i];
    const Tensor& in = block_input(i);
    relu_backward_inplace(*d, b.relu_out);
    // Add backward: the gradient flows unchanged to both branches — the
    // routing MBS exploits (Sec. 3 "Back Propagation").
    b.conv2.backward(b.r1_out, b.norm2.backward(*d), /*need_dx=*/true);
    relu_backward_inplace(b.conv2.g.dx, b.r1_out);
    b.conv1.backward(in, b.norm1.backward(b.conv2.g.dx), /*need_dx=*/true);
    // conv1's data gradient becomes the block input's gradient in place.
    Tensor& d_in = b.conv1.g.dx;
    if (!b.proj.w.empty()) {
      b.proj.backward(in, b.norm_proj.backward(*d), /*need_dx=*/true);
      d_in.axpy(1.0f, b.proj.g.dx);
    } else {
      d_in.axpy(1.0f, *d);
    }
    d = &d_in;
  }

  relu_backward_inplace(*d, stem_relu_out_);
  stem_.backward(stem_in_, stem_norm_.backward(*d), /*need_dx=*/false);
}

ParamList SmallResNet::param_list() {
  ParamList l;
  l.add(stem_);
  l.add(stem_norm_);
  for (ResBlock& b : blocks_) {
    l.add(b.conv1);
    l.add(b.norm1);
    l.add(b.conv2);
    l.add(b.norm2);
    if (!b.proj.w.empty()) {
      l.add(b.proj);
      l.add(b.norm_proj);
    }
  }
  l.add(head_);
  return l;
}

}  // namespace mbs::train
