#include "train/resnet_model.h"

#include <cmath>
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

  fc_w = Tensor::randn({config.classes, c_in}, rng, std::sqrt(2.0 / c_in));
  fc_b = Tensor({config.classes});
  fc_dw = Tensor(fc_w.shape());
  fc_db = Tensor({config.classes});
}

Tensor SmallResNet::forward(const Tensor& x) {
  stem_in_ = x;
  stem_.forward(x, stem_conv_out_);
  stem_norm_out_ = stem_norm_.forward(stem_conv_out_);
  relu_forward_into(stem_norm_out_, stem_relu_out_);

  Tensor cur = stem_relu_out_;
  for (ResBlock& b : blocks_) {
    b.x_in = cur;
    b.conv1.forward(cur, b.c1_out);
    b.n1_out = b.norm1.forward(b.c1_out);
    relu_forward_into(b.n1_out, b.r1_out);
    b.conv2.forward(b.r1_out, b.c2_out);
    b.n2_out = b.norm2.forward(b.c2_out);
    if (!b.proj.w.empty()) {
      b.proj.forward(cur, b.proj_out);
      b.shortcut_out = b.norm_proj.forward(b.proj_out);
    } else {
      b.shortcut_out = cur;
    }
    b.add_out = b.n2_out;
    b.add_out.axpy(1.0f, b.shortcut_out);
    relu_forward_into(b.add_out, b.relu_out);
    cur = b.relu_out;
  }

  gap_in_shape_ = cur.shape();
  gap_out_ = global_avg_pool_forward(cur);
  return linear_forward(gap_out_, fc_w, fc_b);
}

void SmallResNet::backward(const Tensor& dlogits) {
  LinearGrads lg = linear_backward(gap_out_, fc_w, dlogits);
  fc_dw.axpy(1.0f, lg.dw);
  fc_db.axpy(1.0f, lg.dbias);
  Tensor d = global_avg_pool_backward(lg.dx, gap_in_shape_);

  for (std::size_t i = blocks_.size(); i-- > 0;) {
    ResBlock& b = blocks_[i];
    relu_backward_inplace(d, b.relu_out);
    // Add backward: the gradient flows unchanged to both branches — the
    // routing MBS exploits (Sec. 3 "Back Propagation").
    Tensor d_main = b.norm2.backward(d);
    b.conv2.backward(b.r1_out, d_main, /*need_dx=*/true);
    // Swap rather than copy: d_main's old buffer (conv2's dy, same size
    // as its dx) circulates into the scratch, keeping the step
    // allocation-free; the in-place mask equals relu_backward exactly.
    std::swap(d_main, b.conv2.g.dx);
    relu_backward_inplace(d_main, b.r1_out);
    d_main = b.norm1.backward(d_main);
    b.conv1.backward(b.x_in, d_main, /*need_dx=*/true);

    // Copy rather than move or swap: moving would leave the scratch
    // empty, and swapping would hand it d_main's buffer, which for
    // stride-2 blocks is half dx's size — the scratch would then regrow
    // inside the conv path every step. The copy itself allocates outside
    // the kernel timers (and only until d_in's capacity stabilizes).
    Tensor d_in = b.conv1.g.dx;
    if (!b.proj.w.empty()) {
      const Tensor d_short = b.norm_proj.backward(d);
      b.proj.backward(b.x_in, d_short, /*need_dx=*/true);
      d_in.axpy(1.0f, b.proj.g.dx);
    } else {
      d_in.axpy(1.0f, d);
    }
    d = std::move(d_in);
  }

  relu_backward_inplace(d, stem_relu_out_);
  d = stem_norm_.backward(d);
  stem_.backward(stem_in_, d, /*need_dx=*/false);
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
  l.add(fc_w, fc_dw);
  l.add(fc_b, fc_db);
  return l;
}

}  // namespace mbs::train
