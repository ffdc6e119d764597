#include "train/model.h"

#include <cmath>
#include <utility>

namespace mbs::train {

SmallCnn::SmallCnn(const SmallCnnConfig& config) : config_(config) {
  util::Rng rng(config.seed);
  int c_in = config.in_channels;
  for (int c_out : config.stage_channels) {
    Stage s;
    s.conv = ConvLayer(rng, c_out, c_in, 3, /*stride=*/1, /*pad=*/1,
                       /*bias=*/true);
    s.norm = NormLayer(c_out, config.norm, config.gn_groups);
    stages_.push_back(std::move(s));
    c_in = c_out;
  }
  const int feat = config.stage_channels.back();
  fc_w = Tensor::randn({config.classes, feat}, rng, std::sqrt(2.0 / feat));
  fc_b = Tensor({config.classes});
  fc_dw = Tensor(fc_w.shape());
  fc_db = Tensor({config.classes});
}

Tensor SmallCnn::forward(const Tensor& x) {
  Tensor cur = x;
  for (std::size_t si = 0; si < stages_.size(); ++si) {
    Stage& s = stages_[si];
    s.x_in = cur;
    s.conv.forward(cur, s.conv_out);
    s.norm_out = s.norm.forward(s.conv_out);
    if (si == 0) first_preact_mean_ = s.norm_out.mean();
    if (si + 1 == stages_.size()) last_preact_mean_ = s.norm_out.mean();
    relu_forward_into(s.norm_out, s.relu_out);
    s.pool = maxpool_forward(s.relu_out, /*kernel=*/2, /*stride=*/2);
    cur = s.pool.y;
  }
  gap_in_shape_ = cur.shape();
  gap_out_ = global_avg_pool_forward(cur);
  return linear_forward(gap_out_, fc_w, fc_b);
}

void SmallCnn::backward(const Tensor& dlogits) {
  LinearGrads lg = linear_backward(gap_out_, fc_w, dlogits);
  fc_dw.axpy(1.0f, lg.dw);
  fc_db.axpy(1.0f, lg.dbias);
  Tensor d = global_avg_pool_backward(lg.dx, gap_in_shape_);

  for (std::size_t i = stages_.size(); i-- > 0;) {
    Stage& s = stages_[i];
    d = maxpool_backward(d, s.pool, s.relu_out.shape());
    relu_backward_inplace(d, s.relu_out);
    d = s.norm.backward(d);
    s.conv.backward(s.x_in, d, /*need_dx=*/i > 0);
    // Swap rather than move: the scratch keeps a buffer (the old d) whose
    // capacity it reuses next step, so the backward stays allocation-free.
    if (i > 0) std::swap(d, s.conv.g.dx);
  }
}

ParamList SmallCnn::param_list() {
  ParamList l;
  for (Stage& s : stages_) {
    l.add(s.conv);
    l.add(s.norm);
  }
  l.add(fc_w, fc_dw);
  l.add(fc_b, fc_db);
  return l;
}

}  // namespace mbs::train
