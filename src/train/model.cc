#include "train/model.h"

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
  head_ = ClassifierHead(rng, config.classes, config.stage_channels.back());
}

const Tensor& SmallCnn::forward(const Tensor& x) {
  in_ = x;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    Stage& s = stages_[i];
    s.conv.forward(stage_input(i), s.conv_out);
    relu_forward_into(s.norm.forward(s.conv_out), s.relu_out);
    maxpool_forward_into(s.relu_out, /*kernel=*/2, /*stride=*/2, s.pool,
                         s.pool_out);
  }
  return head_.forward(stages_.back().pool_out);
}

void SmallCnn::backward(const Tensor& dlogits) {
  const Tensor* d = &head_.backward(dlogits);
  for (std::size_t i = stages_.size(); i-- > 0;) {
    Stage& s = stages_[i];
    maxpool_backward_into(*d, s.pool, s.pool_dx);
    relu_backward_inplace(s.pool_dx, s.relu_out);
    s.conv.backward(stage_input(i), s.norm.backward(s.pool_dx),
                    /*need_dx=*/i > 0);
    d = &s.conv.g.dx;
  }
}

double SmallCnn::first_preact_mean() const {
  return preact_mean(stages_.front());
}

double SmallCnn::last_preact_mean() const {
  return preact_mean(stages_.back());
}

std::int64_t SmallCnn::pool_index_bytes() const {
  std::int64_t bytes = 0;
  for (const Stage& s : stages_)
    bytes += static_cast<std::int64_t>(s.pool.argmax.size() *
                                       sizeof(s.pool.argmax[0]));
  return bytes;
}

ParamList SmallCnn::param_list() {
  ParamList l;
  for (Stage& s : stages_) {
    l.add(s.conv);
    l.add(s.norm);
  }
  l.add(head_);
  return l;
}

}  // namespace mbs::train
