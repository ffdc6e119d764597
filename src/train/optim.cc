#include "train/optim.h"

#include <cassert>

#include "util/parallel.h"

namespace mbs::train {

void Sgd::step(const std::vector<Tensor*>& params,
               const std::vector<Tensor*>& grads) {
  assert(params.size() == grads.size());
  util::ScopedKernelTimer timer(util::KernelKind::kSgd);
  if (velocity_.empty())
    for (Tensor* p : params) velocity_.push_back(Tensor(p->shape()));
  assert(velocity_.size() == params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    Tensor& p = *params[i];
    const Tensor& g = *grads[i];
    Tensor& v = velocity_[i];
    assert(p.size() == g.size() && p.size() == v.size());
    const float mu = static_cast<float>(config_.momentum);
    const float wd = static_cast<float>(config_.weight_decay);
    const float lr = static_cast<float>(config_.lr);
    // Elementwise update: any range partition is bit-identical.
    util::parallel_for(p.size(), util::work_grain(1),
                       [&](std::int64_t j0, std::int64_t j1) {
                         for (std::int64_t j = j0; j < j1; ++j) {
                           v[j] = mu * v[j] + g[j] + wd * p[j];
                           p[j] -= lr * v[j];
                         }
                       });
  }
}

}  // namespace mbs::train
