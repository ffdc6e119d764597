// A model's trainable tensors as one list of (parameter, gradient) pairs.
//
// Each model builds its list in exactly one place, in a fixed order; the
// optimizer keys its velocity buffers by that order, and parameters(),
// gradients() and zero_grad() all read the same list, so the three can
// never drift apart.
#pragma once

#include <cstdint>
#include <vector>

#include "train/norm.h"
#include "train/ops.h"
#include "train/tensor.h"
#include "util/parallel.h"

namespace mbs::train {

struct ParamList {
  std::vector<Tensor*> params, grads;

  void add(Tensor& p, Tensor& g) {
    params.push_back(&p);
    grads.push_back(&g);
  }
  /// w, then b when the layer has a bias.
  void add(ConvLayer& c) {
    add(c.w, c.dw);
    if (!c.b.empty()) add(c.b, c.db);
  }
  /// w, then b.
  void add(ClassifierHead& h) {
    add(h.w, h.dw);
    add(h.b, h.db);
  }
  /// gamma, beta; nothing for a kNone layer, which owns no parameters.
  void add(NormLayer& n) {
    if (n.gamma.empty()) return;
    add(n.gamma, n.dgamma);
    add(n.beta, n.dbeta);
  }

  /// Zeroes every gradient in at most one pool dispatch, sized by the
  /// mean tensor size (the tensors are disjoint, so the partition is
  /// bit-irrelevant).
  void zero_grads() const {
    const auto count = static_cast<std::int64_t>(grads.size());
    std::int64_t elems = 0;
    for (const Tensor* g : grads) elems += g->size();
    const std::int64_t mean_elems = elems / (count < 1 ? 1 : count);
    util::parallel_for(count, util::work_grain(mean_elems),
                       [&](std::int64_t i0, std::int64_t i1) {
                         for (std::int64_t i = i0; i < i1; ++i)
                           grads[static_cast<std::size_t>(i)]->zero();
                       });
  }
};

}  // namespace mbs::train
