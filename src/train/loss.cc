#include "train/loss.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mbs::train {

LossResult softmax_cross_entropy(const Tensor& logits,
                                 const std::vector<int>& labels) {
  LossResult r;
  softmax_cross_entropy_into(logits, labels, r);
  return r;
}

void softmax_cross_entropy_into(const Tensor& logits,
                                std::span<const int> labels, LossResult& r) {
  const int n = logits.dim(0);
  const int k = logits.dim(1);
  assert(static_cast<int>(labels.size()) == n);
  r.loss_sum = 0;
  r.correct = 0;
  r.dlogits.ensure_shape(logits.shape());  // every element is written below
  for (int b = 0; b < n; ++b) {
    const float* row = logits.data() + static_cast<std::int64_t>(b) * k;
    float mx = row[0];
    int arg = 0;
    for (int c = 1; c < k; ++c)
      if (row[c] > mx) {
        mx = row[c];
        arg = c;
      }
    double z = 0;
    for (int c = 0; c < k; ++c) z += std::exp(static_cast<double>(row[c] - mx));
    const int label = labels[static_cast<std::size_t>(b)];
    assert(label >= 0 && label < k);
    const double logp =
        static_cast<double>(row[label] - mx) - std::log(z);
    r.loss_sum += -logp;
    if (arg == label) ++r.correct;
    for (int c = 0; c < k; ++c) {
      const double p = std::exp(static_cast<double>(row[c] - mx)) / z;
      r.dlogits[static_cast<std::int64_t>(b) * k + c] =
          static_cast<float>(p - (c == label ? 1.0 : 0.0));
    }
  }
}

}  // namespace mbs::train
