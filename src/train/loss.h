// Softmax cross-entropy loss.
#pragma once

#include <span>
#include <vector>

#include "train/tensor.h"

namespace mbs::train {

struct LossResult {
  double loss_sum = 0;   ///< summed (not averaged) over the batch
  Tensor dlogits;        ///< d(loss_sum)/d(logits)
  int correct = 0;       ///< top-1 correct predictions
};

/// Softmax cross-entropy over logits [N, classes]. Returns the *sum* of the
/// per-sample losses and its gradient, so MBS-style sub-batch accumulation
/// can divide by the full mini-batch size once (Sec. 3 "Data
/// Synchronization": all synchronization points stay at mini-batch scope).
LossResult softmax_cross_entropy(const Tensor& logits,
                                 const std::vector<int>& labels);

/// As softmax_cross_entropy, into `out`, reusing its dlogits buffer: the
/// form the training loop calls once per chunk.
void softmax_cross_entropy_into(const Tensor& logits,
                                std::span<const int> labels, LossResult& out);

}  // namespace mbs::train
