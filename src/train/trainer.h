// Training loops: conventional full-mini-batch steps and MBS-serialized
// steps (sub-batches with gradient accumulation and one parameter update
// per mini-batch — Sec. 3's synchronization contract).
//
// compute_gradients and train_step are the one accumulation loop for every
// model (SmallCnn, SmallResNet, TinyTransformer): anything with forward(),
// backward(), zero_grad(), parameters() and gradients(). evaluate and
// train_model drive SmallCnn's Fig. 6 runs.
#pragma once

#include <cassert>
#include <span>
#include <vector>

#include "train/data.h"
#include "train/loss.h"
#include "train/model.h"
#include "train/optim.h"

namespace mbs::train {

struct StepMetrics {
  double loss = 0;      ///< mean loss over the mini-batch
  double accuracy = 0;  ///< top-1 accuracy over the mini-batch
};

/// Computes gradients only (no optimizer step): forward+backward over the
/// chunk partition, accumulating gradients scaled by 1 / mini-batch so the
/// sum equals the full-batch mean-loss gradient regardless of the
/// chunking. Pass {N} for conventional (unserialized) execution.
template <class Model>
StepMetrics compute_gradients(Model& model, const Tensor& x,
                              const std::vector<int>& labels,
                              const std::vector<int>& chunks) {
  // The chunk and its loss live across steps, like the models' own
  // buffers, so a steady-state step allocates nothing here either. One set
  // per thread: sweep workers may train models concurrently.
  struct ChunkStorage {
    Tensor x;
    LossResult loss;
  };
  static thread_local ChunkStorage chunk;
  const int n = x.dim(0);
  model.zero_grad();
  StepMetrics m;
  int offset = 0;
  for (int c : chunks) {
    assert(c > 0 && offset + c <= n);
    x.slice_batch_into(offset, c, chunk.x);
    const Tensor& logits = model.forward(chunk.x);
    LossResult& lr = chunk.loss;
    softmax_cross_entropy_into(
        logits, std::span<const int>(labels).subspan(offset, c), lr);
    lr.dlogits.scale(1.0f / static_cast<float>(n));
    model.backward(lr.dlogits);
    m.loss += lr.loss_sum;
    m.accuracy += lr.correct;
    offset += c;
  }
  assert(offset == n);
  m.loss /= n;
  m.accuracy /= n;
  return m;
}

/// One optimizer step over (x, labels): compute_gradients, then exactly
/// one parameter update after all chunks — MBS keeps the original
/// mini-batch synchronization points.
template <class Model>
StepMetrics train_step(Model& model, Sgd& opt, const Tensor& x,
                       const std::vector<int>& labels,
                       const std::vector<int>& chunks) {
  const StepMetrics m = compute_gradients(model, x, labels, chunks);
  opt.step(model.parameters(), model.gradients());
  return m;
}

struct EvalMetrics {
  double loss = 0;
  double error = 0;  ///< top-1 error rate in [0, 1]
};

EvalMetrics evaluate(SmallCnn& model, const Dataset& data, int batch = 64);

/// One epoch record for the Fig. 6 curves.
struct EpochLog {
  int epoch = 0;
  double train_loss = 0;
  double val_error = 0;         ///< percent
  double first_preact_mean = 0; ///< Fig. 6 right: first norm layer
  double last_preact_mean = 0;  ///< Fig. 6 right: last norm layer
};

struct TrainRunConfig {
  int epochs = 12;
  int batch = 32;
  SgdConfig sgd;
  /// Sub-batch chunk sizes per step; empty = unserialized.
  std::vector<int> chunks;
  /// Epochs at which the learning rate decays by `lr_decay`.
  std::vector<int> lr_decay_epochs;
  double lr_decay = 0.1;
  std::uint64_t shuffle_seed = 7;
};

/// Trains `model` on `train_set`, evaluating on `val_set` after each epoch.
std::vector<EpochLog> train_model(SmallCnn& model, const Dataset& train_set,
                                  const Dataset& val_set,
                                  const TrainRunConfig& config);

}  // namespace mbs::train
