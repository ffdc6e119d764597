#include "train/trainer.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "train/loss.h"
#include "util/parallel.h"

namespace mbs::train {

EvalMetrics evaluate(SmallCnn& model, const Dataset& data, int batch) {
  EvalMetrics e;
  const int n = data.size();
  int correct = 0;
  for (int off = 0; off < n; off += batch) {
    const int c = std::min(batch, n - off);
    const Tensor xc = data.images.slice_batch(off, c);
    const std::vector<int> yc(data.labels.begin() + off,
                              data.labels.begin() + off + c);
    const Tensor& logits = model.forward(xc);
    const LossResult lr = softmax_cross_entropy(logits, yc);
    e.loss += lr.loss_sum;
    correct += lr.correct;
  }
  e.loss /= n;
  e.error = 1.0 - static_cast<double>(correct) / n;
  return e;
}

std::vector<EpochLog> train_model(SmallCnn& model, const Dataset& train_set,
                                  const Dataset& val_set,
                                  const TrainRunConfig& config) {
  util::Rng rng(config.shuffle_seed);
  Sgd opt(config.sgd);
  const int n = train_set.size();
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);

  std::vector<EpochLog> logs;
  // The gathered mini-batch is the same shape every step; keep one buffer
  // for the whole run instead of allocating per step (the same
  // step-persistent storage discipline as the kernel layer's ConvCache
  // and gradient scratch).
  Tensor x;
  std::vector<int> labels(static_cast<std::size_t>(config.batch));
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    if (std::find(config.lr_decay_epochs.begin(), config.lr_decay_epochs.end(),
                  epoch) != config.lr_decay_epochs.end())
      opt.set_lr(opt.lr() * config.lr_decay);

    // Fisher-Yates shuffle with the deterministic RNG so BN and GN+MBS runs
    // see identical sample orderings.
    for (int i = n - 1; i > 0; --i) {
      const int j = static_cast<int>(rng.uniform_int(
          static_cast<std::uint64_t>(i) + 1));
      std::swap(order[static_cast<std::size_t>(i)],
                order[static_cast<std::size_t>(j)]);
    }

    EpochLog log;
    log.epoch = epoch;
    int steps = 0;
    for (int off = 0; off + config.batch <= n; off += config.batch) {
      // Gather the shuffled mini-batch (pure per-sample copies, so the
      // pool partition is bit-irrelevant). Every element is overwritten,
      // so reusing the buffer is value-identical to a fresh tensor.
      x.ensure_shape({config.batch, train_set.images.dim(1),
                      train_set.images.dim(2), train_set.images.dim(3)});
      const std::int64_t per = train_set.images.size() / n;
      util::parallel_for(config.batch, util::work_grain(per),
                         [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          const int src = order[static_cast<std::size_t>(off + i)];
          std::memcpy(x.data() + i * per,
                      train_set.images.data() + src * per,
                      static_cast<std::size_t>(per) * sizeof(float));
          labels[static_cast<std::size_t>(i)] =
              train_set.labels[static_cast<std::size_t>(src)];
        }
      });
      const std::vector<int> chunks =
          config.chunks.empty() ? std::vector<int>{config.batch}
                                : config.chunks;
      const StepMetrics m = train_step(model, opt, x, labels, chunks);
      log.train_loss += m.loss;
      ++steps;
    }
    log.train_loss /= std::max(1, steps);
    log.first_preact_mean = model.first_preact_mean();
    log.last_preact_mean = model.last_preact_mean();
    const EvalMetrics ev = evaluate(model, val_set);
    log.val_error = 100.0 * ev.error;
    logs.push_back(log);
  }
  return logs;
}

}  // namespace mbs::train
