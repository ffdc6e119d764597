// Tests for the residual training substrate: gradient correctness via
// finite differences, and the serialization-equivalence property on a real
// multi-branch topology (shared block inputs, projection shortcuts, merge
// Adds — the structures MBS2's inter-branch reuse targets).
#include <gtest/gtest.h>

#include <cmath>

#include "train/data.h"
#include "train/loss.h"
#include "train/resnet_model.h"
#include "train/trainer.h"

namespace mbs::train {
namespace {

double loss_of(SmallResNet& model, const Tensor& x,
               const std::vector<int>& labels) {
  const Tensor logits = model.forward(x);
  return softmax_cross_entropy(logits, labels).loss_sum;
}

void run_backward(SmallResNet& model, const Tensor& x,
                  const std::vector<int>& labels) {
  const Tensor logits = model.forward(x);
  const LossResult lr = softmax_cross_entropy(logits, labels);
  model.zero_grad();
  model.backward(lr.dlogits);
}

TEST(SmallResNet, ForwardShapeAndDeterminism) {
  SmallResNetConfig cfg;
  cfg.seed = 3;
  SmallResNet a(cfg), b(cfg);
  const Dataset data = make_synthetic_dataset(6, 4, 1, 12, 5);
  const Tensor la = a.forward(data.images);
  const Tensor lb = b.forward(data.images);
  EXPECT_EQ(la.shape(), (std::vector<int>{6, 4}));
  for (std::int64_t i = 0; i < la.size(); ++i) EXPECT_EQ(la[i], lb[i]);
}

TEST(SmallResNet, GradCheckAllParameters) {
  // Finite-difference check of every parameter tensor (sampled coordinates)
  // through the full residual network.
  SmallResNetConfig cfg;
  cfg.image = 8;
  cfg.stem_channels = 4;
  cfg.stage_channels = {4, 8};
  cfg.gn_groups = 2;
  cfg.seed = 17;
  SmallResNet model(cfg);
  const Dataset data = make_synthetic_dataset(4, 4, 1, 8, 23);

  run_backward(model, data.images, data.labels);
  const auto params = model.parameters();
  // Copy analytic gradients before the finite-difference perturbations.
  std::vector<Tensor> analytic;
  for (Tensor* g : model.gradients()) analytic.push_back(*g);

  util::Rng rng(29);
  // Small step: a large eps makes central differences cross ReLU kinks,
  // where the loss is only subdifferentiable and FD slopes are meaningless.
  const double eps = 2e-3;
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Tensor& p = *params[pi];
    // Sample up to 4 coordinates per tensor to keep the test fast.
    const int samples = static_cast<int>(std::min<std::int64_t>(4, p.size()));
    for (int s = 0; s < samples; ++s) {
      const std::int64_t i = static_cast<std::int64_t>(
          rng.uniform_int(static_cast<std::uint64_t>(p.size())));
      const float orig = p[i];
      p[i] = orig + static_cast<float>(eps);
      const double lp = loss_of(model, data.images, data.labels);
      p[i] = orig - static_cast<float>(eps);
      const double lm = loss_of(model, data.images, data.labels);
      p[i] = orig;
      const double numeric = (lp - lm) / (2 * eps);
      EXPECT_NEAR(analytic[pi][i], numeric, 3e-2)
          << "param " << pi << " coord " << i;
    }
  }
}

TEST(SmallResNet, GnSerializationEquivalenceOnResidualTopology) {
  // The central MBS property on a multi-branch network: accumulated
  // sub-batch GN gradients equal full-batch GN gradients.
  SmallResNetConfig cfg;
  cfg.norm = NormMode::kGroup;
  cfg.seed = 31;
  const Dataset data = make_synthetic_dataset(16, 4, 1, 12, 37);

  SmallResNet full(cfg), serial(cfg);
  compute_gradients(full, data.images, data.labels, {16});
  compute_gradients(serial, data.images, data.labels, {4, 4, 4, 4});

  const auto gf = full.gradients();
  const auto gs = serial.gradients();
  ASSERT_EQ(gf.size(), gs.size());
  for (std::size_t i = 0; i < gf.size(); ++i)
    for (std::int64_t j = 0; j < gf[i]->size(); ++j)
      EXPECT_NEAR((*gf[i])[j], (*gs[i])[j], 3e-4)
          << "param " << i << " elem " << j;
}

TEST(SmallResNet, BnSerializationDivergesOnResidualTopology) {
  SmallResNetConfig cfg;
  cfg.norm = NormMode::kBatch;
  cfg.seed = 31;
  const Dataset data = make_synthetic_dataset(16, 4, 1, 12, 37);

  SmallResNet full(cfg), serial(cfg);
  compute_gradients(full, data.images, data.labels, {16});
  compute_gradients(serial, data.images, data.labels, {4, 4, 4, 4});
  const auto gf = full.gradients();
  const auto gs = serial.gradients();
  double max_rel = 0;
  for (std::size_t i = 0; i < gf.size(); ++i)
    for (std::int64_t j = 0; j < gf[i]->size(); ++j) {
      const double a = (*gf[i])[j], b = (*gs[i])[j];
      const double scale = std::max({std::fabs(a), std::fabs(b), 1e-6});
      max_rel = std::max(max_rel, std::fabs(a - b) / scale);
    }
  EXPECT_GT(max_rel, 0.05);
}

TEST(SmallResNet, LearnsSyntheticTask) {
  SmallResNetConfig cfg;
  cfg.seed = 7;
  SmallResNet model(cfg);
  const Dataset train_set = make_synthetic_dataset(128, 4, 1, 12, 61);
  util::Rng rng(1);

  // A few plain gradient-descent steps by hand over the shared
  // accumulation loop.
  double first_loss = 0, last_loss = 0;
  for (int step = 0; step < 30; ++step) {
    const int off = (step * 32) % 96;
    const Tensor x = train_set.images.slice_batch(off, 32);
    const std::vector<int> y(train_set.labels.begin() + off,
                             train_set.labels.begin() + off + 32);
    const double loss = compute_gradients(model, x, y, {32}).loss;
    const auto params = model.parameters();
    const auto grads = model.gradients();
    for (std::size_t i = 0; i < params.size(); ++i)
      params[i]->axpy(-0.1f, *grads[i]);
    if (step == 0) first_loss = loss;
    last_loss = loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.8);
}

}  // namespace
}  // namespace mbs::train
