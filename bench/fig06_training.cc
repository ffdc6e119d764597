// Fig. 6: training effectiveness of GN+MBS vs BN (left: validation error
// curves; right: pre-activation means of the first and last normalization
// layers, plus the drifting means of un-normalized training).
//
// The paper trains ResNet50 on ImageNet across 4 GPUs; this reproduction
// trains a compact CNN on a synthetic dataset (DESIGN.md substitutions) and
// additionally reports the bit-level check that MBS serialization does not
// change GN gradients — the property that makes the curves coincide. The
// three independent training runs fan out across the engine's SweepRunner.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "engine/engine.h"
#include "train/data.h"
#include "train/trainer.h"

int main(int argc, char** argv) {
  using namespace mbs;
  using namespace mbs::train;
  engine::Driver driver(argc, argv);

  // Noise level chosen so the task is learnable but not saturated — the
  // curves separate the way Fig. 6's ImageNet curves do.
  const Dataset train_set =
      make_synthetic_dataset(512, 8, 1, 12, /*seed=*/101, /*noise=*/1.0);
  const Dataset val_set =
      make_synthetic_dataset(256, 8, 1, 12, /*seed=*/102, /*noise=*/1.0);

  TrainRunConfig rc;
  rc.epochs = 14;
  rc.batch = 32;
  rc.sgd.lr = 0.05;             // paper: initial LR 0.05 (Bottou et al.)
  rc.lr_decay_epochs = {8, 12}; // scaled-down analogue of 30/60/80
  rc.lr_decay = 0.1;

  auto run = [&](NormMode norm, bool serialize) {
    return [&, norm, serialize] {
      SmallCnnConfig cfg;
      cfg.norm = norm;
      cfg.classes = 8;
      cfg.stage_channels = {16, 32};
      cfg.seed = 2026;
      SmallCnn model(cfg);
      TrainRunConfig r = rc;
      if (serialize) r.chunks = {8, 8, 8, 8};  // MBS sub-batches
      return train_model(model, train_set, val_set, r);
    };
  };

  std::printf("=== Fig. 6: BN vs GN+MBS training (synthetic ImageNet "
              "stand-in; see DESIGN.md) ===\n\n");
  const auto runs = driver.runner().map<std::vector<EpochLog>>(
      {run(NormMode::kBatch, /*serialize=*/false),
       run(NormMode::kGroup, /*serialize=*/true),
       run(NormMode::kNone, /*serialize=*/false)});
  const auto& bn = runs[0];
  const auto& gn_mbs = runs[1];
  const auto& none = runs[2];

  engine::ResultSink sink(
      "", {"epoch", "BN val err [%]", "GN+MBS val err [%]",
           "no-norm val err [%]", "BN preact mean (last)",
           "GN+MBS preact mean (last)", "no-norm preact mean (last)"});
  for (std::size_t e = 0; e < bn.size(); ++e) {
    sink.add_row({std::to_string(e), util::fmt(bn[e].val_error, 1),
                  util::fmt(gn_mbs[e].val_error, 1),
                  util::fmt(none[e].val_error, 1),
                  util::fmt(bn[e].last_preact_mean, 3),
                  util::fmt(gn_mbs[e].last_preact_mean, 3),
                  util::fmt(none[e].last_preact_mean, 3)});
  }
  sink.print(std::cout);
  sink.export_files("fig06_training");

  std::printf("\nfinal validation error: BN %.1f%%  GN+MBS %.1f%%  "
              "no-norm %.1f%%\n", bn.back().val_error,
              gn_mbs.back().val_error, none.back().val_error);
  std::printf("(paper: BN 24.0%% vs GN+MBS 23.8%% top-1 on ImageNet — "
              "comparable effectiveness; normalized pre-activations stay "
              "near zero, un-normalized ones drift.)\n\n");

  // The bit-level argument behind the coincident curves: serialized GN
  // gradients equal full-batch GN gradients.
  SmallCnnConfig cfg;
  cfg.norm = NormMode::kGroup;
  cfg.seed = 4;
  cfg.classes = 8;
  const Tensor x = train_set.images.slice_batch(0, 32);
  const std::vector<int> labels(train_set.labels.begin(),
                                train_set.labels.begin() + 32);
  SmallCnn full(cfg), serial(cfg);
  compute_gradients(full, x, labels, {32});
  compute_gradients(serial, x, labels, {8, 8, 8, 8});
  double max_rel = 0;
  auto gf = full.gradients(), gs = serial.gradients();
  for (std::size_t i = 0; i < gf.size(); ++i)
    for (std::int64_t j = 0; j < gf[i]->size(); ++j) {
      const double a = (*gf[i])[j], b = (*gs[i])[j];
      const double scale = std::max({std::fabs(a), std::fabs(b), 1e-6});
      max_rel = std::max(max_rel, std::fabs(a - b) / scale);
    }
  std::printf("max relative gradient difference, GN full-batch vs GN+MBS "
              "(4 sub-batches): %.2e (float32 noise)\n", max_rel);
  return 0;
}
