// Example: transformer GN+MBS gradient equivalence.
//
// The paper's correctness argument (Sec. 3) is that serializing a
// mini-batch into sub-batches leaves training math unchanged as long as
// every per-sample operator is sample-local. Attention IS sample-local —
// each token attends only within its own sample — so the argument extends
// beyond CNNs to transformers. This example demonstrates it on the tiny
// functional transformer (real softmax attention between the qkv and proj
// GEMMs):
//
//   1. one mini-batch, gradients computed full-batch vs. MBS-serialized
//      (4 sub-batches with accumulation): with GN the gradients agree to
//      float32 rounding; with BN they visibly diverge (the Sec. 3.1
//      incompatibility, unchanged by the architecture swap);
//   2. two short training runs (full vs. serialized), fanned out across
//      the engine's SweepRunner, whose loss trajectories coincide.
//
// Exits non-zero if the GN gradient-equivalence gate fails. All printed
// values are bit-deterministic at any MBS_THREADS setting.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "engine/engine.h"
#include "train/data.h"
#include "train/optim.h"
#include "train/trainer.h"
#include "train/transformer_model.h"

namespace {

using namespace mbs::train;

/// Reinterprets [N, C, H, W] images as [N, C, H*W, 1] token sequences —
/// the ViT trick of reading patches in raster order (row-major layouts
/// are identical, so this is a pure copy).
Tensor tokens_from_images(const Tensor& images) {
  Tensor t({images.dim(0), images.dim(1), images.dim(2) * images.dim(3), 1});
  std::memcpy(t.data(), images.data(),
              static_cast<std::size_t>(images.size()) * sizeof(float));
  return t;
}

/// Largest absolute gradient difference between two models after one
/// accumulation pass each (the tests/train_test.cc equivalence metric).
double max_grad_diff(TinyTransformer& a, TinyTransformer& b) {
  double max_abs = 0;
  const auto ga = a.gradients(), gb = b.gradients();
  for (std::size_t i = 0; i < ga.size(); ++i)
    for (std::int64_t j = 0; j < ga[i]->size(); ++j) {
      const double diff = std::abs((*ga[i])[j] - (*gb[i])[j]);
      max_abs = diff > max_abs ? diff : max_abs;
    }
  return max_abs;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mbs;
  engine::Driver driver(argc, argv);

  // 4x4 synthetic "images" read as 16-token sequences.
  const Dataset train_set = make_synthetic_dataset(128, 4, 3, 4, /*seed=*/61);
  const Tensor tokens = tokens_from_images(train_set.images);

  TinyTransformerConfig cfg;
  cfg.in_channels = 3;
  cfg.seq = 16;
  cfg.d_model = 16;
  cfg.heads = 2;
  cfg.depth = 2;
  cfg.classes = 4;
  cfg.seed = 12345;

  const int batch = 32;
  const Tensor x = tokens.slice_batch(0, batch);
  const std::vector<int> labels(train_set.labels.begin(),
                                train_set.labels.begin() + batch);
  const std::vector<int> full = {batch};
  const std::vector<int> serial = {8, 8, 8, 8};

  // 1. One-step gradient equivalence, GN vs. BN.
  auto grad_diff = [&](NormMode norm) {
    TinyTransformerConfig c = cfg;
    c.norm = norm;
    TinyTransformer a(c), b(c);
    compute_gradients(a, x, labels, full);
    compute_gradients(b, x, labels, serial);
    return max_grad_diff(a, b);
  };
  const double gn_abs = grad_diff(NormMode::kGroup);
  const double bn_abs = grad_diff(NormMode::kBatch);
  std::printf("one-step gradient equivalence, full batch vs MBS(8,8,8,8):\n");
  std::printf("  GN: max absolute gradient difference = %.3e\n", gn_abs);
  std::printf("  BN: max absolute gradient difference = %.3e\n", bn_abs);
  const bool gn_ok = gn_abs < 2e-4;
  std::printf("  -> GN %s (tolerance 2e-4); BN diverges because its "
              "statistics span the mini-batch\n",
              gn_ok ? "EQUIVALENT" : "MISMATCH");

  // 2. Short training runs, full vs. serialized, via the sweep runner.
  auto run = [&](std::vector<int> chunks) {
    return [&, chunks] {
      TinyTransformer model(cfg);
      Sgd opt(SgdConfig{0.05, 0.9, 0.0});
      std::vector<double> losses;
      for (int epoch = 0; epoch < 4; ++epoch) {
        double sum = 0;
        int steps = 0;
        for (int off = 0; off + batch <= train_set.size(); off += batch) {
          const Tensor xb = tokens.slice_batch(off, batch);
          const std::vector<int> yb(train_set.labels.begin() + off,
                                    train_set.labels.begin() + off + batch);
          sum += train_step(model, opt, xb, yb, chunks).loss;
          ++steps;
        }
        losses.push_back(sum / steps);
      }
      return losses;
    };
  };
  const auto runs = driver.runner().map<std::vector<double>>(
      {run(full), run(serial)});

  std::printf("\nepoch | full-batch loss | MBS(8,8,8,8) loss\n");
  std::printf("------+-----------------+------------------\n");
  for (std::size_t e = 0; e < runs[0].size(); ++e)
    std::printf("%5zu | %15.6f | %17.6f\n", e, runs[0][e], runs[1][e]);
  std::printf("\nAttention is sample-local (tokens attend within their own "
              "sample), so GN+MBS transformer training reproduces full-batch "
              "gradients — the Sec. 3 equivalence extends beyond CNNs.\n");
  return gn_ok ? 0 : 1;
}
