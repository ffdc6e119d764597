// Tests for the functional training substrate: finite-difference gradient
// checks for every operator, and the paper's central correctness claim —
// MBS serialization leaves GN training math unchanged (Sec. 3), while BN is
// incompatible with serialization (Sec. 3.1).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <string>

#include "core/block.h"
#include "core/layer.h"
#include "core/network.h"
#include "sched/scheduler.h"
#include "sched/traffic.h"
#include "train/attention.h"
#include "train/data.h"
#include "train/loss.h"
#include "train/model.h"
#include "train/norm.h"
#include "train/ops.h"
#include "train/optim.h"
#include "train/resnet_model.h"
#include "train/trainer.h"
#include "train/transformer_model.h"

namespace mbs::train {
namespace {

// ---- Finite-difference gradient checking -----------------------------------

/// Checks d(sum(f(x)))/dx against central differences at every coordinate.
void check_input_gradient(
    const std::function<Tensor(const Tensor&)>& f,
    const std::function<Tensor(const Tensor&, const Tensor&)>& backward,
    Tensor x, double eps = 1e-3, double tol = 2e-2) {
  const Tensor y0 = f(x);
  Tensor dy(y0.shape());
  dy.fill(1.0f);  // loss = sum(y)
  const Tensor dx = backward(x, dy);
  ASSERT_EQ(dx.size(), x.size());
  for (std::int64_t i = 0; i < x.size(); ++i) {
    const float orig = x[i];
    x[i] = orig + static_cast<float>(eps);
    const Tensor yp = f(x);
    x[i] = orig - static_cast<float>(eps);
    const Tensor ym = f(x);
    x[i] = orig;
    double sp = 0, sm = 0;
    for (std::int64_t j = 0; j < yp.size(); ++j) {
      sp += yp[j];
      sm += ym[j];
    }
    const double numeric = (sp - sm) / (2 * eps);
    EXPECT_NEAR(dx[i], numeric, tol) << "coordinate " << i;
  }
}

// ---- Value-returning adapters over the step-persistent _into ops -----------

Tensor conv_fwd(const Tensor& x, const Tensor& w, const Tensor& b, int stride,
                int pad) {
  Tensor y;
  conv2d_forward_into(x, w, b, stride, pad, /*cache=*/nullptr, y);
  return y;
}

Conv2dGrads conv_bwd(const Tensor& x, const Tensor& w, const Tensor& dy,
                     int stride, int pad) {
  Conv2dGrads g;
  conv2d_backward_into(x, w, dy, stride, pad, /*need_dx=*/true,
                       /*cache=*/nullptr, g);
  return g;
}

Tensor linear_fwd(const Tensor& x, const Tensor& w, const Tensor& b) {
  Tensor y;
  linear_forward_into(x, w, b, y);
  return y;
}

LinearGrads linear_bwd(const Tensor& x, const Tensor& w, const Tensor& dy) {
  LinearGrads g;
  linear_backward_into(x, w, dy, g);
  return g;
}

Tensor bn_fwd(const Tensor& x, const Tensor& gamma, const Tensor& beta,
              NormCache& c) {
  Tensor y;
  batchnorm_forward_into(x, gamma, beta, c, y);
  return y;
}

NormGrads bn_bwd(const Tensor& dy, const Tensor& gamma, const NormCache& c) {
  NormGrads g;
  batchnorm_backward_into(dy, gamma, c, g);
  return g;
}

Tensor gn_fwd(const Tensor& x, const Tensor& gamma, const Tensor& beta,
              int groups, NormCache& c) {
  Tensor y;
  groupnorm_forward_into(x, gamma, beta, groups, c, y);
  return y;
}

NormGrads gn_bwd(const Tensor& dy, const Tensor& gamma, int groups,
                 const NormCache& c) {
  NormGrads g;
  groupnorm_backward_into(dy, gamma, groups, c, g);
  return g;
}

Tensor maxpool_fwd(const Tensor& x, MaxPoolCache& c) {
  Tensor y;
  maxpool_forward_into(x, /*kernel=*/2, /*stride=*/2, c, y);
  return y;
}

Tensor maxpool_bwd(const Tensor& dy, const MaxPoolCache& c) {
  Tensor dx;
  maxpool_backward_into(dy, c, dx);
  return dx;
}

Tensor gap_fwd(const Tensor& x) {
  Tensor y;
  global_avg_pool_forward_into(x, y);
  return y;
}

Tensor gap_bwd(const Tensor& dy, const std::vector<int>& x_shape) {
  Tensor dx;
  global_avg_pool_backward_into(dy, x_shape, dx);
  return dx;
}

Tensor attn_fwd(const Tensor& x, int heads, AttentionCache& c) {
  Tensor y;
  attention_forward_into(x, heads, c, y);
  return y;
}

Tensor attn_bwd(const Tensor& dy, const Tensor& x, int heads,
                const AttentionCache& c) {
  Tensor dx;
  attention_backward_into(dy, x, heads, c, dx);
  return dx;
}

TEST(GradCheck, Conv2dInput) {
  util::Rng rng(3);
  Tensor x = Tensor::randn({2, 2, 5, 5}, rng);
  const Tensor w = Tensor::randn({3, 2, 3, 3}, rng, 0.5);
  const Tensor b = Tensor::randn({3}, rng, 0.1);
  check_input_gradient(
      [&](const Tensor& xx) { return conv_fwd(xx, w, b, 1, 1); },
      [&](const Tensor& xx, const Tensor& dy) {
        return conv_bwd(xx, w, dy, 1, 1).dx;
      },
      x);
}

TEST(GradCheck, Conv2dStridedInput) {
  util::Rng rng(4);
  Tensor x = Tensor::randn({1, 2, 6, 6}, rng);
  const Tensor w = Tensor::randn({2, 2, 3, 3}, rng, 0.5);
  const Tensor b = Tensor({2});
  check_input_gradient(
      [&](const Tensor& xx) { return conv_fwd(xx, w, b, 2, 1); },
      [&](const Tensor& xx, const Tensor& dy) {
        return conv_bwd(xx, w, dy, 2, 1).dx;
      },
      x);
}

TEST(GradCheck, Conv2dWeights) {
  util::Rng rng(5);
  const Tensor x = Tensor::randn({2, 2, 4, 4}, rng);
  Tensor w = Tensor::randn({2, 2, 3, 3}, rng, 0.5);
  const Tensor b = Tensor({2});
  check_input_gradient(
      [&](const Tensor& ww) { return conv_fwd(x, ww, b, 1, 1); },
      [&](const Tensor& ww, const Tensor& dy) {
        return conv_bwd(x, ww, dy, 1, 1).dw;
      },
      w);
}

TEST(GradCheck, Conv2dBias) {
  util::Rng rng(6);
  const Tensor x = Tensor::randn({2, 2, 4, 4}, rng);
  const Tensor w = Tensor::randn({2, 2, 3, 3}, rng, 0.5);
  Tensor b = Tensor::randn({2}, rng, 0.1);
  check_input_gradient(
      [&](const Tensor& bb) { return conv_fwd(x, w, bb, 1, 1); },
      [&](const Tensor&, const Tensor& dy) {
        return conv_bwd(x, w, dy, 1, 1).dbias;
      },
      b);
}

TEST(GradCheck, Linear) {
  util::Rng rng(7);
  Tensor x = Tensor::randn({3, 6}, rng);
  const Tensor w = Tensor::randn({4, 6}, rng, 0.5);
  const Tensor b = Tensor::randn({4}, rng, 0.1);
  check_input_gradient(
      [&](const Tensor& xx) { return linear_fwd(xx, w, b); },
      [&](const Tensor& xx, const Tensor& dy) {
        return linear_bwd(xx, w, dy).dx;
      },
      x);
}

TEST(GradCheck, LinearWeights) {
  util::Rng rng(8);
  const Tensor x = Tensor::randn({3, 5}, rng);
  Tensor w = Tensor::randn({2, 5}, rng, 0.5);
  const Tensor b = Tensor({2});
  check_input_gradient(
      [&](const Tensor& ww) { return linear_fwd(x, ww, b); },
      [&](const Tensor& ww, const Tensor& dy) {
        return linear_bwd(x, ww, dy).dw;
      },
      w);
}

TEST(GradCheck, BatchNormInput) {
  util::Rng rng(9);
  Tensor x = Tensor::randn({3, 2, 3, 3}, rng);
  const Tensor gamma = Tensor::randn({2}, rng, 0.2);
  const Tensor beta = Tensor::randn({2}, rng, 0.2);
  check_input_gradient(
      [&](const Tensor& xx) {
        NormCache c;
        return bn_fwd(xx, gamma, beta, c);
      },
      [&](const Tensor& xx, const Tensor& dy) {
        NormCache c;
        bn_fwd(xx, gamma, beta, c);
        return bn_bwd(dy, gamma, c).dx;
      },
      x, 1e-3, 3e-2);
}

TEST(GradCheck, GroupNormInput) {
  util::Rng rng(10);
  Tensor x = Tensor::randn({2, 4, 3, 3}, rng);
  const Tensor gamma = Tensor::full({4}, 1.2f);
  const Tensor beta = Tensor::full({4}, -0.1f);
  check_input_gradient(
      [&](const Tensor& xx) {
        NormCache c;
        return gn_fwd(xx, gamma, beta, 2, c);
      },
      [&](const Tensor& xx, const Tensor& dy) {
        NormCache c;
        gn_fwd(xx, gamma, beta, 2, c);
        return gn_bwd(dy, gamma, 2, c).dx;
      },
      x, 1e-3, 3e-2);
}

TEST(GradCheck, GroupNormGamma) {
  util::Rng rng(11);
  const Tensor x = Tensor::randn({2, 4, 3, 3}, rng);
  Tensor gamma = Tensor::full({4}, 1.0f);
  const Tensor beta = Tensor({4});
  check_input_gradient(
      [&](const Tensor& gg) {
        NormCache c;
        return gn_fwd(x, gg, beta, 2, c);
      },
      [&](const Tensor& gg, const Tensor& dy) {
        NormCache c;
        gn_fwd(x, gg, beta, 2, c);
        return gn_bwd(dy, gg, 2, c).dgamma;
      },
      gamma, 1e-3, 3e-2);
}

TEST(GradCheck, AttentionInput) {
  // d_model 4, 2 heads, 3 tokens, 2 samples: small enough for the full
  // finite-difference sweep over all 72 qkv coordinates.
  util::Rng rng(11);
  Tensor x = Tensor::randn({2, 12, 3, 1}, rng);
  check_input_gradient(
      [&](const Tensor& xx) {
        AttentionCache c;
        return attn_fwd(xx, /*heads=*/2, c);
      },
      [&](const Tensor& xx, const Tensor& dy) {
        AttentionCache c;
        attn_fwd(xx, 2, c);
        return attn_bwd(dy, xx, 2, c);
      },
      x);
}

TEST(GradCheck, AttentionSingleHead) {
  util::Rng rng(17);
  Tensor x = Tensor::randn({1, 9, 4, 1}, rng);  // d_model 3, 4 tokens
  check_input_gradient(
      [&](const Tensor& xx) {
        AttentionCache c;
        return attn_fwd(xx, 1, c);
      },
      [&](const Tensor& xx, const Tensor& dy) {
        AttentionCache c;
        attn_fwd(xx, 1, c);
        return attn_bwd(dy, xx, 1, c);
      },
      x);
}

TEST(GradCheck, MaxPool) {
  util::Rng rng(12);
  // Distinct values avoid ties, which break finite differences.
  Tensor x({1, 2, 4, 4});
  for (std::int64_t i = 0; i < x.size(); ++i)
    x[i] = static_cast<float>(i % 7) + 0.01f * static_cast<float>(i);
  check_input_gradient(
      [&](const Tensor& xx) {
        MaxPoolCache c;
        return maxpool_fwd(xx, c);
      },
      [&](const Tensor& xx, const Tensor& dy) {
        MaxPoolCache c;
        maxpool_fwd(xx, c);
        return maxpool_bwd(dy, c);
      },
      x);
}

TEST(GradCheck, GlobalAvgPool) {
  util::Rng rng(13);
  Tensor x = Tensor::randn({2, 3, 3, 3}, rng);
  check_input_gradient(
      [&](const Tensor& xx) { return gap_fwd(xx); },
      [&](const Tensor& xx, const Tensor& dy) {
        return gap_bwd(dy, xx.shape());
      },
      x);
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  util::Rng rng(14);
  Tensor logits = Tensor::randn({3, 4}, rng);
  const std::vector<int> labels{1, 3, 0};
  const LossResult base = softmax_cross_entropy(logits, labels);
  const double eps = 1e-3;
  for (std::int64_t i = 0; i < logits.size(); ++i) {
    const float orig = logits[i];
    logits[i] = orig + static_cast<float>(eps);
    const double lp = softmax_cross_entropy(logits, labels).loss_sum;
    logits[i] = orig - static_cast<float>(eps);
    const double lm = softmax_cross_entropy(logits, labels).loss_sum;
    logits[i] = orig;
    EXPECT_NEAR(base.dlogits[i], (lp - lm) / (2 * eps), 1e-3);
  }
}

// ---- Operator semantics ----------------------------------------------------

TEST(Ops, ReluClampsAndMasks) {
  Tensor x({4});
  x[0] = -1;
  x[1] = 0;
  x[2] = 2;
  x[3] = -0.5;
  Tensor y;
  relu_forward_into(x, y);
  EXPECT_EQ(y[0], 0);
  EXPECT_EQ(y[2], 2);
  Tensor dx({4});
  dx.fill(1.0f);
  relu_backward_inplace(dx, y);
  // Gradient is exactly 0 or 1 — the property that lets MBS store 1-bit
  // masks (Sec. 3).
  EXPECT_EQ(dx[0], 0);
  EXPECT_EQ(dx[2], 1);
  EXPECT_EQ(dx[3], 0);
}

TEST(Ops, ConvOutputShape) {
  util::Rng rng(1);
  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  const Tensor w = Tensor::randn({5, 3, 3, 3}, rng);
  const Tensor y = conv_fwd(x, w, Tensor(), 2, 1);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 5, 4, 4}));
}

TEST(Ops, ConvIdentityKernel) {
  // 1x1 kernel with identity weights reproduces the input channel.
  Tensor x({1, 1, 3, 3});
  for (std::int64_t i = 0; i < 9; ++i) x[i] = static_cast<float>(i);
  Tensor w({1, 1, 1, 1});
  w[0] = 1.0f;
  const Tensor y = conv_fwd(x, w, Tensor(), 1, 0);
  for (std::int64_t i = 0; i < 9; ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(Norm, BatchNormNormalizesPerChannel) {
  util::Rng rng(2);
  const Tensor x = Tensor::randn({8, 3, 4, 4}, rng, 3.0);
  const Tensor gamma = Tensor::full({3}, 1.0f);
  const Tensor beta = Tensor({3});
  NormCache c;
  const Tensor y = bn_fwd(x, gamma, beta, c);
  // Each channel of y has ~zero mean and ~unit variance.
  for (int ch = 0; ch < 3; ++ch) {
    double s = 0, sq = 0;
    int m = 0;
    for (int b = 0; b < 8; ++b)
      for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j) {
          const double v = y.at(b, ch, i, j);
          s += v;
          sq += v * v;
          ++m;
        }
    EXPECT_NEAR(s / m, 0.0, 1e-4);
    EXPECT_NEAR(sq / m, 1.0, 1e-2);
  }
}

TEST(Norm, GroupNormIsPerSample) {
  // GN statistics must not mix samples: normalizing a batch equals
  // normalizing each sample separately. This is the property that makes GN
  // compatible with MBS (Sec. 3.1).
  util::Rng rng(3);
  const Tensor x = Tensor::randn({4, 4, 3, 3}, rng, 2.0);
  const Tensor gamma = Tensor::full({4}, 1.0f);
  const Tensor beta = Tensor({4});
  NormCache c_all;
  const Tensor y_all = gn_fwd(x, gamma, beta, 2, c_all);
  for (int b = 0; b < 4; ++b) {
    const Tensor xb = x.slice_batch(b, 1);
    NormCache c_one;
    const Tensor yb = gn_fwd(xb, gamma, beta, 2, c_one);
    for (std::int64_t i = 0; i < yb.size(); ++i)
      EXPECT_FLOAT_EQ(yb[i], y_all[b * yb.size() + i]);
  }
}

TEST(Norm, BatchNormIsNotPerSample) {
  util::Rng rng(4);
  const Tensor x = Tensor::randn({4, 2, 3, 3}, rng, 2.0);
  const Tensor gamma = Tensor::full({2}, 1.0f);
  const Tensor beta = Tensor({2});
  NormCache c_all;
  const Tensor y_all = bn_fwd(x, gamma, beta, c_all);
  const Tensor xb = x.slice_batch(0, 1);
  NormCache c_one;
  const Tensor yb = bn_fwd(xb, gamma, beta, c_one);
  double max_diff = 0;
  for (std::int64_t i = 0; i < yb.size(); ++i)
    max_diff = std::max(max_diff,
                        std::abs(static_cast<double>(yb[i]) - y_all[i]));
  EXPECT_GT(max_diff, 0.05);
}

// ---- The trainer stashes what the traffic model charges --------------------

TEST(Stash, PoolIndexBytesMatchTheTrafficModel) {
  // SmallCnn keeps one byte per pooled output element for backward (the
  // window offset of the max); compute_traffic charges every max pool
  // DataType::kI8 per output element (Sec. 3). For the same layer shapes
  // the two must agree per sample.
  SmallCnnConfig cfg;
  cfg.stage_channels = {16, 32};
  cfg.classes = 8;
  SmallCnn model(cfg);
  const int n = 8;
  const Dataset data =
      make_synthetic_dataset(n, cfg.classes, cfg.in_channels, cfg.image, 3);
  model.forward(data.images);

  // SmallCnn at shape level: conv3x3 -> norm -> ReLU -> 2x2 max pool per
  // stage, then global average pooling and the classifier.
  core::Network net;
  net.name = "small_cnn";
  net.input = core::FeatureShape{cfg.in_channels, cfg.image, cfg.image};
  net.mini_batch_per_core = n;
  core::FeatureShape in = net.input;
  for (std::size_t i = 0; i < cfg.stage_channels.size(); ++i) {
    const std::string name = "stage" + std::to_string(i);
    std::vector<core::Layer> chain;
    chain.push_back(core::make_conv(name + ".conv", in,
                                    cfg.stage_channels[i], 3, 1, 1,
                                    /*bias=*/true));
    chain.push_back(core::make_norm(name + ".norm", chain.back().out));
    chain.push_back(core::make_act(name + ".relu", chain.back().out));
    chain.push_back(core::make_pool(name + ".pool", chain.back().out, 2, 2,
                                    0, core::PoolKind::kMax));
    in = chain.back().out;
    net.blocks.push_back(core::make_simple_block(name, chain));
  }
  net.blocks.push_back(core::make_simple_block(
      "head", {core::make_global_avg_pool("gap", in),
               core::make_fc("fc", in.c, cfg.classes)}));
  net.check();

  // Baseline routes every edge through DRAM, so the only forward stash a
  // pool layer writes is its index.
  const sched::Schedule schedule =
      sched::build_schedule(net, sched::ExecConfig::kBaseline);
  ASSERT_EQ(schedule.mini_batch, n);
  const sched::Traffic traffic = sched::compute_traffic(net, schedule);
  double modelled = 0;
  for (const sched::TrafficRecord& r : traffic.records)
    if (r.kind == core::LayerKind::kPool &&
        r.phase == sched::Phase::kForward &&
        r.cls == sched::TrafficClass::kStash)
      modelled += r.dram_write;

  EXPECT_GT(model.pool_index_bytes(), 0);
  EXPECT_EQ(static_cast<double>(model.pool_index_bytes()) / n, modelled / n);
}

// ---- The central claim: serialization equivalence ---------------------------

class SerializationEquivalence : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(SerializationEquivalence, GnGradientsMatchFullBatch) {
  SmallCnnConfig cfg;
  cfg.norm = NormMode::kGroup;
  cfg.seed = 99;
  const Dataset data = make_synthetic_dataset(16, 4, 1, 12, /*seed=*/21);

  SmallCnn full(cfg);
  compute_gradients(full, data.images, data.labels, {16});

  SmallCnn serial(cfg);  // identical init (same seed)
  compute_gradients(serial, data.images, data.labels, GetParam());

  auto gf = full.gradients();
  auto gs = serial.gradients();
  ASSERT_EQ(gf.size(), gs.size());
  for (std::size_t i = 0; i < gf.size(); ++i) {
    ASSERT_EQ(gf[i]->size(), gs[i]->size());
    for (std::int64_t j = 0; j < gf[i]->size(); ++j)
      EXPECT_NEAR((*gf[i])[j], (*gs[i])[j], 2e-4)
          << "param " << i << " elem " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ChunkPartitions, SerializationEquivalence,
    ::testing::Values(std::vector<int>{8, 8}, std::vector<int>{4, 4, 4, 4},
                      std::vector<int>{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                                       1, 1, 1},
                      std::vector<int>{6, 6, 4}, std::vector<int>{15, 1}));

TEST(SerializationDivergence, BnGradientsDifferUnderSerialization) {
  // The negative control: BN statistics change with the chunking, so
  // serialized BN does NOT reproduce full-batch gradients — the reason the
  // paper switches to GN (Sec. 3.1).
  SmallCnnConfig cfg;
  cfg.norm = NormMode::kBatch;
  cfg.seed = 99;
  const Dataset data = make_synthetic_dataset(16, 4, 1, 12, 21);

  SmallCnn full(cfg);
  compute_gradients(full, data.images, data.labels, {16});
  SmallCnn serial(cfg);
  compute_gradients(serial, data.images, data.labels, {4, 4, 4, 4});

  auto gf = full.gradients();
  auto gs = serial.gradients();
  double max_rel = 0;
  for (std::size_t i = 0; i < gf.size(); ++i)
    for (std::int64_t j = 0; j < gf[i]->size(); ++j) {
      const double a = (*gf[i])[j], b = (*gs[i])[j];
      const double scale = std::max({std::abs(a), std::abs(b), 1e-6});
      max_rel = std::max(max_rel, std::abs(a - b) / scale);
    }
  EXPECT_GT(max_rel, 0.05);
}

// ---- The transformer leg of the equivalence claim ---------------------------

/// [N, C, H, W] images reinterpreted as [N, C, H*W, 1] token sequences
/// (row-major layouts are identical, so this is a pure copy).
Tensor tokens_from_images(const Tensor& images) {
  Tensor t({images.dim(0), images.dim(1), images.dim(2) * images.dim(3), 1});
  std::memcpy(t.data(), images.data(),
              static_cast<std::size_t>(images.size()) * sizeof(float));
  return t;
}

class TransformerSerializationEquivalence
    : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(TransformerSerializationEquivalence, GnGradientsMatchFullBatch) {
  // Attention is sample-local (every token attends within its own sample),
  // so the Sec. 3 equivalence argument extends verbatim: GN + real softmax
  // attention under any chunk partition reproduces full-batch gradients to
  // float32 rounding.
  TinyTransformerConfig cfg;  // norm defaults to kGroup
  cfg.seq = 16;
  cfg.seed = 7;
  const Dataset data = make_synthetic_dataset(16, 3, 3, 4, /*seed=*/21);
  const Tensor x = tokens_from_images(data.images);  // 4x4 = 16 tokens

  TinyTransformer full(cfg);
  compute_gradients(full, x, data.labels, {16});
  TinyTransformer serial(cfg);  // identical init (same seed)
  compute_gradients(serial, x, data.labels, GetParam());

  auto gf = full.gradients();
  auto gs = serial.gradients();
  ASSERT_EQ(gf.size(), gs.size());
  for (std::size_t i = 0; i < gf.size(); ++i) {
    ASSERT_EQ(gf[i]->size(), gs[i]->size());
    for (std::int64_t j = 0; j < gf[i]->size(); ++j)
      EXPECT_NEAR((*gf[i])[j], (*gs[i])[j], 2e-4)
          << "param " << i << " elem " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ChunkPartitions, TransformerSerializationEquivalence,
    ::testing::Values(std::vector<int>{8, 8}, std::vector<int>{4, 4, 4, 4},
                      std::vector<int>{6, 6, 4}, std::vector<int>{15, 1}));

TEST(TransformerSerializationDivergence, BnGradientsDifferUnderSerialization) {
  // The negative control survives the architecture swap: BN statistics
  // still span the mini-batch, so serialized BN diverges on a transformer
  // exactly as it does on the CNN.
  TinyTransformerConfig cfg;
  cfg.norm = NormMode::kBatch;
  cfg.seq = 16;
  cfg.seed = 7;
  const Dataset data = make_synthetic_dataset(16, 3, 3, 4, 21);
  const Tensor x = tokens_from_images(data.images);

  TinyTransformer full(cfg);
  compute_gradients(full, x, data.labels, {16});
  TinyTransformer serial(cfg);
  compute_gradients(serial, x, data.labels, {4, 4, 4, 4});

  auto gf = full.gradients();
  auto gs = serial.gradients();
  double max_rel = 0;
  for (std::size_t i = 0; i < gf.size(); ++i)
    for (std::int64_t j = 0; j < gf[i]->size(); ++j) {
      const double a = (*gf[i])[j], b = (*gs[i])[j];
      const double scale = std::max({std::abs(a), std::abs(b), 1e-6});
      max_rel = std::max(max_rel, std::abs(a - b) / scale);
    }
  EXPECT_GT(max_rel, 0.05);
}

TEST(Transformer, ForwardShapesAndDeterminism) {
  TinyTransformerConfig cfg;
  cfg.seq = 16;
  cfg.seed = 5;
  TinyTransformer a(cfg), b(cfg);
  const Dataset data = make_synthetic_dataset(8, 3, 3, 4, 3);
  const Tensor x = tokens_from_images(data.images);
  const Tensor la = a.forward(x);
  const Tensor lb = b.forward(x);
  EXPECT_EQ(la.shape(), (std::vector<int>{8, 4}));
  for (std::int64_t i = 0; i < la.size(); ++i) EXPECT_EQ(la[i], lb[i]);
}

// ---- Model / optimizer / data ----------------------------------------------

TEST(Model, ForwardShapesAndDeterminism) {
  SmallCnnConfig cfg;
  cfg.seed = 5;
  SmallCnn a(cfg), b(cfg);
  const Dataset data = make_synthetic_dataset(8, 4, 1, 12, 3);
  const Tensor la = a.forward(data.images);
  const Tensor lb = b.forward(data.images);
  EXPECT_EQ(la.shape(), (std::vector<int>{8, 4}));
  for (std::int64_t i = 0; i < la.size(); ++i) EXPECT_EQ(la[i], lb[i]);
}

TEST(Model, GradientsAccumulateAcrossBackwardCalls) {
  SmallCnnConfig cfg;
  SmallCnn m(cfg);
  const Dataset data = make_synthetic_dataset(4, 4, 1, 12, 3);
  const Tensor logits = m.forward(data.images);
  LossResult lr = softmax_cross_entropy(logits, data.labels);
  m.zero_grad();
  m.backward(lr.dlogits);
  const float g1 = (*m.gradients()[0])[0];
  m.forward(data.images);
  m.backward(lr.dlogits);
  EXPECT_NEAR((*m.gradients()[0])[0], 2 * g1, 1e-5);
}

TEST(Model, ZeroGradClears) {
  SmallCnnConfig cfg;
  SmallCnn m(cfg);
  const Dataset data = make_synthetic_dataset(4, 4, 1, 12, 3);
  const Tensor logits = m.forward(data.images);
  LossResult lr = softmax_cross_entropy(logits, data.labels);
  m.backward(lr.dlogits);
  m.zero_grad();
  for (Tensor* g : m.gradients())
    for (std::int64_t i = 0; i < g->size(); ++i) EXPECT_EQ((*g)[i], 0.0f);
}

// ---- Parameter order ---------------------------------------------------------
//
// The optimizer keys its velocity buffers by list position, so each model's
// (parameter, gradient) order is pinned here as literal shapes. norm(c) is
// one norm layer's gamma and beta: absent without normalization.

using Shapes = std::vector<std::vector<int>>;

Shapes concat(std::initializer_list<Shapes> parts) {
  Shapes out;
  for (const Shapes& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

template <class Model>
void expect_layout(Model& model, const Shapes& want, std::size_t count) {
  const std::vector<Tensor*> ps = model.parameters();
  const std::vector<Tensor*> gs = model.gradients();
  ASSERT_EQ(ps.size(), count);
  ASSERT_EQ(gs.size(), count);
  ASSERT_EQ(want.size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(ps[i]->shape(), want[i]) << "parameter " << i;
    EXPECT_EQ(gs[i]->shape(), want[i]) << "gradient " << i;
    EXPECT_NE(ps[i], gs[i]) << "pair " << i;
  }
}

class ParameterOrder : public ::testing::TestWithParam<NormMode> {
 protected:
  bool normed() const { return GetParam() != NormMode::kNone; }
  Shapes norm(int c) const { return normed() ? Shapes{{c}, {c}} : Shapes{}; }
};

TEST_P(ParameterOrder, AllModelsMatchTheRecordedLayout) {
  SmallCnnConfig cnn_cfg;
  cnn_cfg.norm = GetParam();
  SmallCnn cnn(cnn_cfg);
  expect_layout(cnn,
                concat({{{8, 1, 3, 3}, {8}}, norm(8),
                        {{16, 8, 3, 3}, {16}}, norm(16),
                        {{4, 16}, {4}}}),
                normed() ? 10 : 6);

  // Block 1 keeps 8 channels (identity shortcut: 2 convs, 2 norms);
  // block 2 strides to 16 and projects its shortcut (3 convs, 3 norms).
  SmallResNetConfig res_cfg;
  res_cfg.norm = GetParam();
  SmallResNet res(res_cfg);
  expect_layout(res,
                concat({{{8, 1, 3, 3}}, norm(8),
                        {{8, 8, 3, 3}}, norm(8), {{8, 8, 3, 3}}, norm(8),
                        {{16, 8, 3, 3}}, norm(16), {{16, 16, 3, 3}}, norm(16),
                        {{16, 8, 1, 1}}, norm(16),
                        {{4, 16}, {4}}}),
                normed() ? 20 : 8);

  TinyTransformerConfig tf_cfg;
  tf_cfg.norm = GetParam();
  TinyTransformer tf(tf_cfg);
  const Shapes block = concat({norm(16), {{48, 16, 1, 1}, {16, 16, 1, 1}},
                               norm(16), {{32, 16, 1, 1}, {16, 32, 1, 1}}});
  expect_layout(tf, concat({{{16, 3, 1, 1}}, block, block, {{4, 16}, {4}}}),
                normed() ? 19 : 11);
}

INSTANTIATE_TEST_SUITE_P(NormModes, ParameterOrder,
                         ::testing::Values(NormMode::kNone, NormMode::kBatch,
                                           NormMode::kGroup));

TEST(Optim, SgdStepMovesAgainstGradient) {
  Tensor p({2});
  p[0] = 1.0f;
  p[1] = -1.0f;
  Tensor g({2});
  g[0] = 0.5f;
  g[1] = -0.5f;
  Sgd opt({/*lr=*/0.1, /*momentum=*/0.0, /*weight_decay=*/0.0});
  opt.step({&p}, {&g});
  EXPECT_FLOAT_EQ(p[0], 1.0f - 0.05f);
  EXPECT_FLOAT_EQ(p[1], -1.0f + 0.05f);
}

TEST(Optim, MomentumAccumulates) {
  Tensor p({1});
  Tensor g({1});
  g[0] = 1.0f;
  Sgd opt({/*lr=*/1.0, /*momentum=*/0.5, /*weight_decay=*/0.0});
  opt.step({&p}, {&g});
  EXPECT_FLOAT_EQ(p[0], -1.0f);  // v=1
  opt.step({&p}, {&g});
  EXPECT_FLOAT_EQ(p[0], -2.5f);  // v=1.5
}

TEST(Data, DeterministicAndBalanced) {
  const Dataset a = make_synthetic_dataset(64, 4, 1, 12, 11);
  const Dataset b = make_synthetic_dataset(64, 4, 1, 12, 11);
  for (std::int64_t i = 0; i < a.images.size(); ++i)
    EXPECT_EQ(a.images[i], b.images[i]);
  std::vector<int> counts(4, 0);
  for (int l : a.labels) counts[static_cast<std::size_t>(l)]++;
  for (int c : counts) EXPECT_EQ(c, 16);
}

TEST(Data, DifferentSeedsDiffer) {
  const Dataset a = make_synthetic_dataset(8, 4, 1, 12, 1);
  const Dataset b = make_synthetic_dataset(8, 4, 1, 12, 2);
  double diff = 0;
  for (std::int64_t i = 0; i < a.images.size(); ++i)
    diff += std::abs(static_cast<double>(a.images[i]) - b.images[i]);
  EXPECT_GT(diff, 1.0);
}

TEST(Trainer, LearnsSyntheticTask) {
  SmallCnnConfig cfg;
  cfg.norm = NormMode::kGroup;
  SmallCnn model(cfg);
  const Dataset train_set = make_synthetic_dataset(256, 4, 1, 12, 31);
  const Dataset val_set = make_synthetic_dataset(128, 4, 1, 12, 32);
  TrainRunConfig rc;
  rc.epochs = 6;
  rc.sgd.lr = 0.05;
  const auto logs = train_model(model, train_set, val_set, rc);
  ASSERT_EQ(logs.size(), 6u);
  // Chance is 75% error; the model must do far better.
  EXPECT_LT(logs.back().val_error, 40.0);
  EXPECT_LT(logs.back().val_error, logs.front().val_error + 1e-9);
}

TEST(Trainer, SerializedTrainingMatchesFullBatchForGn) {
  // Whole-run equivalence: identical val-error trajectories for GN with and
  // without MBS serialization (float32 tolerance).
  const Dataset train_set = make_synthetic_dataset(128, 4, 1, 12, 41);
  const Dataset val_set = make_synthetic_dataset(64, 4, 1, 12, 42);
  TrainRunConfig rc;
  rc.epochs = 3;
  rc.batch = 32;

  SmallCnnConfig cfg;
  cfg.norm = NormMode::kGroup;
  cfg.seed = 77;
  SmallCnn full(cfg);
  const auto lf = train_model(full, train_set, val_set, rc);

  rc.chunks = {8, 8, 8, 8};
  SmallCnn serial(cfg);
  const auto ls = train_model(serial, train_set, val_set, rc);

  for (std::size_t e = 0; e < lf.size(); ++e) {
    EXPECT_NEAR(lf[e].train_loss, ls[e].train_loss, 1e-3);
    EXPECT_NEAR(lf[e].val_error, ls[e].val_error, 1.6);
  }
}

TEST(Tensor, SliceBatch) {
  Tensor t({4, 2});
  for (std::int64_t i = 0; i < 8; ++i) t[i] = static_cast<float>(i);
  const Tensor s = t.slice_batch(1, 2);
  EXPECT_EQ(s.shape(), (std::vector<int>{2, 2}));
  EXPECT_EQ(s[0], 2.0f);
  EXPECT_EQ(s[3], 5.0f);
}

TEST(Tensor, AxpyAndScale) {
  Tensor a = Tensor::full({3}, 1.0f);
  Tensor b = Tensor::full({3}, 2.0f);
  a.axpy(0.5f, b);
  EXPECT_FLOAT_EQ(a[0], 2.0f);
  a.scale(2.0f);
  EXPECT_FLOAT_EQ(a[1], 4.0f);
}

}  // namespace
}  // namespace mbs::train
