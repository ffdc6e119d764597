// Stage `train`: fig06's SmallCnn (channels 16/32, 12x12 inputs, 8
// classes, batch 32). BN full-batch steps alternate with GN+MBS steps over
// sub-batches {8,8,8,8}, on the same seeded mini-batch stream. It is the
// only stage in which src/train does the work, and the two modes run the
// same kernels at M=32 and M=8, so a GEMM change that helps full batches
// but hurts MBS sub-batches shows up.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>

#include "bench.h"
#include "trace.h"
#include "train/data.h"
#include "train/gemm_microkernels.h"
#include "train/loss.h"
#include "train/model.h"
#include "train/ops.h"
#include "train/optim.h"
#include "train/trainer.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace mbs::perf {

namespace {

using train::NormMode;
using train::SmallCnn;
using train::Tensor;

constexpr int kBatch = 32;
const std::vector<int> kFull = {kBatch};
const std::vector<int> kMbsChunks = {8, 8, 8, 8};

train::SmallCnnConfig cnn_config(NormMode norm) {
  train::SmallCnnConfig cfg;
  cfg.norm = norm;
  cfg.classes = 8;
  cfg.stage_channels = {16, 32};
  cfg.seed = 2026;
  return cfg;
}

/// A BN model and a GN model, each with its optimizer (fig06's settings).
struct ModelPair {
  SmallCnn bn{cnn_config(NormMode::kBatch)};
  SmallCnn gn{cnn_config(NormMode::kGroup)};
  train::Sgd bn_opt{train::SgdConfig{0.05, 0.9, 0.0}};
  train::Sgd gn_opt{train::SgdConfig{0.05, 0.9, 0.0}};
};

/// The seeded mini-batch stream: the dataset is fixed (fig06's training
/// set), the sample order is reshuffled from --seed every epoch.
class BatchStream {
 public:
  explicit BatchStream(std::uint64_t seed)
      : data_(train::make_synthetic_dataset(512, 8, 1, 12, /*seed=*/101,
                                            /*noise=*/1.0)),
        rng_(seed),
        order_(static_cast<std::size_t>(data_.size())),
        labels_(kBatch) {
    std::iota(order_.begin(), order_.end(), 0);
  }

  /// Gathers the next mini-batch into x()/labels().
  void next() {
    const int n = data_.size();
    if (cursor_ + kBatch > n) cursor_ = 0;
    if (cursor_ == 0)
      for (int i = n - 1; i > 0; --i)
        std::swap(order_[static_cast<std::size_t>(i)],
                  order_[rng_.uniform_int(static_cast<std::uint64_t>(i) + 1)]);
    x_.ensure_shape({kBatch, 1, 12, 12});
    const std::int64_t per = data_.images.size() / n;
    for (int i = 0; i < kBatch; ++i) {
      const int src = order_[static_cast<std::size_t>(cursor_ + i)];
      std::memcpy(x_.data() + i * per, data_.images.data() + src * per,
                  static_cast<std::size_t>(per) * sizeof(float));
      labels_[static_cast<std::size_t>(i)] =
          data_.labels[static_cast<std::size_t>(src)];
    }
    cursor_ += kBatch;
  }

  const Tensor& x() const { return x_; }
  const std::vector<int>& labels() const { return labels_; }

 private:
  train::Dataset data_;
  util::Rng rng_;
  std::vector<int> order_;
  int cursor_ = 0;
  Tensor x_;
  std::vector<int> labels_;
};

/// Two steps per model: they grow the kernel workspaces to their steady
/// size before anything is timed.
void warm_up(ModelPair& m, BatchStream& batches) {
  for (int i = 0; i < 2; ++i) {
    batches.next();
    train::train_step(m.bn, m.bn_opt, batches.x(), batches.labels(), kFull);
    train::train_step(m.gn, m.gn_opt, batches.x(), batches.labels(),
                      kMbsChunks);
  }
}

struct StepTimes {
  double step = 0, fwd = 0, bwd = 0, sgd = 0;
  double loss = 0;
};

/// One optimizer step with a span around every call into the model, the
/// loss and the optimizer. Performs exactly train::train_step's
/// operations in its order, so losses are bit-identical to it.
StepTimes traced_step(SmallCnn& model, train::Sgd& opt, const Tensor& x,
                      const std::vector<int>& labels,
                      const std::vector<int>& chunks, bool mbs) {
  StepTimes t;
  Span step(mbs ? "train.step.mbs" : "train.step.bn");
  const int n = x.dim(0);
  model.zero_grad();
  int offset = 0;
  for (int c : chunks) {
    const Tensor xc = x.slice_batch(offset, c);
    const std::vector<int> yc(labels.begin() + offset,
                              labels.begin() + offset + c);
    Span fwd(mbs ? "train.fwd.mbs" : "train.fwd.bn");
    const Tensor logits = model.forward(xc);
    t.fwd += fwd.stop();
    Span loss("train.loss");
    train::LossResult lr = train::softmax_cross_entropy(logits, yc);
    lr.dlogits.scale(1.0f / static_cast<float>(n));
    loss.stop();
    Span bwd(mbs ? "train.bwd.mbs" : "train.bwd.bn");
    model.backward(lr.dlogits);
    t.bwd += bwd.stop();
    t.loss += lr.loss_sum;
    offset += c;
  }
  t.loss /= n;
  Span sgd("train.sgd");
  opt.step(model.parameters(), model.gradients());
  t.sgd = sgd.stop();
  t.step = step.stop();
  return t;
}

const util::KernelKind kKinds[] = {
    util::KernelKind::kConvFwd, util::KernelKind::kConvBwd,
    util::KernelKind::kNorm,    util::KernelKind::kPool,
    util::KernelKind::kRelu,    util::KernelKind::kLinear,
    util::KernelKind::kSgd};
const char* const kKindNames[] = {"conv_fwd", "conv_bwd", "norm", "pool",
                                  "relu",     "linear",   "sgd"};

/// GN full-batch vs GN+MBS gradients on one seeded mini-batch: fig06's
/// check that serialization leaves GN gradients unchanged up to float32
/// rounding (the same per-element bound as train_test's equivalence test).
bool gn_mbs_equivalent(const BatchStream& batches) {
  train::SmallCnnConfig cfg = cnn_config(NormMode::kGroup);
  cfg.seed = 4;
  SmallCnn full(cfg), serial(cfg);
  train::compute_gradients(full, batches.x(), batches.labels(), kFull);
  train::compute_gradients(serial, batches.x(), batches.labels(), kMbsChunks);
  const auto gf = full.gradients(), gs = serial.gradients();
  double max_abs = 0;
  for (std::size_t i = 0; i < gf.size(); ++i)
    for (std::int64_t j = 0; j < gf[i]->size(); ++j)
      max_abs = std::max(
          max_abs, std::fabs(static_cast<double>((*gf[i])[j]) - (*gs[i])[j]));
  std::printf("check: GN full-batch vs GN+MBS max |grad diff| = %.3g "
              "(bound 2e-4)\n", max_abs);
  return max_abs <= 2e-4;
}

/// GFLOP/s of the SmallCnn conv stages at batch 8 and 32, timed through
/// conv2d_forward_into / conv2d_backward_into. The data gradient is the
/// backward pass with dx minus the one without.
void conv_shape_metrics(std::uint64_t seed, Report& rep) {
  struct Shape {
    const char* name;
    int ci, co, hw;
  };
  const Shape shapes[] = {{"conv1", 1, 16, 12}, {"conv2", 16, 32, 6}};
  util::Rng rng(seed ^ 0xc0411ull);
  auto fill = [&](Tensor& t) {
    for (std::int64_t i = 0; i < t.size(); ++i)
      t[i] = static_cast<float>(rng.normal(0, 0.5));
  };
  for (const Shape& sh : shapes)
    for (int n : {8, 32}) {
      Tensor x({n, sh.ci, sh.hw, sh.hw}), w({sh.co, sh.ci, 3, 3}), b({sh.co}),
          dy({n, sh.co, sh.hw, sh.hw}), y;
      fill(x), fill(w), fill(b), fill(dy);
      train::ConvCache cache;
      train::Conv2dGrads g;
      std::vector<double> fwd, wgrad, full;
      for (int rep_i = 0; rep_i < 60; ++rep_i) {
        Span f("train.conv.fwd");
        train::conv2d_forward_into(x, w, b, 1, 1, &cache, y);
        fwd.push_back(f.stop());
        Span wg("train.conv.wgrad");
        train::conv2d_backward_into(x, w, dy, 1, 1, false, &cache, g);
        wgrad.push_back(wg.stop());
        Span both("train.conv.dgrad_wgrad");
        train::conv2d_backward_into(x, w, dy, 1, 1, true, &cache, g);
        full.push_back(both.stop());
      }
      const double gflop = 2.0 * n * sh.co * sh.hw * sh.hw * sh.ci * 9 * 1e-9;
      const double t_dgrad = median(full) - median(wgrad);
      const std::string p = std::string("train.") + sh.name + ".";
      const std::string b_sfx = ".b" + std::to_string(n) + "_gflops";
      rep.add(p + "fwd" + b_sfx, gflop / median(fwd), "GFLOP/s");
      rep.add(p + "dgrad" + b_sfx,
              t_dgrad > 0 ? gflop / t_dgrad : 0, "GFLOP/s");
      rep.add(p + "wgrad" + b_sfx, gflop / median(wgrad), "GFLOP/s");
    }
}

/// The stage. A one-thread run keeps this thread on the fastest CPU for
/// each round (probe: forward passes of a spare GN model on the current
/// batch); a threaded run is never pinned, since the kernel pool's workers
/// would inherit the mask.
class TrainStage : public Stage {
 public:
  TrainStage(const Options& opt, Report& rep) : opt_(opt), rep_(rep) {
    auto set_up = [&] {
      batches_ = std::make_unique<BatchStream>(opt.seed);
      models_ = std::make_unique<ModelPair>();
      warm_up(*models_, *batches_);
    };
    if (opt.trace) {
      // The traced pair (the same step decomposed under spans) starts from
      // the same models and sees the same batches as the untraced pair;
      // their losses must agree bit for bit.
      set_up();
      traced_models_ = std::make_unique<ModelPair>();
      BatchStream replay(opt.seed);
      warm_up(*traced_models_, replay);
      return;
    }
    // Nine timed set-ups after an untimed one. A one-thread run pins each
    // to the fastest CPU, as it does the steps; a threaded one cannot, since
    // the kernel pool's workers would inherit the mask.
    set_up();
    std::vector<double> setups;
    for (int i = 0; i < 9; ++i) {
      CpuPinner pinner;
      if (util::thread_budget() == 1)
        pinner.pin_fastest([&] { probe_model_.forward(batches_->x()); });
      const auto t0 = std::chrono::steady_clock::now();
      set_up();
      setups.push_back(seconds_since(t0));
    }
    rep.setup_s += median(setups);
  }

  void round(double seconds) override {
    CpuPinner pinner;
    if (util::thread_budget() == 1)
      pinner.pin_fastest([&] { probe_model_.forward(batches_->x()); });
    const auto start = std::chrono::steady_clock::now();
    while (seconds_since(start) < seconds) {
      batches_->next();
      if (opt_.trace) {
        traced_pair();
        continue;
      }
      Span s_bn("train.step.bn");
      const auto m_bn = train::train_step(models_->bn, models_->bn_opt,
                                          batches_->x(), batches_->labels(),
                                          kFull);
      bn_.push_back(s_bn.stop());
      Span s_mbs("train.step.mbs");
      const auto m_mbs = train::train_step(models_->gn, models_->gn_opt,
                                           batches_->x(), batches_->labels(),
                                           kMbsChunks);
      mbs_.push_back(s_mbs.stop());
      rep_.check(std::isfinite(m_bn.loss));
      rep_.check(std::isfinite(m_mbs.loss));
    }
  }

  void finish() override {
    rep_.check(gn_mbs_equivalent(*batches_));
    if (opt_.trace) {
      finish_traced();
      return;
    }
    std::printf("train: %zu BN steps (p10/p50/p90 %.3f/%.3f/%.3f ms), %zu "
                "GN+MBS steps (%.3f/%.3f/%.3f ms)\n",
                bn_.size(), quantile(bn_, 0.1) * 1e3, median(bn_) * 1e3,
                quantile(bn_, 0.9) * 1e3, mbs_.size(),
                quantile(mbs_, 0.1) * 1e3, median(mbs_) * 1e3,
                quantile(mbs_, 0.9) * 1e3);
    // A one-thread step runs at the speed of one vCPU, whose fast mode
    // showed in every run: there the 10th percentile held (IQR/median
    // 0.05-0.09 over ten runs) while the 90th jumped between modes in some
    // batches (0.29). A two-thread step waits for the slower thread, so
    // fast steps were rare: the 10th percentile spread 0.13-0.33 and the
    // 90th held (0.04-0.09).
    const double q = util::thread_budget() == 1 ? 0.1 : kReportQuantile;
    rep_.add("samples_per_s_bn", kBatch / quantile(bn_, q), "samples/s");
    rep_.add("samples_per_s_mbs", kBatch / quantile(mbs_, q), "samples/s");
  }

 private:
  /// One BN step and one GN+MBS step, each run untraced by train_step on
  /// one model pair and traced by traced_step on the other.
  void traced_pair() {
    Tracer& tracer = Tracer::instance();
    double pair[7] = {};
    for (int mode = 0; mode < 2; ++mode) {
      const bool mbs = mode == 1;
      SmallCnn& m_plain = mbs ? models_->gn : models_->bn;
      train::Sgd& o_plain = mbs ? models_->gn_opt : models_->bn_opt;
      SmallCnn& m_traced = mbs ? traced_models_->gn : traced_models_->bn;
      train::Sgd& o_traced =
          mbs ? traced_models_->gn_opt : traced_models_->bn_opt;
      const std::vector<int>& chunks = mbs ? kMbsChunks : kFull;

      Span s_plain("train.step.untraced");
      const auto m = train::train_step(m_plain, o_plain, batches_->x(),
                                       batches_->labels(), chunks);
      plain_.push_back(s_plain.stop());

      util::KernelStat before[7];
      for (int k = 0; k < 7; ++k) before[k] = util::kernel_stat(kKinds[k]);
      tracer.set_on(true);
      const StepTimes t = traced_step(m_traced, o_traced, batches_->x(),
                                      batches_->labels(), chunks, mbs);
      tracer.set_on(false);
      for (int k = 0; k < 7; ++k) {
        const util::KernelStat after = util::kernel_stat(kKinds[k]);
        pair[k] += after.seconds - before[k].seconds;
        total_[k].seconds += after.seconds - before[k].seconds;
        total_[k].flops += after.flops - before[k].flops;
      }
      traced_.push_back(t.step);
      fwd_[mode].push_back(t.fwd);
      bwd_[mode].push_back(t.bwd);
      sgd_.push_back(t.sgd);
      rep_.check(std::isfinite(m.loss) && m.loss == t.loss);
    }
    for (int k = 0; k < 7; ++k) pair_s_[k].push_back(pair[k]);
  }

  void finish_traced() {
    Tracer::instance().set_on(true);
    conv_shape_metrics(opt_.seed, rep_);
    Tracer::instance().set_on(false);
    rep_.add("train.fwd_ms.bn", median(fwd_[0]) * 1e3, "ms");
    rep_.add("train.fwd_ms.mbs", median(fwd_[1]) * 1e3, "ms");
    rep_.add("train.bwd_ms.bn", median(bwd_[0]) * 1e3, "ms");
    rep_.add("train.bwd_ms.mbs", median(bwd_[1]) * 1e3, "ms");
    rep_.add("train.sgd_ms", median(sgd_) * 1e3, "ms");
    // Per step, as the median over step pairs halved, so the figure does
    // not grow with the run's length or with how fast the other kernels are.
    for (int k = 0; k < 7; ++k)
      rep_.add(std::string("train.kernel_s.") + kKindNames[k],
               median(pair_s_[k]) / 2, "s");
    for (int k = 0; k < 2; ++k)
      rep_.add(std::string("train.gflops.") + kKindNames[k],
               total_[k].seconds > 0 ? static_cast<double>(total_[k].flops) /
                                           total_[k].seconds * 1e-9
                                     : 0,
               "GFLOP/s");
    rep_.add("train.peak_gflops", train::detail::measured_peak_gflops(),
             "GFLOP/s");
    rep_.overhead_pct.push_back(overhead_pct(plain_, traced_));
  }

  const Options opt_;
  Report& rep_;
  std::unique_ptr<BatchStream> batches_;
  std::unique_ptr<ModelPair> models_;
  SmallCnn probe_model_{cnn_config(NormMode::kGroup)};
  std::vector<double> bn_, mbs_;  ///< untraced step times
  // Traced run only.
  std::unique_ptr<ModelPair> traced_models_;
  std::vector<double> plain_, traced_;
  std::vector<double> fwd_[2], bwd_[2], sgd_;
  // Kernel seconds of each traced BN+GN+MBS step pair, per kind; flops and
  // seconds summed over the run for the GFLOP/s rates.
  std::vector<double> pair_s_[7];
  util::KernelStat total_[7];
};

}  // namespace

std::unique_ptr<Stage> make_train(const Options& opt, Report& rep) {
  return std::make_unique<TrainStage>(opt, rep);
}

}  // namespace mbs::perf
