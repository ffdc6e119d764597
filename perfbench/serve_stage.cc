// Stage `serve`: a ServeCore over the store the cold sweep saved, driven by
// one client in a closed loop (the next query is sent when the previous one
// is answered), like mbs_serve's single stdin stream. The LRU holds 64
// answers, mbs_serve's default (MBS_SERVE_HOT). The query mix is
// bench/serve_replay's 90/9/1: 90% of queries draw uniformly from a 12-key
// hot set, 9% from the rest of the 279 warm keys (more than the LRU holds,
// so most of them are answered by the store tier), and 1% from 6 cold keys
// outside the sweep grid. Here a cold key is a systolic hardware point no
// one has asked for (a new df/spad over a warm schedule): its first query
// computes one stage and writes it through to the store, later ones are
// served warm. --seed picks the hot set, the cold keys and the draws. This
// is the only stage where per-query costs (parse, format, lock) show.
#include <cstdio>
#include <numeric>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "bench.h"
#include "engine/engine.h"
#include "engine/serve.h"
#include "models/zoo.h"
#include "trace.h"
#include "util/rng.h"
#include "util/units.h"

namespace mbs::perf {

namespace {

using engine::Scenario;
using engine::ServeCore;

constexpr std::size_t kHotCapacity = 64;
constexpr std::size_t kHotKeys = 12;
constexpr double kHotShare = 0.90;
constexpr double kColdShare = 0.01;
constexpr std::size_t kColdKeys = 6;
constexpr double kWindowSeconds = 0.25;
// Warm systolic keys use the default scratchpad; cold ones count up from
// just above it, so no cold key can ever equal a warm one.
constexpr std::int64_t kWarmSpad = arch::SystolicOptions{}.scratchpad_bytes;

}  // namespace

std::vector<std::string> serve_specs() {
  std::vector<std::string> specs;
  for (const std::string& net : models::all_network_names())
    for (sched::ExecConfig cfg : sched::all_exec_configs())
      for (std::int64_t mib : {5, 10, 20, 40})
        specs.push_back("net=" + net + ";cfg=" + sched::to_string(cfg) +
                        ";buf=" + std::to_string(mib * util::kMiB));
  for (const std::string& net : models::all_network_names())
    for (const char* cfg : {"MBS1", "MBS2"})
      for (const char* df : {"os", "ws", "is"})
        specs.push_back("net=" + net + ";cfg=" + cfg + ";buf=" +
                        std::to_string(10 * util::kMiB) +
                        ";dev=systolic;df=" + df);
  for (const std::string& net : models::all_network_names())
    specs.push_back("net=" + net + ";dev=gpu");
  return specs;
}

namespace {

Scenario parse(const std::string& spec) {
  Scenario s;
  std::string error;
  if (!engine::parse_scenario(spec, &s, &error))
    throw std::runtime_error("bad spec '" + spec + "': " + error);
  return s;
}

/// The seeded query stream: a seed-permuted warm key order whose first
/// kHotKeys keys are the hot set, and pools of never-seen systolic points
/// over the analytic warm keys.
class QueryStream {
 public:
  QueryStream(std::uint64_t seed, const std::vector<std::string>& specs,
              std::size_t analytic)
      : rng_(seed), specs_(specs), order_(specs.size()), analytic_(analytic) {
    std::iota(order_.begin(), order_.end(), 0);
    for (std::size_t i = order_.size() - 1; i > 0; --i)
      std::swap(order_[i], order_[rng_.uniform_int(i + 1)]);
  }

  /// A pool of kColdKeys points no query has named yet.
  std::vector<std::string> new_cold_keys() {
    static const char* const dfs[] = {"os", "ws", "is"};
    std::vector<std::string> cold;
    for (std::size_t k = 0; k < kColdKeys; ++k)
      cold.push_back(specs_[rng_.uniform_int(analytic_)] +
                     ";dev=systolic;df=" + dfs[rng_.uniform_int(3)] +
                     ";spad=" + std::to_string(kWarmSpad + 64 * ++spad_));
    return cold;
  }

  /// Returns the warm key index, or -1 with `spec` set to a query from
  /// `cold`.
  long next(const std::vector<std::string>& cold, std::string* spec) {
    const double u = rng_.uniform();
    if (u >= 1 - kColdShare) {
      *spec = cold[rng_.uniform_int(cold.size())];
      return -1;
    }
    const std::size_t idx =
        u < kHotShare
            ? order_[rng_.uniform_int(kHotKeys)]
            : order_[kHotKeys + rng_.uniform_int(order_.size() - kHotKeys)];
    *spec = specs_[idx];
    return static_cast<long>(idx);
  }

 private:
  util::Rng rng_;
  const std::vector<std::string>& specs_;
  std::vector<std::size_t> order_;
  std::size_t analytic_;
  std::int64_t spad_ = 0;
};

/// One ServeCore over the cold sweep's store and what its closed loop saw.
struct Loop {
  explicit Loop(const std::string& path)
      : store(path), core(&store, kHotCapacity) {}
  engine::CacheStore store;
  ServeCore core;
  std::vector<double> latency;  ///< seconds, every query
  /// Per window: p50 and p99 latency and queries per second.
  std::vector<double> win_p50, win_p99, win_qps;
  std::vector<double> tier[3];  ///< hot, store, computed
  std::vector<double> parse, format;
  std::vector<std::string> cold_specs, cold_answers;
};

const char* const kTierSpan[] = {"serve.query.hot", "serve.query.store",
                                 "serve.query.computed"};

/// Stage `serve`. An untraced run has one loop; a traced run has two, an
/// untraced and a traced one, each with its own ServeCore and cold keys,
/// and gives each half of every round.
class ServeStage : public Stage {
 public:
  ServeStage(const Options& opt, const SweepState& state, Report& rep)
      : opt_(opt), state_(state), rep_(rep), specs_(serve_specs()) {
    // The expected answers are the cold sweep's, from its storeless
    // Evaluator: every spec is a grid point.
    std::unordered_map<std::string, std::size_t> grid_index;
    for (std::size_t i = 0; i < state.grid.size(); ++i)
      grid_index.emplace(state.grid[i].cache_key(), i);
    std::size_t analytic = 0;
    for (const std::string& spec : specs_) {
      const Scenario s = parse(spec);
      if (s.device == engine::Device::kWaveCore) ++analytic;
      const std::size_t i = grid_index.at(s.cache_key());
      ref_results_.push_back(&state.results[i]);
      expected_.push_back(state.reference[i]);
    }
    stream_ = std::make_unique<QueryStream>(opt.seed, specs_, analytic);
    for (int i = 0; i < (opt.trace ? 2 : 1); ++i) {
      loops_.push_back(std::make_unique<Loop>(state.store_path));
      cold_pools_.push_back(stream_->new_cold_keys());
    }
  }

  void round(double seconds) override {
    // Pinned to the fastest CPU for the round (probe: parse and cache key
    // of every warm spec, the query front end).
    CpuPinner pinner;
    pinner.pin_fastest([&] {
      for (const std::string& spec : specs_)
        sink_ += parse(spec).cache_key().size();
    });
    for (std::size_t i = 0; i < loops_.size(); ++i)
      run(*loops_[i], cold_pools_[i], seconds / loops_.size(), i == 1);
  }

  void finish() override;

 private:
  /// The closed loop for `seconds`. Warm answers are checked as they
  /// arrive; cold answers are kept for checking in finish(). With
  /// `traced`, each query also gets a span, and parse_scenario /
  /// format_answer are timed on the side. Latencies are cut into windows
  /// of kWindowSeconds; the round's trailing partial window is dropped.
  void run(Loop& loop, const std::vector<std::string>& cold_pool,
           double seconds, bool traced) {
    Tracer::instance().set_on(traced);
    std::string spec;
    const auto start = std::chrono::steady_clock::now();
    auto window = start;
    std::size_t window_first = loop.latency.size();
    while (seconds_since(start) < seconds) {
      if (seconds_since(window) >= kWindowSeconds) {
        const std::vector<double> w(loop.latency.begin() + window_first,
                                    loop.latency.end());
        loop.win_p50.push_back(median(w));
        loop.win_p99.push_back(quantile(w, 0.99));
        loop.win_qps.push_back(static_cast<double>(w.size()) / sum(w));
        window = std::chrono::steady_clock::now();
        window_first = loop.latency.size();
      }
      const long idx = stream_->next(cold_pool, &spec);
      ++request_;
      if (traced) {
        Span p("serve.parse", 0, request_);
        Scenario s;
        std::string error;
        engine::parse_scenario(spec, &s, &error);
        loop.parse.push_back(p.stop());
      }
      Span q("serve.query", 0, request_);
      const ServeCore::Answer a = loop.core.query(spec);
      const int t = a.source == ServeCore::Source::kHot     ? 0
                    : a.source == ServeCore::Source::kStore ? 1
                                                            : 2;
      q.set_name(kTierSpan[t]);
      const double lat = q.stop();
      loop.latency.push_back(lat);
      loop.tier[t].push_back(lat);
      const bool ok =
          a.ok &&
          (idx < 0 || a.text == expected_[static_cast<std::size_t>(idx)]);
      rep_.check(ok);
      if (!ok)
        std::fprintf(stderr, "serve: wrong answer (tier %d) to '%s': %s\n", t,
                     spec.c_str(), a.text.c_str());
      if (idx < 0) {
        loop.cold_specs.push_back(spec);
        loop.cold_answers.push_back(a.text);
      } else if (traced) {
        const engine::ScenarioResult& r =
            *ref_results_[static_cast<std::size_t>(idx)];
        Span f("serve.format", 0, request_);
        const std::string text = ServeCore::format_answer(r.scenario, r);
        loop.format.push_back(f.stop());
      }
    }
    Tracer::instance().set_on(false);
  }

  const Options opt_;
  const SweepState& state_;
  Report& rep_;
  const std::vector<std::string> specs_;
  std::vector<const engine::ScenarioResult*> ref_results_;
  std::vector<std::string> expected_;
  std::unique_ptr<QueryStream> stream_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::vector<std::vector<std::string>> cold_pools_;
  std::int64_t request_ = 0;
  std::size_t sink_ = 0;
};

void ServeStage::finish() {
  rep_.check(sink_ > 0);
  // Cold answers: computed by the cold sweep's Evaluator, which already
  // holds every warm schedule, so only the new systolic stages run.
  std::vector<Scenario> cold;
  std::vector<std::string> cold_answers;
  for (const auto& loop : loops_)
    for (std::size_t i = 0; i < loop->cold_specs.size(); ++i) {
      cold.push_back(parse(loop->cold_specs[i]));
      cold_answers.push_back(loop->cold_answers[i]);
    }
  const std::vector<engine::ScenarioResult> cold_ref =
      engine::SweepRunner().run(cold, *state_.eval);
  int bad = 0;
  for (std::size_t i = 0; i < cold.size(); ++i) {
    const std::string want = ServeCore::format_answer(cold[i], cold_ref[i]);
    const bool ok = want == cold_answers[i];
    if (!ok)
      std::fprintf(stderr, "serve: cold answer %zu differs: got '%s', want "
                   "'%s'\n", i, cold_answers[i].c_str(), want.c_str());
    bad += !ok;
    rep_.check(ok);
  }
  for (const auto& loop : loops_) {
    const engine::ServeStats s = loop->core.stats();
    const double q = static_cast<double>(s.queries) / 100;
    std::printf("serve: %zu queries (hot %zu, store %zu, computed %zu = "
                "%.2f/%.2f/%.2f%%; errors %zu, degraded %zu)\n",
                s.queries, s.hot_hits, s.store_hits, s.computed,
                static_cast<double>(s.hot_hits) / q,
                static_cast<double>(s.store_hits) / q,
                static_cast<double>(s.computed) / q, s.errors, s.degraded);
    // Only the first query for each cold key computes.
    rep_.check(s.errors == 0 && s.degraded == 0 &&
               s.computed == std::set<std::string>(loop->cold_specs.begin(),
                                                   loop->cold_specs.end())
                                 .size());
  }
  std::printf("serve: %zu cold answers checked, %d mismatches\n", cold.size(),
              bad);

  const Loop& plain = *loops_[0];
  std::printf("serve: %zu windows; qps p10/p50/max %.0f/%.0f/%.0f, p50 "
              "min/p50/p90 %.3f/%.3f/%.3f us, p99 min/p50/p90 %.1f/%.1f/%.1f "
              "us\n",
              plain.win_qps.size(), quantile(plain.win_qps, 0.1),
              median(plain.win_qps), quantile(plain.win_qps, 1),
              quantile(plain.win_p50, 0) * 1e6, median(plain.win_p50) * 1e6,
              quantile(plain.win_p50, 0.9) * 1e6,
              quantile(plain.win_p99, 0) * 1e6, median(plain.win_p99) * 1e6,
              quantile(plain.win_p99, 0.9) * 1e6);
  if (!opt_.trace) {
    if (plain.win_qps.empty())
      throw std::runtime_error("serve: no full latency window");
    // The best window: the host's speed for this code drifts by up to
    // 1.7x in phases of seconds, and only the fastest windows were
    // comparable run to run.
    rep_.add("qps", quantile(plain.win_qps, 1), "1/s");
    rep_.add("latency_p50_us", quantile(plain.win_p50, 0) * 1e6, "us");
    rep_.add("latency_p99_us", quantile(plain.win_p99, 0) * 1e6, "us");
    return;
  }
  const Loop& traced = *loops_[1];
  const engine::ServeStats st = traced.core.stats();
  const char* tiers[] = {"hot", "store", "computed"};
  for (int t = 0; t < 3; ++t) {
    const std::string p = std::string("serve.tier_us.") + tiers[t];
    rep_.add(p + ".p50", median(traced.tier[t]) * 1e6, "us");
    rep_.add(p + ".p99", quantile(traced.tier[t], 0.99) * 1e6, "us");
  }
  rep_.add("serve.hot_hits", static_cast<double>(st.hot_hits), "count");
  rep_.add("serve.store_hits", static_cast<double>(st.store_hits), "count");
  rep_.add("serve.computed", static_cast<double>(st.computed), "count");
  rep_.add("serve.errors", static_cast<double>(st.errors), "count");
  rep_.add("serve.degraded", static_cast<double>(st.degraded), "count");
  rep_.add("serve.parse_us.p50", median(traced.parse) * 1e6, "us");
  rep_.add("serve.format_us.p50", median(traced.format) * 1e6, "us");
  rep_.overhead_pct.push_back(overhead_pct(plain.latency, traced.latency));
}

}  // namespace

std::unique_ptr<Stage> make_serve(const Options& opt, const SweepState& state,
                                  Report& rep) {
  return std::make_unique<ServeStage>(opt, state, rep);
}

}  // namespace mbs::perf
