// ServeCore: the query engine behind tools/mbs_serve and bench/serve_replay.
//
// The ROADMAP's north star is serving schedule/traffic/simulate answers to
// many clients, not re-running batch sweeps. ServeCore turns the Evaluator
// into exactly that: a query takes a textual Scenario spec
// (engine::parse_scenario), answers it from a three-level hierarchy —
//
//   1. in-memory LRU hot set (util::LruMap, bounded capacity) — O(1),
//      no disk, no compute;
//   2. the shared CacheStore (per-entry files, concurrent-reader safe) —
//      one file read, of the stage the answer prints, then hot;
//   3. a fresh Evaluator computing the missing stages (and writing them
//      through to the store for every future query);
//
// — and returns a deterministic one-line answer. Answers are formatted
// with %.17g (round-trip exact for doubles), so a served answer is
// string-equal to the batch-computed answer for the same Scenario if and
// only if every double is bit-identical; serve_replay and the sweep-service
// CI job assert exactly that equality.
//
// The per-query Evaluator is deliberately short-lived: the LRU and the
// store provide all cross-query reuse. Memory is bounded by the hot-set
// capacity plus one query's evaluation: the CacheStore keeps no copy of
// what it loads, and a query that computes saves its entries before it
// returns, so the store's pending map is empty between queries.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>

#include "engine/scenario.h"
#include "util/lru.h"

namespace mbs::engine {

class CacheStore;
struct ScenarioResult;

struct ServeStats {
  std::size_t queries = 0;    ///< total queries answered (incl. errors)
  std::size_t hot_hits = 0;   ///< answered from the in-memory LRU
  std::size_t store_hits = 0; ///< every missing stage came from the store
  std::size_t computed = 0;   ///< at least one stage ran the pipeline
  std::size_t errors = 0;     ///< malformed spec or unknown network
  /// Queries that hit store corruption mid-read (quarantined entries) and
  /// degraded gracefully to fresh evaluation. The answer is still correct
  /// — the store is a cache, never a source of truth — but the latency
  /// tier was worse than it should have been; a rising count means the
  /// disk under the store is eating writes.
  std::size_t degraded = 0;
};

class ServeCore {
 public:
  /// Where a query's answer came from (the latency tiers serve_replay
  /// buckets by).
  enum class Source { kHot, kStore, kComputed, kError };

  struct Answer {
    bool ok = false;
    /// One line: the stage's metrics (`time_s=... dram_bytes=...`) on
    /// success, a parse/lookup error message otherwise.
    std::string text;
    Source source = Source::kError;
  };

  /// Serves against `store` (may be null: everything computes) with an
  /// in-memory hot set of `hot_capacity` answers. Env default for the
  /// binaries: MBS_SERVE_HOT (tools/mbs_serve, bench/serve_replay).
  explicit ServeCore(CacheStore* store, std::size_t hot_capacity = 64);

  /// Answers one Scenario-spec query. Thread-safe (serialized; the hot
  /// path is O(1) under the lock, so the daemon's worst case is one cold
  /// evaluation ahead of you in line).
  Answer query(const std::string& spec);

  ServeStats stats() const;

  /// The canonical one-line rendering of an evaluated scenario, shared by
  /// the serve path and the batch-verification side of serve_replay:
  /// string equality of answers is double-bit equality of results. It
  /// reads only the result of the stage it prints (`gpu` for kGpu, else
  /// the network, schedule or traffic at those stages, else `systolic` or
  /// `step`).
  static std::string format_answer(const Scenario& s,
                                   const ScenarioResult& r);

 private:
  CacheStore* store_;
  mutable std::mutex mu_;
  util::LruMap<std::string> hot_;
  ServeStats stats_;
};

}  // namespace mbs::engine
