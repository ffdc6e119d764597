// CacheStore: disk persistence for the Evaluator's memoized results.
//
// The in-memory Evaluator caches die with the process, so every bench run
// and every CI trajectory invocation starts cold. A CacheStore serializes
// the memoized network / schedule / traffic / step / GPU-step /
// systolic-step values to disk, keyed by the same stable Scenario cache
// keys the in-memory caches use. The Evaluator consults the store on an
// in-memory miss and records fresh computations for the next save(), so a
// repeated sweep starts warm and produces bit-identical output (values
// round-trip exactly via util::serde's hex-float encoding).
//
// The store is a disk layer, not a second memo: the Evaluator's caches are
// the only typed copies. A put frames the value's entry bytes into a
// pending map that save() empties; a load reads the pending bytes or the
// entry's file and checks and parses them outside the store's lock, which
// guards only the pending map and the counters. A long-lived store (the
// serve daemon's) therefore holds no more than one save()'s worth of
// unwritten entries.
//
// The on-disk layout is content-addressed and sharded per entry: each
// record lives in its own file
//
//   <path>.d/<stage>/<fnv1a64(key) as 16 hex digits>.rec
//
// written via temp file + atomic rename. Because distinct keys land in
// distinct files (each file embeds its full key; a hash collision reads as
// a miss and recomputes) and equal keys always serialize to identical
// bytes, any number of processes can read and write one warm cache
// directory concurrently without clobbering each other. save() is
// incremental: only entries put since the last save touch disk.
//
// There is exactly one entry format. Its header carries a format version,
// the stage, the full key and a schema stamp covering every serialized
// struct; an fnv1a64 checksum over the length-prefixed record body follows,
// so a torn write (a crash or injected fault that leaves a truncated file
// behind) is detected on load rather than trusted. The store is a cache,
// never a source of truth, so an entry whose stamp is not kSchemaStamp —
// written by an older or newer binary — is a plain miss: the file is left
// alone and overwritten when the recomputed value is saved. A file that
// fails validation is moved to `<shard_dir>/quarantine/` — never re-read,
// never able to wedge the store — and its key reads as a miss. All
// filesystem mutations route through util::fs, whose named fault sites
// (MBS_FAULTS) make these failure paths deterministically testable.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <map>
#include <string>
#include <utility>

#include "arch/gpu.h"
#include "core/network.h"
#include "sched/schedule.h"
#include "sched/traffic.h"
#include "sim/simulator.h"

namespace mbs::engine {

class CacheStore {
 public:
  /// Bumped when the token framing of an entry file itself changes.
  static constexpr int kFormatVersion = 1;
  /// Bumped (per stage) when a serialized struct gains/loses fields; any
  /// other stamp reads as a miss.
  /// net2: attention layers append a `heads` field.
  /// sched2: Group gained the `members` list (non-contiguous grouping).
  /// sched3: Group lost it again; groups are plain [first, last] ranges.
  /// sys1: the cycle-level systolic-step stage joined the store.
  /// svc2: entries carry an fnv1a64 checksum over a length-prefixed body.
  /// gpu2: overhead_s charges one launch per GEMM, the launch time_s adds.
  static constexpr const char* kSchemaStamp =
      "net2;sched3;traffic1;step1;gpu2;sys1;svc2";

  explicit CacheStore(std::string path);

  /// Store at $MBS_CACHE_DIR/evaluator.mbscache, or nullptr when the
  /// variable is unset or empty.
  static std::unique_ptr<CacheStore> from_env();

  // Lookups parse the entry (its pending put, else its shard file) into
  // `out` and return true on a hit; every call reads and parses anew. All
  // methods are thread-safe, and concurrent loads run in parallel.
  bool load_network(const std::string& key, core::Network* out);
  bool load_schedule(const std::string& key, sched::Schedule* out);
  bool load_traffic(const std::string& key, sched::Traffic* out);
  bool load_step(const std::string& key, sim::StepResult* out);
  bool load_gpu_step(const std::string& key, arch::GpuStepResult* out);
  bool load_systolic_step(const std::string& key,
                          arch::SystolicStepResult* out);

  void put_network(const std::string& key, const core::Network& v);
  void put_schedule(const std::string& key, const sched::Schedule& v);
  void put_traffic(const std::string& key, const sched::Traffic& v);
  void put_step(const std::string& key, const sim::StepResult& v);
  void put_gpu_step(const std::string& key, const arch::GpuStepResult& v);
  void put_systolic_step(const std::string& key,
                         const arch::SystolicStepResult& v);

  /// Writes every entry added since the last save to its own shard file
  /// (temp file + atomic rename; creates directories as needed). A failed
  /// write is retried up to MBS_CACHE_SAVE_RETRIES times with a linear
  /// MBS_CACHE_RETRY_MS backoff before the entry is left dirty for the
  /// next save(). Returns false if any write failed after retries, true
  /// otherwise (including the nothing-to-do case). Safe to call from many
  /// processes sharing one cache directory: equal keys write identical
  /// bytes.
  bool save();

  /// The base path the shard directory hangs off.
  const std::string& path() const { return path_; }
  /// Directory holding the per-entry shard files.
  std::string shard_dir() const { return path_ + ".d"; }
  /// Successful loads from shard files so far (each call counts).
  std::size_t loaded_entries() const;
  /// Entries loaded or queued: loaded_entries() plus the puts that queued
  /// a new pending entry.
  std::size_t entry_count() const;
  /// True when save() has something new to write.
  bool dirty() const;
  /// Cumulative count of entry writes that failed (disk full, unwritable
  /// directory, ...). Surfaced by the Driver as a warning + stat.
  std::size_t save_failures() const;
  /// Cumulative count of shard entry files that failed validation on load
  /// (torn write, bad checksum, wrong stage, parse failure) and were moved
  /// to `<shard_dir>/quarantine/`. Each such lookup reads as a miss and
  /// the value is recomputed; ServeCore surfaces the delta per query as
  /// the `degraded` stat.
  std::size_t corrupt_entries() const;

 private:
  template <typename T>
  bool load_entry(const char* stage, const std::string& key, T* out);
  template <typename T>
  void put_entry(const char* stage, const std::string& key, const T& v);
  std::string entry_file(const char* stage, const std::string& key) const;
  /// Moves a failed-validation entry file out of the shard tree so it is
  /// never re-read (callers hold mu_).
  void quarantine_entry(const char* stage, const std::string& key);

  std::string path_;

  mutable std::mutex mu_;
  /// Framed entry bytes not yet persisted, by (stage tag, key); ordered so
  /// save() writes deterministically. An entry leaves once its file is
  /// written, so the map holds at most what one save() has yet to write.
  std::map<std::pair<std::string, std::string>, std::string> pending_;
  std::size_t loaded_ = 0;
  std::size_t queued_ = 0;
  std::size_t save_failures_ = 0;
  std::size_t corrupt_entries_ = 0;
};

}  // namespace mbs::engine
