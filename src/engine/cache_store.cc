#include "engine/cache_store.h"

#include <unistd.h>

#include <chrono>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/env.h"
#include "util/fault.h"
#include "util/fnv.h"
#include "util/serde.h"

namespace mbs::engine {

namespace {

using util::serde::Reader;
using util::serde::Writer;

// ---- Record field lists. Each record lists its fields once, in file
// ---- order; Emit walks a list to serialize a value and Parse walks the
// ---- same list to read one back. Integers, enums and bools are int
// ---- tokens, doubles hex-float tokens, strings length-prefixed; a vector
// ---- is its length and then its elements. Field order is part of
// ---- kSchemaStamp: any change here must bump the stage's tag.

template <typename U, typename T>
concept Of = std::same_as<std::remove_const_t<U>, T>;

template <typename T>
concept IntToken = std::is_integral_v<T> || std::is_enum_v<T>;

struct Emit {
  Writer w;
  void operator()(const auto&... v) { (one(v), ...); }

 private:
  void one(double v) { w.put_double(v); }
  void one(const std::string& v) { w.put_string(v); }
  void one(IntToken auto v) { w.put_int(static_cast<std::int64_t>(v)); }
  template <typename T>
  void one(const std::vector<T>& v) {
    w.put_int(static_cast<std::int64_t>(v.size()));
    for (const T& e : v) one(e);
  }
  template <typename T>
    requires std::is_class_v<T>
  void one(const T& record) {
    fields(*this, record);
  }
};

struct Parse {
  Reader r;
  void operator()(auto&... v) { (one(v), ...); }

 private:
  void one(double& v) { v = r.read_double(); }
  void one(std::string& v) { v = r.read_string(); }
  template <IntToken T>
  void one(T& v) {
    v = static_cast<T>(r.read_int());
  }
  // The length is untrusted input: the vector grows one element per
  // successful read instead of reserving it.
  template <typename T>
  void one(std::vector<T>& v) {
    const std::int64_t n = r.read_int();
    for (std::int64_t i = 0; i < n && !r.fail(); ++i) {
      T e{};
      one(e);
      if (!r.fail()) v.push_back(std::move(e));
    }
  }
  template <typename T>
    requires std::is_class_v<T>
  void one(T& record) {
    fields(*this, record);
  }
};

void fields(auto& io, Of<core::FeatureShape> auto& s) { io(s.c, s.h, s.w); }

void fields(auto& io, Of<core::Layer> auto& l) {
  io(l.kind, l.name, l.in, l.out, l.kernel_h, l.kernel_w, l.stride, l.pad_h,
     l.pad_w, l.pool_kind, l.norm_kind, l.has_bias);
  // net2: attention layers append their head count; every other kind keeps
  // the net1 byte layout, so CNN records round-trip unchanged.
  if (l.kind == core::LayerKind::kAttention) io(l.heads);
}

void fields(auto& io, Of<core::Branch> auto& b) { io(b.layers); }

void fields(auto& io, Of<core::Block> auto& b) {
  io(b.kind, b.name, b.in, b.out, b.branches, b.merge);
}

void fields(auto& io, Of<core::Network> auto& n) {
  io(n.name, n.input, n.mini_batch_per_core, n.blocks);
}

void fields(auto& io, Of<sched::Group> auto& g) {
  io(g.first, g.last, g.sub_batch, g.iterations);
}

void fields(auto& io, Of<sched::Schedule> auto& s) {
  io(s.config, s.mini_batch, s.buffer_bytes, s.groups, s.block_footprint,
     s.block_max_sub);
}

void fields(auto& io, Of<sched::TrafficRecord> auto& t) {
  io(t.block, t.layer, t.kind, t.is_gemm, t.phase, t.cls, t.dram_read,
     t.dram_write, t.buf_read, t.buf_write);
}

void fields(auto& io, Of<sched::Traffic> auto& t) { io(t.records); }

void fields(auto& io, Of<sim::StepResult> auto& s) {
  io(s.time_s, s.dram_bytes, s.buffer_bytes, s.total_macs,
     s.systolic_utilization, s.compute_time_s, s.memory_time_s,
     s.time_by_type.conv, s.time_by_type.fc, s.time_by_type.norm,
     s.time_by_type.pool, s.time_by_type.sum, s.energy.dram_j,
     s.energy.buffer_j, s.energy.mac_j, s.energy.vector_j, s.energy.static_j);
}

void fields(auto& io, Of<arch::GpuStepResult> auto& s) {
  io(s.time_s, s.dram_bytes, s.compute_time_s, s.memory_time_s,
     s.overhead_s);
}

void fields(auto& io, Of<arch::SystolicStepResult> auto& s) {
  io(s.stats.comp_cycles, s.stats.stall_cycles, s.stats.util,
     s.stats.mapping_eff, s.time_s, s.compute_time_s, s.stall_time_s,
     s.dram_bytes, s.total_macs, s.bw_ifmap, s.bw_filter, s.bw_ofmap);
}

// A checksummed entry can still hold a schedule no step can run: a zero
// sub-batch divides by zero in chunk_classes, and uncovered blocks have no
// group. Such an entry is rejected (quarantined, read as a miss).
bool runnable(const sched::Schedule& s) {
  bool ok = s.mini_batch >= 1 && !s.groups.empty() &&
            s.block_max_sub.size() == s.block_footprint.size();
  std::int64_t next = 0;
  for (const sched::Group& g : s.groups) {
    ok = ok && g.first == next && g.last >= g.first && g.sub_batch >= 1 &&
         g.iterations >= 1;
    next = std::int64_t{g.last} + 1;
  }
  return ok && static_cast<std::size_t>(next) == s.block_footprint.size();
}

bool runnable(const auto&) { return true; }

}  // namespace

CacheStore::CacheStore(std::string path) : path_(std::move(path)) {}

std::unique_ptr<CacheStore> CacheStore::from_env() {
  const char* dir = std::getenv("MBS_CACHE_DIR");
  if (!dir || !*dir) return nullptr;
  return std::make_unique<CacheStore>(std::string(dir) +
                                      "/evaluator.mbscache");
}

namespace {

// Outcome of validating one shard entry file against the stage and key the
// caller asked for. The distinction matters because it decides the file's
// fate: a kMiss leaves the file alone (it is someone else's valid data — an
// fnv1a64 collision, or a writer whose stamp we don't share — and is
// overwritten when the recomputed value saves), while kCorrupt quarantines
// it (it can never validate for anyone).
enum class EntryStatus {
  kValid,  // record body is in `*body`, checksum verified
  kMiss,
  kCorrupt,
};

EntryStatus check_entry(const std::string& text, const char* stage,
                        const std::string& key, std::string* body) {
  Reader r(text);
  if (r.read_string() != "mbs-entry" || r.fail()) return EntryStatus::kCorrupt;
  if (r.read_int() != CacheStore::kFormatVersion || r.fail())
    return EntryStatus::kCorrupt;
  const std::string stamp = r.read_string();
  if (r.fail()) return EntryStatus::kCorrupt;
  if (stamp != CacheStore::kSchemaStamp) return EntryStatus::kMiss;
  if (r.read_string() != stage || r.fail()) return EntryStatus::kCorrupt;
  const std::string file_key = r.read_string();
  if (r.fail()) return EntryStatus::kCorrupt;
  if (file_key != key) return EntryStatus::kMiss;
  const std::uint64_t want = static_cast<std::uint64_t>(r.read_int());
  *body = r.read_string();
  if (r.fail() || !r.at_end()) return EntryStatus::kCorrupt;
  if (util::fnv1a64(*body) != want) return EntryStatus::kCorrupt;
  return EntryStatus::kValid;
}

char hex_digit(std::uint64_t v) {
  return "0123456789abcdef"[v & 0xf];
}

}  // namespace

std::string CacheStore::entry_file(const char* stage,
                                   const std::string& key) const {
  const std::uint64_t h = util::fnv1a64(key);
  std::string name(16, '0');
  for (int i = 0; i < 16; ++i) name[15 - i] = hex_digit(h >> (4 * i));
  return shard_dir() + "/" + stage + "/" + name + ".rec";
}

void CacheStore::quarantine_entry(const char* stage, const std::string& key) {
  const std::string src = entry_file(stage, key);
  const std::string qdir = shard_dir() + "/quarantine";
  std::error_code ec;
  std::filesystem::create_directories(qdir, ec);
  const std::string name = src.substr(src.rfind('/') + 1);
  const std::string dst = qdir + "/" + stage + "." + name;
  if (!util::fs::rename_file(src, dst, "cache.quarantine.rename")) {
    // Quarantine must never re-serve the bad bytes; if the move itself
    // fails, removal is the fallback.
    std::remove(src.c_str());
  }
  ++corrupt_entries_;
  std::fprintf(stderr, "CacheStore: quarantined corrupt entry %s (stage %s)\n",
               src.c_str(), stage);
}

// A lookup reads the (stage, key) entry's bytes — the pending put, else
// its shard file — and checks and parses them outside the lock. A file
// that fails validation (torn write, bad checksum, wrong stage, parse
// failure, unrunnable schedule) is quarantined and the lookup is a miss; a
// key mismatch or a foreign stamp is a plain miss that leaves the file
// alone.
template <typename T>
bool CacheStore::load_entry(const char* stage, const std::string& key,
                            T* out) {
  std::string text;
  bool pending = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = pending_.find({stage, key});
    if (it != pending_.end()) {
      text = it->second;
      pending = true;
    }
  }
  if (!pending && !util::fs::read_file(entry_file(stage, key), &text,
                                       "cache.entry.read"))
    return false;
  std::string body;
  const EntryStatus st = check_entry(text, stage, key, &body);
  if (st == EntryStatus::kMiss) return false;
  Parse in{Reader(body)};
  T v{};
  if (st == EntryStatus::kValid) in(v);
  const bool ok = st == EntryStatus::kValid && !in.r.fail() &&
                  in.r.at_end() && runnable(v);
  if (ok) *out = std::move(v);
  // Pending bytes are this store's own put: neither a disk load nor a file
  // to quarantine.
  if (pending) return ok;
  std::lock_guard<std::mutex> lock(mu_);
  if (ok)
    ++loaded_;
  else
    quarantine_entry(stage, key);
  return ok;
}

// A put frames the value's bytes once, outside the lock; a key already
// pending keeps its (equal) bytes.
template <typename T>
void CacheStore::put_entry(const char* stage, const std::string& key,
                           const T& v) {
  Emit body;
  body(v);
  // The record tokens are wrapped as one length-prefixed string with an
  // fnv1a64 checksum in front: a torn write breaks the length or the
  // checksum, never silently yields a shorter-but-parseable body.
  Writer w;
  w.put_string("mbs-entry");
  w.put_int(kFormatVersion);
  w.put_string(kSchemaStamp);
  w.put_string(stage);
  w.put_string(key);
  w.put_int(static_cast<std::int64_t>(util::fnv1a64(body.w.str())));
  w.put_string(body.w.str());
  std::lock_guard<std::mutex> lock(mu_);
  if (pending_.try_emplace({stage, key}, w.str() + "\n").second) ++queued_;
}

#define MBS_CACHE_STORE_STAGE(LoadFn, PutFn, Type, Stage)          \
  bool CacheStore::LoadFn(const std::string& key, Type* out) {     \
    return load_entry(Stage, key, out);                            \
  }                                                                \
  void CacheStore::PutFn(const std::string& key, const Type& v) {  \
    put_entry(Stage, key, v);                                      \
  }

MBS_CACHE_STORE_STAGE(load_network, put_network, core::Network, "net")
MBS_CACHE_STORE_STAGE(load_schedule, put_schedule, sched::Schedule, "sched")
MBS_CACHE_STORE_STAGE(load_traffic, put_traffic, sched::Traffic, "traffic")
MBS_CACHE_STORE_STAGE(load_step, put_step, sim::StepResult, "step")
MBS_CACHE_STORE_STAGE(load_gpu_step, put_gpu_step, arch::GpuStepResult, "gpu")
MBS_CACHE_STORE_STAGE(load_systolic_step, put_systolic_step,
                      arch::SystolicStepResult, "sys")

#undef MBS_CACHE_STORE_STAGE

bool CacheStore::save() {
  // Copy the pending entries under the lock, write them outside it; an
  // entry leaves the pending map only once its file is in place.
  std::vector<std::pair<std::pair<std::string, std::string>, std::string>>
      batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.empty()) return true;
    batch.assign(pending_.begin(), pending_.end());
  }
  const long retries = util::env_int("MBS_CACHE_SAVE_RETRIES", 3, 0, 100);
  const long backoff_ms = util::env_int("MBS_CACHE_RETRY_MS", 10, 0, 60000);
  bool all_ok = true;
  for (const auto& [id, text] : batch) {
    const auto& [stage, key] = id;
    bool ok = false;
    for (long attempt = 0; attempt <= retries && !ok; ++attempt) {
      if (attempt > 0 && backoff_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(backoff_ms * attempt));
      }
      ok = util::fs::write_atomic(entry_file(stage.c_str(), key), text,
                                  "cache.entry.write");
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (ok) {
      pending_.erase(id);
    } else {
      all_ok = false;
      ++save_failures_;
      std::fprintf(stderr,
                   "CacheStore: giving up on %s/%s after %ld attempts\n",
                   stage.c_str(), key.c_str(), retries + 1);
    }
  }
  return all_ok;
}

std::size_t CacheStore::loaded_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return loaded_;
}

std::size_t CacheStore::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return loaded_ + queued_;
}

bool CacheStore::dirty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !pending_.empty();
}

std::size_t CacheStore::save_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return save_failures_;
}

std::size_t CacheStore::corrupt_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return corrupt_entries_;
}

}  // namespace mbs::engine
