#include "engine/serve.h"

#include <cstdio>
#include <exception>

#include "engine/cache_store.h"
#include "engine/evaluator.h"
#include "engine/sweep_runner.h"
#include "models/zoo.h"

namespace mbs::engine {

namespace {

void num(std::string& out, const char* name, double v) {
  char buf[64];
  // %.17g round-trips doubles exactly: equal strings <=> equal bits.
  std::snprintf(buf, sizeof buf, "%s%s=%.17g", out.empty() ? "" : " ", name,
                v);
  out += buf;
}

void num(std::string& out, const char* name, std::int64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s%s=%lld", out.empty() ? "" : " ", name,
                static_cast<long long>(v));
  out += buf;
}

}  // namespace

std::string ServeCore::format_answer(const Scenario& s,
                                     const ScenarioResult& r) {
  std::string out;
  if (s.device == Device::kGpu) {
    num(out, "time_s", r.gpu.time_s);
    num(out, "dram_bytes", r.gpu.dram_bytes);
    num(out, "compute_s", r.gpu.compute_time_s);
    num(out, "memory_s", r.gpu.memory_time_s);
    num(out, "overhead_s", r.gpu.overhead_s);
    return out;
  }
  if (s.stage == Stage::kNetwork) {
    num(out, "blocks", static_cast<std::int64_t>(r.network->blocks.size()));
    num(out, "layers", static_cast<std::int64_t>(r.network->layer_count()));
    num(out, "params", r.network->param_count());
    return out;
  }
  if (s.stage == Stage::kSchedule) {
    num(out, "mb", static_cast<std::int64_t>(r.schedule->mini_batch));
    num(out, "groups", static_cast<std::int64_t>(r.schedule->groups.size()));
    for (std::size_t i = 0; i < r.schedule->groups.size(); ++i) {
      const sched::Group& g = r.schedule->groups[i];
      char buf[96];
      std::snprintf(buf, sizeof buf, " g%zu=%d-%d/%dx%d", i, g.first, g.last,
                    g.sub_batch, g.iterations);
      out += buf;
    }
    return out;
  }
  if (s.stage == Stage::kTraffic) {
    num(out, "records", static_cast<std::int64_t>(r.traffic->records.size()));
    num(out, "dram_bytes", r.traffic->dram_bytes());
    return out;
  }
  if (s.device == Device::kSystolic) {
    num(out, "comp_cycles", r.systolic.stats.comp_cycles);
    num(out, "stall_cycles", r.systolic.stats.stall_cycles);
    num(out, "util", r.systolic.stats.util);
    num(out, "mapping_eff", r.systolic.stats.mapping_eff);
    num(out, "time_s", r.systolic.time_s);
    num(out, "dram_bytes", r.systolic.dram_bytes);
    return out;
  }
  num(out, "time_s", r.step.time_s);
  num(out, "dram_bytes", r.step.dram_bytes);
  num(out, "buffer_bytes", r.step.buffer_bytes);
  num(out, "macs", r.step.total_macs);
  num(out, "util", r.step.systolic_utilization);
  num(out, "compute_s", r.step.compute_time_s);
  num(out, "memory_s", r.step.memory_time_s);
  num(out, "energy_j", r.step.energy.dram_j + r.step.energy.buffer_j +
                           r.step.energy.mac_j + r.step.energy.vector_j +
                           r.step.energy.static_j);
  return out;
}

ServeCore::ServeCore(CacheStore* store, std::size_t hot_capacity)
    : store_(store), hot_(hot_capacity) {}

ServeCore::Answer ServeCore::query(const std::string& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.queries;

  Scenario s;
  std::string error;
  if (!parse_scenario(spec, &s, &error)) {
    ++stats_.errors;
    return {false, "bad query: " + error, Source::kError};
  }
  // Validate the network name up front: an unknown name must be a clean
  // error answer, not a died-in-the-model-zoo daemon.
  bool known = false;
  for (const std::string& name : models::all_network_names())
    known = known || name == s.network;
  if (!known) {
    ++stats_.errors;
    return {false, "unknown network '" + s.network + "'", Source::kError};
  }
  // Same for the sequence-length override: seq on a CNN or a non-square
  // ViT grid would assert inside the model zoo.
  std::string seq_why;
  if (!models::valid_sequence_length(s.network, s.seq, &seq_why)) {
    ++stats_.errors;
    return {false, "bad query: " + seq_why, Source::kError};
  }

  // The stage is not part of cache_key (stages memoize independently), but
  // two queries differing only in depth have different answers.
  const std::string key =
      s.cache_key() + "#stage=" + std::to_string(static_cast<int>(s.stage));
  if (const std::string* hit = hot_.get(key)) {
    ++stats_.hot_hits;
    return {true, *hit, Source::kHot};
  }

  // Short-lived evaluator: all cross-query reuse lives in the LRU and the
  // store, which keeps no copy of what it loads. Only the stage the answer
  // prints is fetched, so a store hit reads that one entry; the stages it
  // depends on are read (or computed) only when it must be computed.
  // Any failure in here — including store corruption discovered mid-read,
  // which quarantines the bad entry and recomputes — must stay confined
  // to this query: the daemon answers it (or errors it) and lives on.
  const std::size_t corrupt_before = store_ ? store_->corrupt_entries() : 0;
  Evaluator eval(store_);
  ScenarioResult r;
  try {
    if (s.device == Device::kGpu)
      r.gpu = eval.gpu_step(s);
    else if (s.stage == Stage::kNetwork)
      r.network = &eval.network(s);
    else if (s.stage == Stage::kSchedule)
      r.schedule = &eval.schedule(s);
    else if (s.stage == Stage::kTraffic)
      r.traffic = &eval.traffic(s);
    else if (s.device == Device::kSystolic)
      r.systolic = eval.systolic_step(s);
    else
      r.step = eval.step(s);
  } catch (const std::exception& e) {
    ++stats_.errors;
    return {false, std::string("evaluation failed: ") + e.what(),
            Source::kError};
  }
  if (store_ && store_->corrupt_entries() > corrupt_before)
    ++stats_.degraded;
  const EvaluatorStats st = eval.stats();
  const std::int64_t misses = st.network_misses + st.schedule_misses +
                              st.traffic_misses + st.step_misses +
                              st.gpu_misses + st.systolic_misses;
  const std::int64_t disk = st.network_disk_hits + st.schedule_disk_hits +
                            st.traffic_disk_hits + st.step_disk_hits +
                            st.gpu_disk_hits + st.systolic_disk_hits;
  if (misses == disk) {
    ++stats_.store_hits;
  } else {
    ++stats_.computed;
    // Write-through: the next process (or crash-restarted daemon) starts
    // warm for this key.
    if (store_) store_->save();
  }
  std::string text = format_answer(s, r);
  hot_.put(key, text);
  return {true, std::move(text),
          misses == disk ? Source::kStore : Source::kComputed};
}

ServeStats ServeCore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace mbs::engine
