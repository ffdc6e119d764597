#include "engine/scenario.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "arch/dataflow.h"

namespace mbs::engine {

namespace {

/// Appends one `name=value` field to a key. Doubles print with %.17g so
/// distinct configurations can never collide after rounding.
void field(std::string& key, const char* name, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%.17g;", name, v);
  key += buf;
}

void field(std::string& key, const char* name, std::int64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%lld;", name,
                static_cast<long long>(v));
  key += buf;
}

void field(std::string& key, const char* name, int v) {
  field(key, name, static_cast<std::int64_t>(v));
}

void field(std::string& key, const char* name, bool v) {
  key += name;
  key += v ? "=1;" : "=0;";
}

void field(std::string& key, const char* name, const std::string& v) {
  key += name;
  key += '=';
  key += v;
  key += ';';
}

}  // namespace

const char* to_string(Device d) {
  switch (d) {
    case Device::kWaveCore: return "WaveCore";
    case Device::kGpu: return "GPU";
    case Device::kSystolic: return "Systolic";
  }
  return "?";
}

std::string Scenario::network_key() const {
  // The bare name at the default sequence length, so every pre-seq network
  // key keeps its exact bytes.
  if (seq == 0) return network;
  return network + ";seq=" + std::to_string(seq);
}

std::string Scenario::schedule_key() const {
  std::string key;
  field(key, "net", network);
  field(key, "cfg", std::string(sched::to_string(config)));
  field(key, "buf", params.buffer_bytes);
  field(key, "mb", params.mini_batch);
  field(key, "opt", params.optimal_grouping);
  field(key, "ft", static_cast<int>(params.feature_type));
  // Appended only when non-default so every pre-seq key keeps its exact
  // bytes.
  if (seq != 0) field(key, "seq", seq);
  return key;
}

std::string Scenario::cache_key() const {
  if (device == Device::kGpu) {
    std::string key;
    field(key, "dev", std::string("gpu"));
    field(key, "net", network);
    if (seq != 0) field(key, "seq", seq);
    field(key, "gmb", gpu_mini_batch);
    field(key, "flops", gpu.peak_flops);
    field(key, "bw", gpu.mem_bw_bytes);
    field(key, "sm", gpu.sm_count);
    field(key, "tile", gpu.tile);
    field(key, "bps", gpu.blocks_per_sm);
    field(key, "ko", gpu.kernel_overhead_s);
    field(key, "eff", gpu.gemm_efficiency);
    field(key, "im2col", gpu.materialize_im2col);
    return key;
  }
  std::string key;
  // Like seq in schedule_key(): the device tag appears only for
  // non-default devices, so every pre-existing kWaveCore key keeps its
  // exact bytes. No collision is possible: kWaveCore keys start with the
  // net field, never with a dev field.
  if (device == Device::kSystolic) field(key, "dev", std::string("systolic"));
  key += schedule_key();
  field(key, "rows", hw.systolic.rows);
  field(key, "cols", hw.systolic.cols);
  field(key, "clk", hw.systolic.clock_hz);
  field(key, "acc", hw.systolic.acc_half_bytes);
  field(key, "mem", hw.memory.name);
  field(key, "membw", hw.memory.bandwidth_bytes_per_s);
  field(key, "memcap", hw.memory.capacity_bytes);
  field(key, "memch", hw.memory.channels);
  field(key, "mempj", hw.memory.energy_pj_per_byte);
  field(key, "cores", hw.cores);
  field(key, "gbuf", hw.global_buffer_bytes);
  field(key, "gbw", hw.buffer_bw_bytes);
  field(key, "vflops", hw.vector_flops);
  field(key, "edram", hw.energy.dram_pj_per_byte);
  field(key, "ebuf", hw.energy.buffer_pj_per_byte);
  field(key, "emac", hw.energy.mac_pj);
  field(key, "evec", hw.energy.vector_op_pj);
  field(key, "ezero", hw.energy.zero_skip_fraction);
  field(key, "estat", hw.energy.static_power_w);
  field(key, "nobw", hw.unlimited_dram_bw);
  if (device == Device::kSystolic) {
    field(key, "df", std::string(arch::to_string(systolic.dataflow)));
    field(key, "spad", systolic.scratchpad_bytes);
  }
  return key;
}

namespace {

constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();

/// Parses a decimal integer in [lo, hi]. On failure returns the reason —
/// not an integer, or outside the range (strtoll's saturation included) —
/// and leaves *out untouched; an empty string on success.
std::string parse_int(const std::string& v, std::int64_t lo, std::int64_t hi,
                      std::int64_t* out) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0') return "not an integer";
  if (errno == ERANGE || parsed < lo || parsed > hi)
    return "outside [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
  *out = parsed;
  return "";
}

bool parse_bool(const std::string& v, bool* out) {
  if (v == "0")
    *out = false;
  else if (v == "1")
    *out = true;
  else
    return false;
  return true;
}

std::string trim(const std::string& s) {
  std::size_t a = 0, b = s.size();
  while (a < b && (s[a] == ' ' || s[a] == '\t')) ++a;
  while (b > a && (s[b - 1] == ' ' || s[b - 1] == '\t')) --b;
  return s.substr(a, b - a);
}

}  // namespace

bool parse_scenario(const std::string& spec, Scenario* out,
                    std::string* error) {
  Scenario s;
  bool have_net = false;
  const auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string tok = trim(spec.substr(pos, end - pos));
    pos = end + 1;
    if (tok.empty()) continue;  // stray/trailing semicolons are fine
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos)
      return fail("field '" + tok + "': expected key=value");
    const std::string key = trim(tok.substr(0, eq));
    const std::string value = trim(tok.substr(eq + 1));
    std::int64_t i64 = 0;
    bool b = false;
    // Integer fields: true when `value` parsed into i64 within [lo, hi];
    // otherwise fails with the reason.
    const auto int_in = [&](std::int64_t lo, std::int64_t hi,
                            const char* unit) {
      const std::string why = parse_int(value, lo, hi, &i64);
      return why.empty() ||
             fail("bad " + key + " '" + value + "': " + why + " (" + unit +
                  ")");
    };
    if (key == "net") {
      s.network = value;
      have_net = !value.empty();
    } else if (key == "seq") {
      if (!int_in(0, kIntMax, "tokens")) return false;
      s.seq = static_cast<int>(i64);
    } else if (key == "cfg") {
      if (!sched::parse_exec_config(value.c_str(), &s.config))
        return fail("unknown cfg '" + value +
                    "' (Baseline|ArchOpt|IL|MBS-FS|MBS1|MBS2)");
    } else if (key == "buf") {
      if (!int_in(1, kI64Max, "bytes")) return false;
      s.params.buffer_bytes = i64;
    } else if (key == "mb") {
      if (!int_in(0, kIntMax, "samples")) return false;
      s.params.mini_batch = static_cast<int>(i64);
    } else if (key == "opt") {
      if (!parse_bool(value, &b)) return fail("bad opt '" + value + "'");
      s.params.optimal_grouping = b;
    } else if (key == "dev") {
      if (value == "wavecore")
        s.device = Device::kWaveCore;
      else if (value == "gpu")
        s.device = Device::kGpu;
      else if (value == "systolic")
        s.device = Device::kSystolic;
      else
        return fail("bad dev '" + value + "' (wavecore|gpu|systolic)");
    } else if (key == "df") {
      if (!arch::parse_dataflow(value.c_str(), &s.systolic.dataflow))
        return fail("bad df '" + value + "' (os|ws|is)");
    } else if (key == "spad") {
      if (!int_in(1, kI64Max, "bytes")) return false;
      s.systolic.scratchpad_bytes = i64;
    } else if (key == "gmb") {
      if (!int_in(1, kIntMax, "samples")) return false;
      s.gpu_mini_batch = static_cast<int>(i64);
    } else if (key == "nobw") {
      if (!parse_bool(value, &b)) return fail("bad nobw '" + value + "'");
      s.hw.unlimited_dram_bw = b;
    } else if (key == "stage") {
      if (value == "network")
        s.stage = Stage::kNetwork;
      else if (value == "schedule")
        s.stage = Stage::kSchedule;
      else if (value == "traffic")
        s.stage = Stage::kTraffic;
      else if (value == "simulate")
        s.stage = Stage::kSimulate;
      else
        return fail("bad stage '" + value +
                    "' (network|schedule|traffic|simulate)");
    } else {
      return fail("unknown field '" + key + "'");
    }
  }
  if (!have_net) return fail("missing required field net=<network>");
  *out = s;
  return true;
}

std::vector<Scenario> scenario_grid(
    const std::vector<std::string>& networks,
    const std::vector<sched::ExecConfig>& configs,
    const sched::ScheduleParams& params, const sim::WaveCoreConfig& hw,
    Stage stage) {
  std::vector<Scenario> out;
  out.reserve(networks.size() * configs.size());
  for (const std::string& net : networks)
    for (sched::ExecConfig cfg : configs) {
      Scenario s;
      s.network = net;
      s.config = cfg;
      s.params = params;
      s.hw = hw;
      s.stage = stage;
      out.push_back(std::move(s));
    }
  return out;
}

}  // namespace mbs::engine
