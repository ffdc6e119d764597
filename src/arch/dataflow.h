// Systolic-array dataflow taxonomy for the cycle-level backend.
//
// The analytic wave model (simulate_gemm) hard-codes WaveCore's
// weight-stationary wave pipeline; the cycle-level backend
// (simulate_gemm_cycles, priced per step by sim::simulate_systolic_step) is
// parameterised over the three classic stationary choices so
// analytic-vs-cycle divergence can be attributed to mapping, not just
// bandwidth.
#pragma once

#include <cstring>

namespace mbs::arch {

/// Which GEMM operand stays pinned in the PE array across a fold.
enum class Dataflow {
  kOutputStationary,  ///< C tiles accumulate in place; A and B stream
  kWeightStationary,  ///< B (filter) folds preload; A streams, C drains
  kInputStationary,   ///< A (ifmap) folds preload; B streams, C drains
};

inline const char* to_string(Dataflow d) {
  switch (d) {
    case Dataflow::kOutputStationary: return "os";
    case Dataflow::kWeightStationary: return "ws";
    case Dataflow::kInputStationary: return "is";
  }
  return "?";
}

/// Parses "os" / "ws" / "is"; returns false (leaving *out untouched) on
/// anything else.
inline bool parse_dataflow(const char* s, Dataflow* out) {
  if (!s) return false;
  if (std::strcmp(s, "os") == 0) *out = Dataflow::kOutputStationary;
  else if (std::strcmp(s, "ws") == 0) *out = Dataflow::kWeightStationary;
  else if (std::strcmp(s, "is") == 0) *out = Dataflow::kInputStationary;
  else return false;
  return true;
}

}  // namespace mbs::arch
