#include "arch/gpu.h"

#include <algorithm>
#include <cmath>

#include "arch/systolic.h"

namespace mbs::arch {

namespace {

using core::Layer;
using core::LayerKind;

/// Occupancy-limited efficiency of one GEMM: the fraction of the GPU the
/// thread-block grid can fill. Small grids (few output tiles) strand SMs —
/// the effect Fig. 13 attributes the V100's losses to.
double gemm_utilization(const GpuModel& gpu, const GemmShape& s) {
  const double tiles = std::ceil(static_cast<double>(s.gh) / gpu.tile) *
                       std::ceil(static_cast<double>(s.gw) / gpu.tile);
  const double slots = static_cast<double>(gpu.sm_count) * gpu.blocks_per_sm;
  // Quantized wave occupancy: e.g. 1.25 waves of blocks run at 1.25/2 = 62%.
  const double waves = tiles / slots;
  const double occupancy = waves / std::ceil(waves);
  return std::min(1.0, occupancy) * gpu.gemm_efficiency;
}

/// One GEMM pass: compute-or-bandwidth bound plus launch overhead.
void add_gemm(const GpuModel& gpu, const Layer& l, int n, GemmPass pass,
              GpuStepResult& r) {
  const GemmShape s = gemm_shape(l, n, pass);
  const double flops = 2.0 * static_cast<double>(s.macs());
  const double compute = flops / (gpu.peak_flops * gemm_utilization(gpu, s));

  // DRAM movement: A (im2col-expanded when materialized: written by the
  // im2col kernel then read by the GEMM), B, and C.
  const double a_bytes = 2.0 * static_cast<double>(s.gh) * s.k;
  const double b_bytes = 2.0 * static_cast<double>(s.k) * s.gw;
  const double c_bytes = 2.0 * static_cast<double>(s.gh) * s.gw;
  double bytes = a_bytes + b_bytes + c_bytes;
  if (gpu.materialize_im2col && l.kind == LayerKind::kConv &&
      (l.kernel_h > 1 || l.kernel_w > 1))
    bytes += a_bytes;  // the expansion is first written to DRAM
  const double memory = bytes / gpu.mem_bw_bytes;

  r.compute_time_s += compute;
  r.memory_time_s += memory;
  r.overhead_s += gpu.kernel_overhead_s;
  r.dram_bytes += bytes;
  r.time_s += std::max(compute, memory) + gpu.kernel_overhead_s;
}

/// Bandwidth-bound vector layer (norm/act/pool/add): forward + backward.
void add_vector(const GpuModel& gpu, const Layer& l, int n, GpuStepResult& r) {
  const double in_b = static_cast<double>(l.input_bytes_per_sample()) * n;
  const double out_b = static_cast<double>(l.output_bytes_per_sample()) * n;
  // Forward: read input (+ an extra stats pass for norm), write output.
  // Backward: read gradient + stashed data, write input gradient.
  double bytes = in_b + out_b;
  if (l.kind == LayerKind::kNorm) bytes += in_b;
  bytes += 2.0 * (in_b + out_b);
  r.memory_time_s += bytes / gpu.mem_bw_bytes;
  r.dram_bytes += bytes;
  r.overhead_s += 2 * gpu.kernel_overhead_s;
  r.time_s += bytes / gpu.mem_bw_bytes + 2 * gpu.kernel_overhead_s;
}

}  // namespace

GpuStepResult simulate_gpu_step(const GpuModel& gpu, const core::Network& net,
                                int mini_batch) {
  GpuStepResult r;
  bool first_gemm = true;
  for (const core::Block& blk : net.blocks) {
    blk.for_each_layer([&](const Layer& l, int) {
      if (l.is_gemm()) {
        add_gemm(gpu, l, mini_batch, GemmPass::kForward, r);
        if (!first_gemm) add_gemm(gpu, l, mini_batch, GemmPass::kDataGrad, r);
        add_gemm(gpu, l, mini_batch, GemmPass::kWeightGrad, r);
        first_gemm = false;
      } else {
        add_vector(gpu, l, mini_batch, r);
      }
    });
  }
  return r;
}

}  // namespace mbs::arch
