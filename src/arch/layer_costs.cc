#include "arch/layer_costs.h"

#include "core/network.h"
#include "sched/traffic.h"

namespace mbs::arch {

using core::Layer;
using core::LayerKind;

double vector_ops_fwd(const Layer& l) {
  return static_cast<double>(l.flops_per_sample());
}

double vector_ops_bwd(const Layer& l) {
  switch (l.kind) {
    case LayerKind::kNorm:
      // Gradients w.r.t. input plus scale/shift parameter gradients.
      return 2.0 * static_cast<double>(l.flops_per_sample());
    case LayerKind::kAct:
      return static_cast<double>(l.in.elements());
    case LayerKind::kPool:
      return static_cast<double>(l.out.elements());
    case LayerKind::kAdd:
    case LayerKind::kConcat:
      return 0;  // backward is gradient routing
    default:
      return 0;
  }
}

double attention_softmax_ops(const Layer& l) {
  const double s = static_cast<double>(l.in.h) * l.in.w;
  return 4.0 * l.heads * s * s;
}

LayerBytesTable layer_bytes(const core::Network& net,
                            const sched::Traffic& traffic) {
  LayerBytesTable table(net.blocks.size());
  for (std::size_t bi = 0; bi < net.blocks.size(); ++bi)
    table[bi].resize(static_cast<std::size_t>(net.blocks[bi].layer_count()));
  for (const sched::TrafficRecord& r : traffic.records) {
    // Traffic may come from a store on disk: a record naming a layer the
    // network lacks is charged to no layer.
    if (r.block < 0 || static_cast<std::size_t>(r.block) >= table.size())
      continue;
    std::vector<LayerBytes>& block = table[static_cast<std::size_t>(r.block)];
    if (r.layer < 0 || static_cast<std::size_t>(r.layer) >= block.size())
      continue;
    LayerBytes& lb = block[static_cast<std::size_t>(r.layer)];
    const int ph = r.phase == sched::Phase::kForward ? 0 : 1;
    lb.dram[ph] += r.dram_read + r.dram_write;
    lb.buf[ph] += r.buf_read + r.buf_write;
  }
  return table;
}

}  // namespace mbs::arch
