#include "sched/traffic.h"

#include <algorithm>
#include <cassert>

namespace mbs::sched {

using core::Block;
using core::DataType;
using core::Layer;
using core::LayerKind;
using core::Network;

/// A layer with global (block, layer-within-block) indices and resolved
/// input/output tensor ids.
struct FlatLayer {
  int block = 0;
  int layer = 0;
  const Layer* l = nullptr;
  std::vector<int> in_tensors;
  int out_tensor = -1;
};

/// A tensor edge in the dataflow graph: produced once, consumed by one or
/// more layers (block inputs fan out to every branch).
struct TensorInfo {
  int producer = -1;  ///< flat layer index; -1 for the network input
  int producer_block = -1;
  std::vector<int> consumers;  ///< flat layer indices, in execution order
  std::int64_t bytes_ps = 0;   ///< per-sample bytes (16b features)
  std::int64_t elems_ps = 0;
  bool network_input = false;
  bool feeds_merge = false;    ///< consumed by a merge layer (Add/Concat)
};

/// Whole-network dataflow graph at tensor granularity. It depends on the
/// network only, so one graph serves every schedule of that network.
struct Dataflow {
  std::vector<FlatLayer> layers;
  std::vector<TensorInfo> tensors;
  int first_gemm_flat = -1;  ///< first conv/fc: its data-gradient is skipped
};

namespace {

constexpr DataType kFeat = DataType::kF16;

Dataflow build_dataflow(const Network& net) {
  Dataflow df;

  auto add_tensor = [&](int producer, int block, std::int64_t elems) {
    TensorInfo t;
    t.producer = producer;
    t.producer_block = block;
    t.elems_ps = elems;
    t.bytes_ps = core::bytes_for(elems, kFeat);
    df.tensors.push_back(t);
    return static_cast<int>(df.tensors.size()) - 1;
  };

  // Network input.
  int cur = add_tensor(-1, -1, net.input.elements());
  df.tensors[static_cast<std::size_t>(cur)].network_input = true;

  for (std::size_t bi = 0; bi < net.blocks.size(); ++bi) {
    const Block& blk = net.blocks[bi];
    const int block_in_tensor = cur;
    int layer_in_block = 0;

    auto add_layer = [&](const Layer& l) {
      FlatLayer fl;
      fl.block = static_cast<int>(bi);
      fl.layer = layer_in_block++;
      fl.l = &l;
      df.layers.push_back(fl);
      return static_cast<int>(df.layers.size()) - 1;
    };
    auto connect = [&](int flat, int in_tensor) {
      df.layers[static_cast<std::size_t>(flat)].in_tensors.push_back(in_tensor);
      df.tensors[static_cast<std::size_t>(in_tensor)].consumers.push_back(flat);
    };

    // Branch chains. The identity branch contributes its (= the block's)
    // input tensor directly to the merge.
    std::vector<int> branch_out_tensors;
    for (const core::Branch& branch : blk.branches) {
      int t = block_in_tensor;
      for (const Layer& l : branch.layers) {
        const int flat = add_layer(l);
        connect(flat, t);
        t = add_tensor(flat, static_cast<int>(bi), l.out.elements());
        df.layers[static_cast<std::size_t>(flat)].out_tensor = t;
        if (df.first_gemm_flat < 0 && l.is_gemm()) df.first_gemm_flat = flat;
      }
      branch_out_tensors.push_back(t);
    }

    // Merge chain: the first merge layer consumes every branch output; the
    // rest form a chain.
    int t = branch_out_tensors.empty() ? block_in_tensor
                                       : branch_out_tensors[0];
    for (std::size_t mi = 0; mi < blk.merge.size(); ++mi) {
      const Layer& l = blk.merge[mi];
      const int flat = add_layer(l);
      if (mi == 0 && (l.kind == LayerKind::kAdd || l.kind == LayerKind::kConcat)) {
        for (int bt : branch_out_tensors) {
          connect(flat, bt);
          df.tensors[static_cast<std::size_t>(bt)].feeds_merge = true;
        }
      } else {
        connect(flat, t);
      }
      t = add_tensor(flat, static_cast<int>(bi), l.out.elements());
      df.layers[static_cast<std::size_t>(flat)].out_tensor = t;
    }
    cur = blk.merge.empty() ? branch_out_tensors[0] : t;
  }
  return df;
}

/// True when this layer's backward pass needs its 16b forward input
/// (convolution/FC weight gradients, normalization gradients, attention's
/// Q/K/V operands).
bool needs_input_stash(const Layer& l) {
  return l.kind == LayerKind::kConv || l.kind == LayerKind::kFc ||
         l.kind == LayerKind::kNorm || l.kind == LayerKind::kAttention;
}

/// Per-sample working-set bytes of a layer viewed in isolation. Attention
/// additionally holds its heads x S x S score matrix between the two GEMMs.
std::int64_t layer_ws(const Layer& l) {
  return l.input_bytes_per_sample(kFeat) + l.output_bytes_per_sample(kFeat) +
         l.attention_score_bytes_per_sample(kFeat);
}

/// Builder sink for compute_traffic: keeps every record.
struct RecordSink {
  Traffic out;

  void add(const FlatLayer& fl, Phase phase, TrafficClass cls, double dram_rd,
           double dram_wr, double buf_rd, double buf_wr) {
    TrafficRecord r;
    r.block = fl.block;
    r.layer = fl.layer;
    r.kind = fl.l->kind;
    r.is_gemm = fl.l->is_gemm();
    r.phase = phase;
    r.cls = cls;
    r.dram_read = dram_rd;
    r.dram_write = dram_wr;
    // Every DRAM transfer also moves through the global buffer.
    r.buf_read = buf_rd + dram_wr;
    r.buf_write = buf_wr + dram_rd;
    out.records.push_back(r);
  }
};

/// Builder sink for the grouping objective: two running DRAM sums, each
/// added in record order exactly as Traffic::dram_read_bytes() and
/// dram_write_bytes() add them.
struct DramSumSink {
  double read = 0;
  double write = 0;

  void add(const FlatLayer&, Phase, TrafficClass, double dram_rd,
           double dram_wr, double, double) {
    read += dram_rd;
    write += dram_wr;
  }
};

/// Walks every tensor edge and layer of `df` under one schedule and hands
/// each traffic contribution to `Sink::add`, in record order.
template <class Sink>
class TrafficBuilder {
 public:
  /// `block_group` is scratch space: it is refilled with the owning group
  /// of every block (-1 for none, as Schedule::group_of_block reports).
  TrafficBuilder(const Network& net, const Dataflow& df, const Schedule& sched,
                 std::vector<int>& block_group)
      : net_(net), sched_(sched), df_(df), block_group_(block_group),
        n_(sched.mini_batch), masks_(uses_relu_masks(sched.config)) {
    const int n_blocks = static_cast<int>(net.blocks.size());
    block_group_.assign(static_cast<std::size_t>(n_blocks), -1);
    for (std::size_t g = 0; g < sched.groups.size(); ++g) {
      const Group& grp = sched.groups[g];
      for (int b = std::max(grp.first, 0);
           b <= std::min(grp.last, n_blocks - 1); ++b) {
        int& owner = block_group_[static_cast<std::size_t>(b)];
        if (owner < 0) owner = static_cast<int>(g);  // first owner wins
      }
    }
  }

  Sink run() {
    for (std::size_t ti = 0; ti < df_.tensors.size(); ++ti)
      emit_tensor(static_cast<int>(ti));
    for (std::size_t fi = 0; fi < df_.layers.size(); ++fi)
      emit_layer(static_cast<int>(fi));
    return std::move(sink_);
  }

 private:
  int group_of_block(int block) const {
    return block_group_[static_cast<std::size_t>(block)];
  }

  int iterations_of_block(int block) const {
    const int g = group_of_block(block);
    return g < 0 ? 1 : sched_.groups[static_cast<std::size_t>(g)].iterations;
  }

  /// Does the edge tensor->consumer move through DRAM?
  bool edge_via_dram(int tensor, int consumer_flat) const {
    const TensorInfo& t = df_.tensors[static_cast<std::size_t>(tensor)];
    if (t.network_input) return true;
    const FlatLayer& c = df_.layers[static_cast<std::size_t>(consumer_flat)];
    const ExecConfig cfg = sched_.config;

    if (cfg == ExecConfig::kBaseline || cfg == ExecConfig::kArchOpt)
      return true;

    // Rank of this consumer among the tensor's consumers (fan-out order).
    const auto it = std::find(t.consumers.begin(), t.consumers.end(),
                              consumer_flat);
    const int rank = static_cast<int>(it - t.consumers.begin());

    // Is this the branch output that reaches the merge layer last (and can
    // therefore stay resident without extra provisioning)?
    const bool is_last_merge_operand = [&] {
      if (!t.feeds_merge) return false;
      const std::vector<int>& ins = c.in_tensors;
      int latest = -2;
      for (int in : ins) {
        const int p = df_.tensors[static_cast<std::size_t>(in)].producer;
        latest = std::max(latest, p);
      }
      return t.producer == latest;
    }();

    if (cfg == ExecConfig::kIL) {
      // On chip only when the whole mini-batch fits at both endpoints.
      const std::int64_t p_ws =
          t.producer < 0 ? 0
                         : layer_ws(*df_.layers[static_cast<std::size_t>(
                                         t.producer)].l);
      const std::int64_t need =
          static_cast<std::int64_t>(n_) * std::max(p_ws, layer_ws(*c.l));
      if (need > sched_.buffer_bytes) return true;
      // Cross-branch sharing additionally requires Eq. 1/2 provisioning for
      // the whole mini-batch.
      if ((rank > 0) || (t.feeds_merge && !is_last_merge_operand)) {
        const Block& blk = net_.blocks[static_cast<std::size_t>(c.block)];
        return static_cast<std::int64_t>(n_) * blk.footprint_inter_branch() >
               sched_.buffer_bytes;
      }
      return false;
    }

    // Serialized configs: group boundaries always spill.
    if (group_of_block(t.producer_block) != group_of_block(c.block))
      return true;
    if (uses_inter_branch_reuse(cfg)) return false;
    // MBS1 / MBS-FS: no cross-branch provisioning. A block input is only
    // resident for its first consumer; branch outputs other than the last
    // produced one are spilled before the merge.
    if (rank > 0) return true;
    if (t.feeds_merge && !is_last_merge_operand) return true;
    return false;
  }

  /// Can a norm-style double pass over `bytes_ps` per sample be buffered?
  bool double_pass_buffered(int consumer_flat, std::int64_t in_bytes_ps) const {
    if (uses_serialization(sched_.config)) return true;  // chunk fits by construction
    const std::int64_t need = static_cast<std::int64_t>(n_) * 2 * in_bytes_ps;
    (void)consumer_flat;
    return need <= sched_.buffer_bytes;
  }

  void add(int flat, Phase phase, TrafficClass cls, double dram_rd,
           double dram_wr, double buf_rd, double buf_wr) {
    sink_.add(df_.layers[static_cast<std::size_t>(flat)], phase, cls, dram_rd,
              dram_wr, buf_rd, buf_wr);
  }

  /// Emits forward feature movement, stash writes, gradient movement and
  /// stash reads for one tensor.
  void emit_tensor(int ti) {
    const TensorInfo& t = df_.tensors[static_cast<std::size_t>(ti)];
    const double bytes = static_cast<double>(t.bytes_ps) * n_;

    // --- Forward: producer side -------------------------------------------
    bool any_dram_consumer = false;
    for (int c : t.consumers) any_dram_consumer |= edge_via_dram(ti, c);

    bool stash16 = false;
    for (int c : t.consumers)
      stash16 |= needs_input_stash(*df_.layers[static_cast<std::size_t>(c)].l);
    // Without 1-bit masks, ReLU backward re-reads its 16b output, which must
    // therefore be present in DRAM.
    const bool act_out = t.producer >= 0 &&
        df_.layers[static_cast<std::size_t>(t.producer)].l->kind ==
            LayerKind::kAct;
    if (act_out && !masks_) stash16 = true;

    if (t.producer >= 0) {
      // Producer always writes its result into the global buffer.
      add(t.producer, Phase::kForward, TrafficClass::kFeature, 0, 0, 0, bytes);
      if (any_dram_consumer || stash16) {
        const TrafficClass cls =
            any_dram_consumer ? TrafficClass::kFeature : TrafficClass::kStash;
        add(t.producer, Phase::kForward, cls, 0, bytes, 0, 0);
      }
    }

    // --- Forward: consumer side -------------------------------------------
    for (int c : t.consumers) {
      const FlatLayer& fc = df_.layers[static_cast<std::size_t>(c)];
      const bool via_dram = edge_via_dram(ti, c);
      const TrafficClass cls =
          t.network_input ? TrafficClass::kInput : TrafficClass::kFeature;
      if (via_dram)
        add(c, Phase::kForward, cls, bytes, 0, 0, 0);
      else
        add(c, Phase::kForward, cls, 0, 0, bytes, 0);
      // Normalization iterates over its input twice (mean/variance, then
      // the normalization itself).
      if (fc.l->kind == LayerKind::kNorm) {
        if (double_pass_buffered(c, t.bytes_ps) || !via_dram)
          add(c, Phase::kForward, cls, 0, 0, bytes, 0);
        else
          add(c, Phase::kForward, cls, bytes, 0, 0, 0);
      }
    }

    // --- Backward: stash reads --------------------------------------------
    bool shared_read_done = false;
    for (int c : t.consumers) {
      const FlatLayer& fc = df_.layers[static_cast<std::size_t>(c)];
      if (!needs_input_stash(*fc.l)) continue;
      // With inter-branch reuse, consumers in the same block share one read.
      if (uses_inter_branch_reuse(sched_.config) && shared_read_done) {
        add(c, Phase::kBackward, TrafficClass::kStash, 0, 0, bytes, 0);
        continue;
      }
      add(c, Phase::kBackward, TrafficClass::kStash, bytes, 0, 0, 0);
      shared_read_done = true;
      // Normalization backward also needs two passes over x.
      if (fc.l->kind == LayerKind::kNorm) {
        if (double_pass_buffered(c, t.bytes_ps))
          add(c, Phase::kBackward, TrafficClass::kStash, 0, 0, bytes, 0);
        else
          add(c, Phase::kBackward, TrafficClass::kStash, bytes, 0, 0, 0);
      }
    }
    // ReLU backward: 1-bit mask (MBS) or a re-read of the 16b output.
    if (act_out) {
      const double mask_bytes =
          static_cast<double>(core::bytes_for(t.elems_ps, DataType::kBit)) * n_;
      if (masks_) {
        add(t.producer, Phase::kForward, TrafficClass::kMask, 0, mask_bytes, 0, 0);
        add(t.producer, Phase::kBackward, TrafficClass::kMask, mask_bytes, 0, 0, 0);
      } else {
        add(t.producer, Phase::kBackward, TrafficClass::kStash, bytes, 0, 0, 0);
      }
    }
    // Max pooling stores argmax indices (1 byte per output element).
    if (t.producer >= 0) {
      const Layer& pl = *df_.layers[static_cast<std::size_t>(t.producer)].l;
      if (pl.kind == LayerKind::kPool && pl.pool_kind == core::PoolKind::kMax) {
        const double idx_bytes =
            static_cast<double>(core::bytes_for(t.elems_ps, DataType::kI8)) * n_;
        add(t.producer, Phase::kForward, TrafficClass::kStash, 0, idx_bytes, 0, 0);
        add(t.producer, Phase::kBackward, TrafficClass::kStash, idx_bytes, 0, 0, 0);
      }
    }

    // --- Backward: gradient movement ---------------------------------------
    // grad(t) is produced (as partials) by each consumer's backward pass and
    // consumed by the producer's backward pass. Add/Concat backward is pure
    // routing: the gradient of an Add/Concat input aliases the gradient of
    // its output, so such consumers write nothing — the producer reads the
    // aliased gradient from wherever it lives. The network input needs no
    // gradient.
    if (t.producer < 0) return;
    if (t.consumers.empty()) return;  // final output; loss is out of scope
    for (int c : t.consumers) {
      const FlatLayer& fc = df_.layers[static_cast<std::size_t>(c)];
      const bool routed = fc.l->kind == LayerKind::kAdd ||
                          fc.l->kind == LayerKind::kConcat;
      bool via_dram;
      if (routed) {
        // Location of grad(merge output): spilled iff any forward edge of
        // the merge's output tensor moved through DRAM (mirror rule).
        via_dram = false;
        const TensorInfo& mo =
            df_.tensors[static_cast<std::size_t>(fc.out_tensor)];
        for (int mc : mo.consumers)
          via_dram |= edge_via_dram(fc.out_tensor, mc);
      } else {
        via_dram = edge_via_dram(ti, c);
        // The partial producer materializes its contribution.
        if (via_dram)
          add(c, Phase::kBackward, TrafficClass::kGradient, 0, bytes, 0, 0);
        else
          add(c, Phase::kBackward, TrafficClass::kGradient, 0, 0, 0, bytes);
      }
      if (via_dram)
        add(t.producer, Phase::kBackward, TrafficClass::kGradient, bytes, 0,
            0, 0);
      else
        add(t.producer, Phase::kBackward, TrafficClass::kGradient, 0, 0,
            bytes, 0);
    }
  }

  /// Emits the movement of the score/probability matrix internal to an
  /// attention layer. P = softmax(Q.K^T) sits between the two
  /// activation-activation GEMMs; it is always stashed to DRAM for the
  /// backward pass (the softmax gradient and dV both consume it), and the
  /// remaining intermediate passes stay on chip only while a sub-batch of
  /// score matrices fits in the global buffer. Because the schedule's
  /// per-sample block footprint includes the score matrix, serialized
  /// configs always fit; the unserialized configs spill once B*H*S*S
  /// outgrows the buffer — exactly the reuse pattern MBS is meant to keep
  /// on chip.
  void emit_attention(int fi) {
    const FlatLayer& fl = df_.layers[static_cast<std::size_t>(fi)];
    const Layer& l = *fl.l;
    const std::int64_t score_ps = l.attention_score_bytes_per_sample(kFeat);
    const double p = static_cast<double>(score_ps) * n_;

    add(fi, Phase::kForward, TrafficClass::kStash, 0, p, 0, 0);
    add(fi, Phase::kBackward, TrafficClass::kStash, p, 0, 0, 0);

    const int g = group_of_block(fl.block);
    const std::int64_t sub = sched_.groups[static_cast<std::size_t>(g)].sub_batch;
    if (sub * score_ps <= sched_.buffer_bytes) {
      // Scores/P shuttle through the buffer: GEMM1 writes scores, the
      // softmax reads them in place; backward re-reads P (for dV and the
      // softmax gradient) and streams dP/dS without leaving the chip.
      add(fi, Phase::kForward, TrafficClass::kFeature, 0, 0, p, p);
      add(fi, Phase::kBackward, TrafficClass::kFeature, 0, 0, 3 * p, p);
    } else {
      // A sub-batch of score matrices overflows the buffer: forward, the
      // softmax re-reads the spilled scores and GEMM2 re-reads P (its spill
      // is the stash write above); backward, dP and dS are materialized in
      // DRAM (dS read twice, for dQ and dK) and P is re-read for dV.
      add(fi, Phase::kForward, TrafficClass::kFeature, 2 * p, p, 0, 0);
      add(fi, Phase::kBackward, TrafficClass::kFeature, 4 * p, 2 * p, 0, 0);
    }
  }

  /// Emits weight and weight-gradient traffic for one layer.
  void emit_layer(int fi) {
    const FlatLayer& fl = df_.layers[static_cast<std::size_t>(fi)];
    const Layer& l = *fl.l;
    if (l.kind == LayerKind::kAttention) {
      emit_attention(fi);
      return;
    }
    const double w = static_cast<double>(l.param_bytes(kFeat));
    if (w == 0) return;
    const int it = iterations_of_block(fl.block);

    if (l.kind == LayerKind::kNorm) {
      // GN scale/shift parameters are small enough to stay on chip for the
      // whole step (Sec. 3.1): one read, one gradient write.
      add(fi, Phase::kForward, TrafficClass::kWeight, w, 0, 0, 0);
      add(fi, Phase::kBackward, TrafficClass::kWgradPartial, 0, w, 0, 0);
      return;
    }

    // Forward: weights re-read once per sub-batch iteration.
    add(fi, Phase::kForward, TrafficClass::kWeight, w * it, 0, 0, 0);
    // Backward data gradient re-reads (transposed) weights, except for the
    // first GEMM layer which needs no input gradient.
    if (fi != df_.first_gemm_flat)
      add(fi, Phase::kBackward, TrafficClass::kWeight, w * it, 0, 0, 0);
    // Weight-gradient partial sums: written every iteration, re-read on
    // every iteration after the first (Sec. 3 "Data Synchronization").
    add(fi, Phase::kBackward, TrafficClass::kWgradPartial, w * (it - 1),
        w * it, 0, 0);
  }

  const Network& net_;
  const Schedule& sched_;
  const Dataflow& df_;
  std::vector<int>& block_group_;
  int n_;
  bool masks_;
  Sink sink_;
};

}  // namespace

const char* to_string(TrafficClass c) {
  switch (c) {
    case TrafficClass::kInput: return "input";
    case TrafficClass::kFeature: return "feature";
    case TrafficClass::kGradient: return "gradient";
    case TrafficClass::kWeight: return "weight";
    case TrafficClass::kWgradPartial: return "wgrad";
    case TrafficClass::kStash: return "stash";
    case TrafficClass::kMask: return "mask";
  }
  return "?";
}

const char* to_string(Phase p) {
  return p == Phase::kForward ? "fwd" : "bwd";
}

double Traffic::dram_bytes() const {
  return dram_read_bytes() + dram_write_bytes();
}

double Traffic::dram_read_bytes() const {
  double total = 0;
  for (const auto& r : records) total += r.dram_read;
  return total;
}

double Traffic::dram_write_bytes() const {
  double total = 0;
  for (const auto& r : records) total += r.dram_write;
  return total;
}

double Traffic::buffer_bytes() const {
  double total = 0;
  for (const auto& r : records) total += r.buf_read + r.buf_write;
  return total;
}

double Traffic::dram_bytes_by_class(TrafficClass c) const {
  double total = 0;
  for (const auto& r : records)
    if (r.cls == c) total += r.dram_read + r.dram_write;
  return total;
}

double Traffic::dram_bytes_for_block(int block) const {
  double total = 0;
  for (const auto& r : records)
    if (r.block == block) total += r.dram_read + r.dram_write;
  return total;
}

Traffic compute_traffic(const core::Network& net, const Schedule& schedule) {
  const Dataflow df = build_dataflow(net);
  std::vector<int> block_group;
  return TrafficBuilder<RecordSink>(net, df, schedule, block_group).run().out;
}

DramObjective::DramObjective(const core::Network& net)
    : net_(net), df_(std::make_unique<const Dataflow>(build_dataflow(net))) {}

DramObjective::~DramObjective() = default;

double DramObjective::operator()(const Schedule& schedule) {
  const DramSumSink sums =
      TrafficBuilder<DramSumSink>(net_, *df_, schedule, block_group_).run();
  return sums.read + sums.write;
}

double dram_traffic_bytes(const core::Network& net, const Schedule& schedule) {
  return DramObjective(net)(schedule);
}

}  // namespace mbs::sched
