// Softmax attention, forward and backward, for the training substrate.
//
// This is the functional counterpart of core::LayerKind::kAttention: the
// two batched GEMMs whose operands are BOTH streamed activations (Q.K^T
// and P.V — no resident weights), with the row-softmax between them. The
// GEMMs reuse the same microkernel entry points as the convolution path
// (im2col.h matmul_*_into), so the attention block exercises the exact
// kernels the rest of the substrate is built on.
//
// Every sample attends only within itself (scores are [S, S] per sample
// and head), so attention — like GN — is sample-local: serializing the
// mini-batch into sub-batches leaves the math bit-for-bit unchanged. That
// is the property the transformer GN+MBS gradient-equivalence demo and
// tests/train_test.cc verify.
//
// Layout: token activations are NCHW tensors with the sequence along H —
// x is [N, 3*d, S, 1] holding Q, K, V stacked along channels (the output
// of a fused qkv projection, matching the model zoo's qkv layer), each
// [d, S] block channel-major. With `heads` heads of dh = d/heads channels,
// the per-(sample, head) operand Q[dh, S] is one contiguous row-major
// slice of x — no repacking between the projection and the GEMMs.
#pragma once

#include "train/tensor.h"

namespace mbs::train {

/// Cache produced by attention_forward_into, consumed by
/// attention_backward_into:
/// the softmax rows P ("probs", [N, heads, S, S]). This is the score
/// matrix whose sub-batch-dependent footprint the schedule model charges
/// for (core::attention_score_bytes_per_sample) — forward stashes it, the
/// backward pass re-reads it.
struct AttentionCache {
  Tensor probs;
};

/// y = softmax(Q^T.K / sqrt(dh)) applied to V, per sample and head.
/// x: [N, 3*d, S, 1] (Q, K, V along channels); `heads` must divide d.
/// Writes y [N, d, S, 1] (step-persistent, reshaped in place) and fills
/// `cache` for the backward pass.
void attention_forward_into(const Tensor& x, int heads, AttentionCache& cache,
                            Tensor& y);

/// Gradient of attention_forward_into w.r.t. x into dx [N, 3*d, S, 1].
/// dy: [N, d, S, 1]; x and cache are the forward's input and output cache.
/// Scratch comes from the workspace arena.
void attention_backward_into(const Tensor& dy, const Tensor& x, int heads,
                             const AttentionCache& cache, Tensor& dx);

}  // namespace mbs::train
