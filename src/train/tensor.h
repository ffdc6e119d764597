// A minimal dense float32 tensor for the functional training substrate.
//
// This is deliberately small: row-major storage, explicit shapes, no views,
// no autograd — each op in ops.h/norm.h implements its own backward pass.
// It exists so the repository can *run* the paper's Fig. 6 experiment
// (BN vs GN+MBS training) rather than only model it.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace mbs::train {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<int> shape) : shape_(std::move(shape)) {
    data_.assign(static_cast<std::size_t>(count(shape_)), 0.0f);
  }

  /// Element count of `shape`. Negative dimensions and products that would
  /// overflow int64 abort with a message — explicitly, not via assert,
  /// so oversized shapes fail loudly in Release builds instead of wrapping
  /// into a small allocation (same policy as the serde length guard).
  static std::int64_t count(const std::vector<int>& shape);

  static Tensor zeros(std::vector<int> shape) { return Tensor(std::move(shape)); }

  static Tensor full(std::vector<int> shape, float value) {
    Tensor t(std::move(shape));
    for (float& v : t.data_) v = value;
    return t;
  }

  /// Gaussian init with the given standard deviation (deterministic).
  static Tensor randn(std::vector<int> shape, util::Rng& rng,
                      double stddev = 1.0) {
    Tensor t(std::move(shape));
    for (float& v : t.data_) v = static_cast<float>(rng.normal(0.0, stddev));
    return t;
  }

  const std::vector<int>& shape() const { return shape_; }
  int ndim() const { return static_cast<int>(shape_.size()); }
  int dim(int i) const { return shape_[static_cast<std::size_t>(i)]; }
  std::int64_t size() const { return static_cast<std::int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float& operator[](std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  float operator[](std::int64_t i) const { return data_[static_cast<std::size_t>(i)]; }

  /// 4-D accessor (NCHW).
  float& at(int n, int c, int h, int w) {
    return data_[static_cast<std::size_t>(idx4(n, c, h, w))];
  }
  float at(int n, int c, int h, int w) const {
    return data_[static_cast<std::size_t>(idx4(n, c, h, w))];
  }

  std::int64_t idx4(int n, int c, int h, int w) const {
    assert(ndim() == 4);
    return ((static_cast<std::int64_t>(n) * shape_[1] + c) * shape_[2] + h) *
               shape_[3] + w;
  }

  /// Reshapes in place, reusing the existing heap buffer whenever its
  /// capacity suffices (std::vector::assign semantics) — the step-persistent
  /// storage discipline of the kernel layer's zero-allocation contract.
  /// When the shape is unchanged this is a no-op and the CONTENTS ARE
  /// PRESERVED (a reused im2col buffer keeps its padding zeros); on a shape
  /// change the tensor is zero-filled like a freshly constructed one.
  /// The initializer_list overloads compare before materializing anything,
  /// so a steady-state call like ensure_shape({n, c, h, w}) touches no heap.
  void ensure_shape(const std::vector<int>& shape);
  void ensure_shape(std::initializer_list<int> shape);

  /// As ensure_shape, but always zero-filled — for scatter-add targets that
  /// must start from zero every call (e.g. the conv data gradient).
  void ensure_zeroed(const std::vector<int>& shape);
  void ensure_zeroed(std::initializer_list<int> shape);

  /// fill/axpy/scale are elementwise and run on the kernel pool (any range
  /// partition is bit-identical); implementations live in tensor.cc.
  void fill(float v);
  void zero() { fill(0.0f); }

  /// this += alpha * other (shapes must match).
  void axpy(float alpha, const Tensor& other);

  void scale(float alpha);

  /// Returns the batch slice [first, first+count) along dimension 0.
  Tensor slice_batch(int first, int count) const;

  /// As slice_batch, into `out`, reusing its buffers' capacity.
  void slice_batch_into(int first, int count, Tensor& out) const;

  double mean() const {
    if (data_.empty()) return 0.0;
    double s = 0;
    for (float v : data_) s += v;
    return s / static_cast<double>(data_.size());
  }

  double abs_max() const {
    double m = 0;
    for (float v : data_) m = std::max(m, static_cast<double>(v < 0 ? -v : v));
    return m;
  }

 private:
  std::vector<int> shape_;
  std::vector<float> data_;
};

}  // namespace mbs::train
