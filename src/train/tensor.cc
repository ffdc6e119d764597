#include "train/tensor.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "util/parallel.h"

namespace mbs::train {

std::int64_t Tensor::count(const std::vector<int>& shape) {
  std::int64_t n = 1;
  for (int d : shape) {
    if (d < 0) {
      std::fprintf(stderr, "Tensor: negative dimension %d\n", d);
      std::abort();
    }
    if (d != 0 && n > std::numeric_limits<std::int64_t>::max() / d) {
      std::fprintf(stderr,
                   "Tensor: shape element count overflows int64 "
                   "(... * %lld * %d)\n",
                   static_cast<long long>(n), d);
      std::abort();
    }
    n *= d;
  }
  return n;
}

namespace {

template <typename Range>
bool same_shape(const std::vector<int>& shape, const Range& other) {
  return shape.size() == other.size() &&
         std::equal(other.begin(), other.end(), shape.begin());
}

}  // namespace

void Tensor::ensure_shape(const std::vector<int>& shape) {
  if (same_shape(shape_, shape)) return;
  shape_ = shape;
  data_.assign(static_cast<std::size_t>(count(shape_)),
               0.0f);  // reuses capacity
}

void Tensor::ensure_shape(std::initializer_list<int> shape) {
  if (same_shape(shape_, shape)) return;
  shape_.assign(shape.begin(), shape.end());
  data_.assign(static_cast<std::size_t>(count(shape_)), 0.0f);
}

void Tensor::ensure_zeroed(const std::vector<int>& shape) {
  if (same_shape(shape_, shape)) {
    // assign() would redundantly re-walk the buffer serially; the pooled
    // fill is bit-identical (zeros are zeros) and faster for large grads.
    fill(0.0f);
    return;
  }
  ensure_shape(shape);
}

void Tensor::ensure_zeroed(std::initializer_list<int> shape) {
  if (same_shape(shape_, shape)) {
    fill(0.0f);
    return;
  }
  ensure_shape(shape);
}

void Tensor::fill(float v) {
  float* d = data_.data();
  util::parallel_for(size(), util::work_grain(1),
                     [&](std::int64_t i0, std::int64_t i1) {
                       for (std::int64_t i = i0; i < i1; ++i) d[i] = v;
                     });
}

void Tensor::axpy(float alpha, const Tensor& other) {
  assert(size() == other.size());
  float* d = data_.data();
  const float* o = other.data();
  util::parallel_for(size(), util::work_grain(1),
                     [&](std::int64_t i0, std::int64_t i1) {
                       for (std::int64_t i = i0; i < i1; ++i)
                         d[i] += alpha * o[i];
                     });
}

void Tensor::scale(float alpha) {
  float* d = data_.data();
  util::parallel_for(size(), util::work_grain(1),
                     [&](std::int64_t i0, std::int64_t i1) {
                       for (std::int64_t i = i0; i < i1; ++i) d[i] *= alpha;
                     });
}

void Tensor::slice_batch_into(int first, int count, Tensor& out) const {
  assert(ndim() >= 1 && &out != this);
  assert(first >= 0 && first + count <= dim(0));
  const std::int64_t per = size() / dim(0);
  // Vector assignment and resize reuse capacity, so a steady-state slice
  // of a recurring chunk size touches no heap; the copy overwrites it all.
  out.shape_ = shape_;
  out.shape_[0] = count;
  out.data_.resize(static_cast<std::size_t>(count * per));
  std::memcpy(out.data(), data() + static_cast<std::size_t>(first) * per,
              static_cast<std::size_t>(count * per) * sizeof(float));
}

Tensor Tensor::slice_batch(int first, int count) const {
  Tensor out;
  slice_batch_into(first, count, out);
  return out;
}

}  // namespace mbs::train
