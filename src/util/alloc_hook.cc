// Debug-only global allocation hook: the witness behind the kernel
// layer's zero-allocation contract.
//
// In Debug builds this file replaces the global operator new/delete family
// with malloc/free wrappers that bump util::kernel_path_allocs() whenever
// the allocating thread is inside any kernel timer scope (conv, GEMM,
// im2col, norm, pool, ReLU, linear, SGD; util::in_kernel_path()).
// Steady-state training steps must not move the counter: scratch comes
// from util::Arena, outputs live in step-persistent Tensors, and
// parallel_for dispatches nothing owning. The assertions live in
// tests/kernel_test.cc (ZeroAllocContract.*) and run in CI's Debug job.
//
// Release builds compile only alloc_hook_active() (returning false), so
// production binaries keep the default allocator untouched. The accessor
// also serves as the link anchor: a test referencing it pulls this object
// file — and with it the operator replacements — out of the static
// library.
#include "util/parallel.h"

namespace mbs::util {

bool alloc_hook_active() {
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

}  // namespace mbs::util

#ifndef NDEBUG

#include <cstdlib>
#include <new>

namespace {

void* counted_alloc(std::size_t size) {
  mbs::util::detail::note_alloc_for_kernel_path();
  return std::malloc(size ? size : 1);
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  mbs::util::detail::note_alloc_for_kernel_path();
  void* p = nullptr;
  if (align < sizeof(void*)) align = sizeof(void*);
  if (posix_memalign(&p, align, size ? size : align) != 0) return nullptr;
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // !NDEBUG
