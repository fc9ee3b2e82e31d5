//===- DefaultInit.h - Default-initializing allocator -------------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An allocator whose no-argument construct() default-initializes instead of
/// value-initializing, so vector::resize(n) leaves trivial elements
/// uninitialized. Matrix uses it to hand out scratch buffers whose every
/// element is about to be overwritten by a kernel: a zonotope affine step
/// allocates a generator matrix larger than L2, and zero-filling it first
/// both costs a memset and evicts the operands the kernel is about to
/// stream.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_LINALG_DEFAULTINIT_H
#define CHARON_LINALG_DEFAULTINIT_H

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace charon {

/// Allocator with default-initializing no-arg construct() and 64-byte
/// aligned storage. Explicit fill constructors (vector(n, value)) still
/// value-initialize, so the zero-matrix constructors keep their meaning.
/// The cache-line alignment makes whole matrix rows eligible for aligned
/// vector stores whenever the row stride is a multiple of the line size.
template <typename T> struct DefaultInitAlloc {
  using value_type = T;
  static constexpr std::size_t Alignment = 64;

  DefaultInitAlloc() = default;
  template <typename U>
  DefaultInitAlloc(const DefaultInitAlloc<U> &) noexcept {}

  T *allocate(std::size_t N) {
    return static_cast<T *>(
        ::operator new(N * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T *P, std::size_t) noexcept {
    ::operator delete(P, std::align_val_t(Alignment));
  }

  template <typename U> void construct(U *P) {
    ::new (static_cast<void *>(P)) U;
  }
  template <typename U, typename... Args> void construct(U *P, Args &&...A) {
    ::new (static_cast<void *>(P)) U(std::forward<Args>(A)...);
  }

  template <typename U>
  bool operator==(const DefaultInitAlloc<U> &) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const DefaultInitAlloc<U> &) const noexcept {
    return false;
  }
};

} // namespace charon

#endif // CHARON_LINALG_DEFAULTINIT_H
