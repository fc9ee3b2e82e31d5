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

#include <sanitizer/asan_interface.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <utility>

namespace charon {

/// Allocator with default-initializing no-arg construct() and 64-byte
/// aligned storage. Explicit fill constructors (vector(n, value)) still
/// value-initialize, so the zero-matrix constructors keep their meaning.
/// The cache-line alignment makes whole matrix rows eligible for aligned
/// vector stores whenever the row stride is a multiple of the line size.
///
/// The aligned block is carved out of a plain `operator new` of
/// Alignment extra bytes, with the raw pointer kept in the word just before
/// the block. glibc serves plain `new` from its per-thread cache, while
/// `new(align_val_t)` takes the slower memalign path, and small matrices
/// are allocated on every layer call. Under AddressSanitizer the pad on
/// both sides of the block is poisoned (all but the header word), so a
/// write one past the data is still reported.
template <typename T> struct DefaultInitAlloc {
  using value_type = T;
  static constexpr std::size_t Alignment = 64;
  // Plain new returns at least this alignment, so the block starts at least
  // one pointer past the raw address and the header word always fits.
  static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= sizeof(void *));

  DefaultInitAlloc() = default;
  template <typename U>
  DefaultInitAlloc(const DefaultInitAlloc<U> &) noexcept {}

  std::size_t max_size() const noexcept {
    return (std::numeric_limits<std::size_t>::max() - Alignment) / sizeof(T);
  }

  T *allocate(std::size_t N) {
    if (N > max_size())
      throw std::bad_array_new_length();
    const std::size_t Bytes = N * sizeof(T);
    char *Raw = static_cast<char *>(::operator new(Bytes + Alignment));
    char *Data =
        Raw + Alignment - reinterpret_cast<std::uintptr_t>(Raw) % Alignment;
    char *Header = Data - sizeof(void *);
    std::memcpy(Header, &Raw, sizeof(void *));
    ASAN_POISON_MEMORY_REGION(Raw, Header - Raw);
    ASAN_POISON_MEMORY_REGION(Data + Bytes, Raw + Alignment - Data);
    return reinterpret_cast<T *>(Data);
  }
  void deallocate(T *P, std::size_t N) noexcept {
    char *Raw = nullptr;
    std::memcpy(&Raw, reinterpret_cast<char *>(P) - sizeof(void *),
                sizeof(void *));
    ASAN_UNPOISON_MEMORY_REGION(Raw, N * sizeof(T) + Alignment);
    ::operator delete(Raw);
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
