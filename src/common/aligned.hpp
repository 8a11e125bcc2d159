// Cache-line-aligned storage. Stencil and streaming kernels want their
// arrays aligned so that vector loads never straddle lines and so that
// false sharing between thread partitions is impossible at array bases.
#pragma once

#include <cstdlib>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace bwlab {

/// Minimal standard-conforming allocator returning 64-byte aligned blocks.
template <class T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
      throw std::bad_alloc();
    const std::size_t bytes = round_up(n * sizeof(T), kCacheLineBytes);
    void* p = std::aligned_alloc(kCacheLineBytes, bytes);
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  /// Value-less construction default-initialises, so resize(n) leaves
  /// trivial elements unwritten: an owner can then first-touch the pages
  /// from the threads that will use them. Every other construction
  /// (assign(n, v), a fill constructor) is forwarded unchanged.
  template <class U>
  void construct(U* p) noexcept(
      std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  template <class U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// Contiguous, 64-byte-aligned array; the standard storage type for all
/// field data (structured dats, unstructured dats, STREAM arrays).
template <class T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

}  // namespace bwlab
