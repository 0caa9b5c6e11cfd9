// Counting replacements of the global allocation functions. Every
// operator new bumps versa::alloc_counter::count() and forwards to malloc
// (aligned_alloc for over-aligned types); every operator delete forwards to
// free. The replacements must be defined once per binary, so include this
// header in exactly one translation unit of it.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace versa::alloc_counter {

inline std::atomic<std::uint64_t> g_allocations{0};

/// Allocation calls made by this process so far.
inline std::uint64_t count() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace versa::alloc_counter

// All out of line: inlined into a caller, `malloc`/`free` under a
// new/delete pair trip GCC's -Wmismatched-new-delete although they match.
[[gnu::noinline]] void* operator new(std::size_t size) {
  versa::alloc_counter::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new(std::size_t size,
                                     std::align_val_t align) {
  versa::alloc_counter::g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment
                                                           : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t,
                                         std::align_val_t) noexcept {
  std::free(p);
}
