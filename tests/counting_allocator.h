// Global allocation counter: the replaced operator new below bumps
// g_allocations on every heap allocation in the process, so a test can
// assert that a code region allocates nothing. It replaces the global
// operator new/delete, so include it from exactly one source file of a
// test binary.
//
// The replaced new/delete pair is malloc/free-based and matched by
// construction; GCC cannot see that when it inlines the operators and
// warns on every delete in the binary, so the check is disabled in the
// including file.

#ifndef PRAGUE_TESTS_COUNTING_ALLOCATOR_H_
#define PRAGUE_TESTS_COUNTING_ALLOCATOR_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// left to the sanitizer runtime, their blocks would reach free() through
// the operator delete below, which AddressSanitizer reports as an
// alloc-dealloc mismatch.
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // PRAGUE_TESTS_COUNTING_ALLOCATOR_H_
