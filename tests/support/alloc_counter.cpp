// Counting replacements for the global allocation functions (see
// alloc_counter.hpp).
//
// Every form forwards to malloc — posix_memalign for the over-aligned
// overloads, so all deletes can be plain free() — and bumps a
// thread-local counter. The replacements are deliberately boring: same
// failure semantics as the defaults (bad_alloc on exhaustion, null for
// nothrow), no headers, no size stashing.
#include "support/alloc_counter.hpp"

#include <cstdlib>
#include <new>

namespace {

// Plain thread-local integer: constant-initialized per thread, no guard
// variable, safe to touch from inside operator new.
thread_local std::uint64_t t_alloc_count = 0;

void* counted_alloc(std::size_t size) {
  ++t_alloc_count;
  // Zero-size allocations must still return unique pointers.
  return std::malloc(size > 0 ? size : 1);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++t_alloc_count;
  void* p = nullptr;
  std::size_t a = static_cast<std::size_t>(align);
  if (a < sizeof(void*)) a = sizeof(void*);  // posix_memalign minimum
  if (posix_memalign(&p, a, size > 0 ? size : a) != 0) return nullptr;
  return p;
}

}  // namespace

namespace mfa::test {

std::uint64_t thread_alloc_count() { return t_alloc_count; }

}  // namespace mfa::test

void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
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
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
