// Replacement global allocation functions that count operator new calls per
// thread. The simulator runs on one thread, so a thread-local counter gives
// an exact, race-free count at the cost of one increment per allocation.
#include "alloc_count.h"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

thread_local std::uint64_t t_allocations = 0;

void* counted_new(std::size_t size, std::size_t align) {
  ++t_allocations;
  if (size == 0) size = 1;
  for (;;) {
    void* p = nullptr;
    if (align <= alignof(std::max_align_t)) {
      p = std::malloc(size);
    } else if (posix_memalign(&p, align, size) != 0) {
      p = nullptr;
    }
    if (p) return p;
    std::new_handler handler = std::get_new_handler();
    if (!handler) throw std::bad_alloc();
    handler();
  }
}

void* counted_new_nothrow(std::size_t size, std::size_t align) noexcept {
  try {
    return counted_new(size, align);
  } catch (...) {
    return nullptr;
  }
}

constexpr std::size_t kDefault = alignof(std::max_align_t);

}  // namespace

std::uint64_t costbench::allocations() { return t_allocations; }

void* operator new(std::size_t n) { return counted_new(n, kDefault); }
void* operator new[](std::size_t n) { return counted_new(n, kDefault); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_new_nothrow(n, kDefault);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_new_nothrow(n, kDefault);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_new(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_new(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_new_nothrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_new_nothrow(n, static_cast<std::size_t>(a));
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
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
