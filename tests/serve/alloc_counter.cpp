// Replacement global operator new/delete behind counted_allocations()
// and counted_frees().
#include "alloc_counter.hpp"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace {
std::int64_t g_news = 0;
std::int64_t g_frees = 0;

void* counted_alloc(std::size_t n) {
  ++g_news;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void counted_free(void* p) {
  if (p != nullptr) ++g_frees;
  std::free(p);
}
}  // namespace

// The nothrow forms are replaced too, so every form allocates and frees
// through the same malloc/free pair: std::stable_sort's temporary buffer
// comes from nothrow new and goes back through plain delete, and a
// sanitizer's own nothrow new would not match the free below.
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_news;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace intsched::serve {

std::int64_t counted_allocations() { return g_news; }
std::int64_t counted_frees() { return g_frees; }

}  // namespace intsched::serve
