// Replacement global operator new/delete behind counted_allocations().
// Frees are deliberately not counted: the contract under test is "no
// allocation", not "balanced allocation".
#include "alloc_counter.hpp"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace {
std::int64_t g_news = 0;

void* counted_alloc(std::size_t n) {
  ++g_news;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace intsched::serve {

std::int64_t counted_allocations() { return g_news; }

}  // namespace intsched::serve
