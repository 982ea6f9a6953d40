// HotPathScope implementation: thread-local depth counter plus replacement
// global operator new/delete forwarding to malloc/free.  See hotguard.h for
// the contract and the linkage story (this TU is pulled into a binary only
// when something in it constructs a HotPathScope).

#include "common/hotguard.h"

#include <cstdio>
#include <cstdlib>
#include <new>

namespace cpt {
namespace {

#ifndef NDEBUG
// Depth of nested scopes on this thread and the innermost site label.
// Plain thread_local ints: the operator-new replacements below read them
// on every allocation program-wide, so this must stay branch-cheap.
thread_local int g_hot_depth = 0;
thread_local const char* g_hot_site = nullptr;

[[noreturn]] void TripGuard(const char* what) {
  // Mirrors check_internal::CheckFail (deliberately not calling it: this
  // file must not pull more headers into every allocation's icache path),
  // printing the guarded site so the failure is attributable.
  const char* site = g_hot_site != nullptr ? g_hot_site : "<unknown site>";
  std::fprintf(stderr, "HotPathScope violation: %s inside guarded scope \"%s\"\n", what, site);
  std::fflush(stderr);
  // CPT_CHECK would pull check.h (and its formatting) into the allocator's
  // failure path; the raw abort is the point here.
  // cpt-lint: allow(check-macro-hygiene)
  std::abort();
}

void* GuardedAlloc(std::size_t size, const char* what) {
  if (g_hot_depth > 0) {
    TripGuard(what);
  }
  // malloc(0) may return nullptr; operator new must not (for size 0 it
  // returns a unique pointer), so round zero up.
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* GuardedAllocAligned(std::size_t size, std::size_t align, const char* what) {
  if (g_hot_depth > 0) {
    TripGuard(what);
  }
  void* p = nullptr;
  if (posix_memalign(&p, align >= sizeof(void*) ? align : sizeof(void*),
                     size != 0 ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
#endif  // NDEBUG

}  // namespace

#ifndef NDEBUG

HotPathScope::HotPathScope(const char* site) : site_(g_hot_site) {
  // site_ saves the enclosing scope's label so nesting restores correctly.
  g_hot_site = site;
  ++g_hot_depth;
}

HotPathScope::~HotPathScope() {
  --g_hot_depth;
  g_hot_site = site_;
}

bool HotPathScope::ActiveOnThisThread() { return g_hot_depth > 0; }

#else  // NDEBUG

HotPathScope::HotPathScope(const char* site) : site_(site) {}
HotPathScope::~HotPathScope() = default;
bool HotPathScope::ActiveOnThisThread() { return false; }

#endif  // NDEBUG

}  // namespace cpt

#ifndef NDEBUG

// Replacement global allocation functions.  [new.delete.single] requires
// plain operator new to throw on failure and the nothrow variants to return
// nullptr; all forward to malloc/free so sanitizer interceptors still see
// every allocation.
void* operator new(std::size_t size) { return cpt::GuardedAlloc(size, "operator new"); }
void* operator new[](std::size_t size) { return cpt::GuardedAlloc(size, "operator new[]"); }
void* operator new(std::size_t size, std::align_val_t align) {
  return cpt::GuardedAllocAligned(size, static_cast<std::size_t>(align), "operator new");
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return cpt::GuardedAllocAligned(size, static_cast<std::size_t>(align), "operator new[]");
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (cpt::g_hot_depth > 0) {
    cpt::TripGuard("operator new(nothrow)");
  }
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  if (cpt::g_hot_depth > 0) {
    cpt::TripGuard("operator new[](nothrow)");
  }
  return std::malloc(size != 0 ? size : 1);
}

// Deletes never trip the guard: freeing inside a hot scope is legal (e.g. a
// pre-reserved vector shrinking) and tripping here would turn the guard's
// own failure-path cleanup into a second abort.
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

#endif  // NDEBUG
