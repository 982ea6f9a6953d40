// Fixture: raw-sync-primitive.
//
// No synchronization primitives outside common/sync.h: page tables are
// single-writer and threads go through cpt::ThreadGroup, never bare std or
// pthread primitives.
#include <mutex>

namespace fx {

std::mutex g_lock;  // BAD: bare std::mutex

int Critical(int v) {
  std::lock_guard<std::mutex> hold(g_lock);  // BAD twice: lock_guard + mutex
  return v + 1;
}

pthread_mutex_t g_raw;  // BAD: pthread primitive

void InitRaw() {
  pthread_mutex_init(&g_raw, nullptr);  // BAD: pthread call
}

std::condition_variable g_cv;  // BAD: condition variables have no wrapper yet

std::atomic_flag g_spin = ATOMIC_FLAG_INIT;  // BAD: a spin lock by another name

void SpawnDetached() {
  std::thread worker([] {});  // BAD: bare thread; use cpt::ThreadGroup
  worker.detach();
}

// A documented exception stays allowed:
std::mutex g_grandfathered;  // cpt-lint: allow(raw-sync-primitive)

}  // namespace fx
