// Fixture: false-sharing.  Per-shard/per-stripe containers whose element
// type is smaller than a destructive-interference line — adjacent shards
// ping-pong one host cache line between writer threads.  Aligned variants
// must stay silent, as must the at-site suppression.
#ifndef CPT_TESTS_LINT_FIXTURES_LAYOUT_FALSE_SHARING_H_
#define CPT_TESTS_LINT_FIXTURES_LAYOUT_FALSE_SHARING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/hotpath.h"

namespace fx {

// 16 bytes: four of these share every destructive-interference line.
struct Counter {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
};

// One full line per element: adjacent shards cannot interfere.
struct CPT_CACHE_ALIGNED AlignedCounter {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
};

// Plain alignas works too — the macro is not magic.
struct alignas(64) PaddedSlot {
  std::uint64_t value = 0;
};

class ShardedCounters {
 public:
  void Bump(unsigned shard);

 private:
  // BAD: 16-byte elements, four shards per line.
  std::vector<Counter> shards_;

  // GOOD: the element type is CPT_CACHE_ALIGNED.
  std::vector<AlignedCounter> stripes_;

  // GOOD: alignas(64) on the element type.
  std::unique_ptr<PaddedSlot[]> slot_shards_;

  // GOOD: a shard *count* is not per-shard storage.
  unsigned num_shards_ = 0;

  // GOOD (suppressed): cold snapshot copy, never written concurrently.
  std::vector<Counter> dead_shards_;  // cpt-lint: allow(false-sharing)
};

}  // namespace fx

#endif  // CPT_TESTS_LINT_FIXTURES_LAYOUT_FALSE_SHARING_H_
