#include "mem/cache_model.h"

#include <algorithm>
#include <cstddef>

#include "common/check.h"
#include "common/types.h"

namespace cpt::mem {
namespace {

// Capacity for the distinct lines of one walk, so no counted walk allocates
// in the replay steady state (checked by tests/hotguard_test.cc).  Most
// walks touch 1-8 lines; the largest are the hashed family's
// complete-subblock block prefetches, one probe per base page.  Over every
// organization × TLB pair and paper workload the measured maximum is 70
// lines within the first 60k references (kernel) and 74 at the default 2M
// (ml), both on the inverted hashed table.
constexpr std::size_t kMaxWalkLinesReserved = 256;

}  // namespace

CacheTouchModel::CacheTouchModel(std::uint32_t line_size) : line_size_(line_size) {
  CPT_CHECK(IsPowerOfTwo(line_size));
  line_shift_ = Log2(line_size);
  walk_lines_.reserve(kMaxWalkLinesReserved);
}

void CacheTouchModel::BeginWalk() {
  walk_lines_.clear();
  in_walk_ = true;
}

void CacheTouchModel::Touch(PhysAddr addr, std::uint64_t size) {
  if (!in_walk_ || size == 0) {
    return;
  }
  // Line-id derivation is a bit-packing boundary. // cpt-lint: allow(raw-address-param)
  const std::uint64_t first = addr.raw() >> line_shift_;
  const std::uint64_t last = (addr.raw() + size - 1) >> line_shift_;
  for (std::uint64_t line = first; line <= last; ++line) {
    // Walks touch a handful of lines, so a linear dedup scan beats a set.
    if (std::find(walk_lines_.begin(), walk_lines_.end(), line) == walk_lines_.end()) {
      walk_lines_.push_back(line);
    }
  }
}

void CacheTouchModel::EndWalk() {
  if (!in_walk_) {
    return;
  }
  in_walk_ = false;
  total_lines_ += walk_lines_.size();
  ++total_walks_;
  if (tracer_ != nullptr) {
    tracer_->Record({.kind = obs::EventKind::kWalkEnd,
                     .lines = static_cast<std::uint32_t>(walk_lines_.size())});
  }
}

void CacheTouchModel::Reset() {
  walk_lines_.clear();
  in_walk_ = false;
  total_lines_ = 0;
  total_walks_ = 0;
}

}  // namespace cpt::mem
