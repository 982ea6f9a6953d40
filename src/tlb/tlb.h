// TLB simulators: fully-associative, LRU-replaced translation caches.
//
// Four designs from the paper's evaluation (Figure 11):
//   - SinglePageTlb:       one base page per entry (11a)
//   - SuperpageTlb:        variable page size per entry (11b)
//   - PartialSubblockTlb:  one tag + valid vector + one properly-placed
//                          block-aligned PPN per entry (11c)
//   - CompleteSubblockTlb: one tag + per-page PPNs; distinguishes block
//                          misses from subblock misses (11d)
//
// All are asid-tagged so multiprogrammed workloads share one TLB without
// flushes.  TLBs translate via pt::TlbFill payloads produced by page tables.
// The four keep their entries in one shared store with a tag index
// (tlb/entry_store.h).
#ifndef CPT_TLB_TLB_H_
#define CPT_TLB_TLB_H_

#include <cstdint>
#include <string>

#include "common/check.h"
#include "common/types.h"
#include "pt/page_table.h"

namespace cpt::tlb {

using Asid = std::uint16_t;

enum class LookupOutcome : std::uint8_t {
  kHit,
  kMiss,           // Conventional miss (no covering entry).
  kBlockMiss,      // Complete-subblock: no entry with the block's tag.
  kSubblockMiss,   // Complete-subblock: tag present, page's subblock invalid.
};

constexpr bool IsMiss(LookupOutcome o) { return o != LookupOutcome::kHit; }

struct TlbStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;           // All misses, of any kind.
  std::uint64_t block_misses = 0;     // Complete-subblock TLBs only.
  std::uint64_t subblock_misses = 0;  // Complete-subblock TLBs only.

  double MissRatio() const {
    return accesses == 0 ? 0.0 : static_cast<double>(misses) / static_cast<double>(accesses);
  }
};

class Tlb {
 public:
  explicit Tlb(unsigned num_entries) : num_entries_(num_entries) {
    CPT_CHECK(num_entries >= 1, "a TLB needs at least one entry");
  }
  virtual ~Tlb() = default;
  Tlb(const Tlb&) = delete;
  Tlb& operator=(const Tlb&) = delete;

  // Probes the TLB for (asid, vpn), updating recency and statistics.
  [[nodiscard]] virtual LookupOutcome Lookup(Asid asid, Vpn vpn) = 0;

  // Installs the page-table fill that satisfied a miss on (asid, vpn).
  virtual void Insert(Asid asid, Vpn vpn, const pt::TlbFill& fill) = 0;

  virtual void Flush() = 0;

  virtual std::string name() const = 0;

  unsigned num_entries() const { return num_entries_; }
  const TlbStats& stats() const { return stats_; }
  void ResetStats() { stats_ = TlbStats{}; }

 protected:
  std::uint64_t NextStamp() { return ++clock_; }
  void RecordHit() {
    ++stats_.accesses;
    ++stats_.hits;
  }
  void RecordMiss(LookupOutcome kind) {
    ++stats_.accesses;
    ++stats_.misses;
    if (kind == LookupOutcome::kBlockMiss) {
      ++stats_.block_misses;
    } else if (kind == LookupOutcome::kSubblockMiss) {
      ++stats_.subblock_misses;
    }
  }

  unsigned num_entries_;
  TlbStats stats_;
  std::uint64_t clock_ = 0;
};

}  // namespace cpt::tlb

#endif  // CPT_TLB_TLB_H_
