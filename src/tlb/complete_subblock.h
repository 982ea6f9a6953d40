// Complete-subblock TLB (Figure 11d; Sections 4.1 and 4.4).
//
// One tag covers an aligned page block, with an independent PPN and valid
// bit per base page (like a clustered PTE in hardware).  Two miss kinds:
//   - block miss:    no entry holds the tag — allocates an entry (LRU evict);
//   - subblock miss: the tag is present but the page's valid bit is clear —
//     fills the slot without any replacement.
// With block-miss prefetch (Section 4.4) the miss handler loads every
// resident mapping of the block at once, eliminating subblock misses for
// pages resident at block-miss time.  Prefetch never evicts anything extra,
// so it cannot pollute the TLB.
#ifndef CPT_TLB_COMPLETE_SUBBLOCK_H_
#define CPT_TLB_COMPLETE_SUBBLOCK_H_

#include <span>
#include <vector>

#include "check/fwd.h"
#include "tlb/entry_store.h"
#include "tlb/tlb.h"

namespace cpt::tlb {

class CompleteSubblockTlb final : public Tlb {
 public:
  static constexpr unsigned kMaxFactor = 64;

  CompleteSubblockTlb(unsigned num_entries, unsigned subblock_factor);

  [[nodiscard]] LookupOutcome Lookup(Asid asid, Vpn vpn) override;
  void Insert(Asid asid, Vpn vpn, const pt::TlbFill& fill) override;
  void Flush() override;
  std::string name() const override { return "complete-subblock"; }

  // Block-miss prefetch: installs every page of vpn's block that the given
  // fills cover, allocating the entry if needed (one replacement at most).
  void InsertBlock(Asid asid, Vpn vpn, std::span<const pt::TlbFill> fills);

  unsigned subblock_factor() const { return factor_; }

  // ---- Invariant auditing (src/check) ----
  void AuditVisit(check::TlbAuditVisitor& visitor) const;

 private:
  friend class check::TestBackdoor;

  static EntryStore::Key KeyOf(Asid asid, Vpbn vpbn) {
    return EntryStore::MakeKey(asid, 0, vpbn.raw());
  }
  // The slot holding (asid, vpbn), allocating one (LRU evict) if needed.
  std::uint32_t SlotFor(Asid asid, Vpbn vpbn);

  unsigned factor_;
  EntryStore store_;                    // Tag: the VPBN.
  std::vector<std::uint64_t> vectors_;  // Valid bit per base page.
  std::vector<Ppn> ppns_;               // factor_ PPNs per slot.
};

}  // namespace cpt::tlb

#endif  // CPT_TLB_COMPLETE_SUBBLOCK_H_
