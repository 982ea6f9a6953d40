// Partial-subblock TLB (Figure 11c; Section 4.1).
//
// Each entry holds one tag covering an aligned page block, a single
// block-aligned PPN, and a valid bit vector — usable only when the mapped
// frames are properly placed.  Pages that are not properly placed occupy
// conventional single-page entries.  Superpage fills install as an
// all-valid-vector entry (a superpage is the degenerate partial-subblock).
#ifndef CPT_TLB_PARTIAL_SUBBLOCK_H_
#define CPT_TLB_PARTIAL_SUBBLOCK_H_

#include <vector>

#include "check/fwd.h"
#include "tlb/entry_store.h"
#include "tlb/tlb.h"

namespace cpt::tlb {

class PartialSubblockTlb final : public Tlb {
 public:
  PartialSubblockTlb(unsigned num_entries, unsigned subblock_factor);

  [[nodiscard]] LookupOutcome Lookup(Asid asid, Vpn vpn) override;
  void Insert(Asid asid, Vpn vpn, const pt::TlbFill& fill) override;
  void Flush() override;
  std::string name() const override { return "partial-subblock"; }

  unsigned subblock_factor() const { return factor_; }
  double SubblockHitFraction() const {
    return stats_.hits == 0 ? 0.0
                            : static_cast<double>(psb_hits_) / static_cast<double>(stats_.hits);
  }

  // ---- Invariant auditing (src/check) ----
  void AuditVisit(check::TlbAuditVisitor& visitor) const;

 private:
  friend class check::TestBackdoor;

  // Entry forms: a single page (tag: the VPN) or a vector-mapped block
  // (tag: the VPBN).
  static constexpr unsigned kSingleForm = 0;
  static constexpr unsigned kBlockForm = 1;

  struct Payload {
    Ppn ppn{};                 // Block-aligned for a block entry.
    std::uint16_t vector = 0;  // Valid bits of a block entry.
  };
  // Host layout pin (DESIGN.md "Layout pins").
  static_assert(sizeof(Payload) == 16 && alignof(Payload) == 8);

  unsigned factor_;
  unsigned block_log2_;
  EntryStore store_;
  std::vector<Payload> payloads_;
  std::uint64_t psb_hits_ = 0;
};

}  // namespace cpt::tlb

#endif  // CPT_TLB_PARTIAL_SUBBLOCK_H_
