// Superpage TLB: each entry maps a power-of-two-sized, aligned page
// (Figure 11b).  Entries created from base fills cover one page; superpage
// fills cover 2^SZ pages.  A PSB fill degrades to a base entry for the
// faulting page (a superpage TLB has no valid vector).
#ifndef CPT_TLB_SUPERPAGE_H_
#define CPT_TLB_SUPERPAGE_H_

#include <vector>

#include "check/fwd.h"
#include "tlb/entry_store.h"
#include "tlb/tlb.h"

namespace cpt::tlb {

class SuperpageTlb final : public Tlb {
 public:
  explicit SuperpageTlb(unsigned num_entries);

  [[nodiscard]] LookupOutcome Lookup(Asid asid, Vpn vpn) override;
  void Insert(Asid asid, Vpn vpn, const pt::TlbFill& fill) override;
  void Flush() override;
  std::string name() const override { return "superpage"; }

  // Fraction of hits served by entries larger than a base page.
  double SuperpageHitFraction() const {
    return stats_.hits == 0 ? 0.0
                            : static_cast<double>(super_hits_) / static_cast<double>(stats_.hits);
  }

  // ---- Invariant auditing (src/check) ----
  void AuditVisit(check::TlbAuditVisitor& visitor) const;

 private:
  friend class check::TestBackdoor;

  // Form: the page size's log2.  Tag: the size-aligned base VPN.
  EntryStore store_;
  std::vector<Ppn> base_ppns_;
  std::uint64_t super_hits_ = 0;
};

}  // namespace cpt::tlb

#endif  // CPT_TLB_SUPERPAGE_H_
