// Conventional single-page-size TLB: one base page per entry (Figure 11a's
// 64-entry fully-associative baseline, also the normalization reference for
// every other experiment).
#ifndef CPT_TLB_SINGLE_PAGE_H_
#define CPT_TLB_SINGLE_PAGE_H_

#include <vector>

#include "check/fwd.h"
#include "tlb/entry_store.h"
#include "tlb/tlb.h"

namespace cpt::tlb {

class SinglePageTlb final : public Tlb {
 public:
  explicit SinglePageTlb(unsigned num_entries);

  [[nodiscard]] LookupOutcome Lookup(Asid asid, Vpn vpn) override;
  void Insert(Asid asid, Vpn vpn, const pt::TlbFill& fill) override;
  void Flush() override;
  std::string name() const override { return "single-page"; }

  // ---- Invariant auditing (src/check) ----
  void AuditVisit(check::TlbAuditVisitor& visitor) const;

 private:
  friend class check::TestBackdoor;

  static EntryStore::Key KeyOf(Asid asid, Vpn vpn) {
    return EntryStore::MakeKey(asid, 0, vpn.raw());
  }

  EntryStore store_;  // Tag: the VPN.
  std::vector<Ppn> ppns_;
};

}  // namespace cpt::tlb

#endif  // CPT_TLB_SINGLE_PAGE_H_
