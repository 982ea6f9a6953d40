#include "tlb/single_page.h"

#include "check/audit_visitor.h"

namespace cpt::tlb {

SinglePageTlb::SinglePageTlb(unsigned num_entries)
    : Tlb(num_entries),
      store_(num_entries, EntryStore::FillOrder::kLastInvalid),
      ppns_(num_entries) {}

LookupOutcome SinglePageTlb::Lookup(Asid asid, Vpn vpn) {
  const std::uint32_t slot = store_.Find(KeyOf(asid, vpn));
  if (slot == EntryStore::kNone) {
    RecordMiss(LookupOutcome::kMiss);
    return LookupOutcome::kMiss;
  }
  store_.set_stamp(slot, NextStamp());
  RecordHit();
  return LookupOutcome::kHit;
}

void SinglePageTlb::Insert(Asid asid, Vpn vpn, const pt::TlbFill& fill) {
  // A single-page TLB holds exactly one base translation regardless of the
  // fill's coverage (a superpage fill still installs only the faulting page).
  const EntryStore::Key key = KeyOf(asid, vpn);
  std::uint32_t slot = store_.Find(key);
  if (slot == EntryStore::kNone) {
    slot = store_.Claim(key);
  }
  ppns_[slot] = fill.Translate(vpn);
  store_.set_stamp(slot, NextStamp());
}

void SinglePageTlb::Flush() { store_.Flush(); }

void SinglePageTlb::AuditVisit(check::TlbAuditVisitor& visitor) const {
  for (std::uint32_t slot = 0; slot < store_.size(); ++slot) {
    check::TlbEntryView view;
    view.set = 0;
    view.valid = store_.valid(slot);
    view.asid = store_.asid(slot);
    view.stamp = store_.stamp(slot);
    view.base_vpn = Vpn{store_.tag(slot)};
    view.base_ppn = ppns_[slot];
    view.pages_log2 = 0;
    view.valid_vector = 1;
    view.block_entry = false;
    if (view.valid) {
      view.translations.emplace_back(view.base_vpn, view.base_ppn);
    }
    visitor.OnEntry(view);
  }
  store_.AuditIndex(visitor);
}

}  // namespace cpt::tlb
