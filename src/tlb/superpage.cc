#include "tlb/superpage.h"

#include <algorithm>
#include <bit>

#include "check/audit_visitor.h"
#include "common/check.h"

namespace cpt::tlb {

SuperpageTlb::SuperpageTlb(unsigned num_entries)
    : Tlb(num_entries),
      store_(num_entries, EntryStore::FillOrder::kLastInvalid),
      base_ppns_(num_entries) {}

LookupOutcome SuperpageTlb::Lookup(Asid asid, Vpn vpn) {
  // One probe per page size resident; overlapping entries resolve to the
  // lowest slot.
  std::uint32_t slot = EntryStore::kNone;
  for (std::uint32_t sizes = store_.forms(); sizes != 0; sizes &= sizes - 1) {
    const PageSize size{static_cast<unsigned>(std::countr_zero(sizes))};
    const Vpn base = SuperpageBaseVpn(vpn, size);
    slot = std::min(slot, store_.Find(EntryStore::MakeKey(asid, size.size_log2, base.raw())));
  }
  if (slot == EntryStore::kNone) {
    RecordMiss(LookupOutcome::kMiss);
    return LookupOutcome::kMiss;
  }
  store_.set_stamp(slot, NextStamp());
  RecordHit();
  if (store_.form(slot) > 0) {
    ++super_hits_;
  }
  return LookupOutcome::kHit;
}

void SuperpageTlb::Insert(Asid asid, Vpn vpn, const pt::TlbFill& fill) {
  Vpn base_vpn = fill.base_vpn;
  Ppn base_ppn = fill.word.ppn();
  unsigned pages_log2 = fill.pages_log2;
  if (fill.kind == MappingKind::kPartialSubblock) {
    // No valid vector in a superpage entry: install just the faulting page.
    base_vpn = vpn;
    base_ppn = fill.Translate(vpn);
    pages_log2 = 0;
  }
  CPT_DCHECK(pages_log2 < EntryStore::kMaxForms &&
                 IsSuperpageAligned(base_vpn, PageSize{pages_log2}),
             "superpage fills are size-aligned");
  const EntryStore::Key key = EntryStore::MakeKey(asid, pages_log2, base_vpn.raw());
  std::uint32_t slot = store_.Find(key);
  if (slot == EntryStore::kNone) {
    slot = store_.Claim(key);
  }
  base_ppns_[slot] = base_ppn;
  store_.set_stamp(slot, NextStamp());
}

void SuperpageTlb::Flush() { store_.Flush(); }

void SuperpageTlb::AuditVisit(check::TlbAuditVisitor& visitor) const {
  for (std::uint32_t slot = 0; slot < store_.size(); ++slot) {
    check::TlbEntryView view;
    view.set = 0;
    view.valid = store_.valid(slot);
    view.asid = store_.asid(slot);
    view.stamp = store_.stamp(slot);
    view.base_vpn = Vpn{store_.tag(slot)};
    view.base_ppn = base_ppns_[slot];
    view.pages_log2 = store_.form(slot);
    view.valid_vector = 1;
    view.block_entry = view.pages_log2 > 0;
    visitor.OnEntry(view);
  }
  store_.AuditIndex(visitor);
}

}  // namespace cpt::tlb
