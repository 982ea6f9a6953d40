#include "tlb/partial_subblock.h"

#include <algorithm>

#include "check/audit_visitor.h"
#include "common/check.h"

namespace cpt::tlb {

PartialSubblockTlb::PartialSubblockTlb(unsigned num_entries, unsigned subblock_factor)
    : Tlb(num_entries),
      factor_(subblock_factor),
      block_log2_(Log2(subblock_factor)),
      store_(num_entries, EntryStore::FillOrder::kLastInvalid),
      payloads_(num_entries) {
  CPT_CHECK(IsPowerOfTwo(subblock_factor) && subblock_factor <= 16,
            "PSB valid vectors hold at most 16 bits");
}

LookupOutcome PartialSubblockTlb::Lookup(Asid asid, Vpn vpn) {
  // A block entry covers the page only if its valid bit is set; otherwise
  // a single-page entry may still cover it.  Both covering: lowest slot.
  std::uint32_t slot = EntryStore::kNone;
  const std::uint32_t forms = store_.forms();
  if ((forms >> kBlockForm) & 1u) {
    const std::uint32_t block =
        store_.Find(EntryStore::MakeKey(asid, kBlockForm, VpbnOf(vpn, factor_).raw()));
    if (block != EntryStore::kNone && ((payloads_[block].vector >> BoffOf(vpn, factor_)) & 1u)) {
      slot = block;
    }
  }
  if ((forms >> kSingleForm) & 1u) {
    slot = std::min(slot, store_.Find(EntryStore::MakeKey(asid, kSingleForm, vpn.raw())));
  }
  if (slot == EntryStore::kNone) {
    RecordMiss(LookupOutcome::kMiss);
    return LookupOutcome::kMiss;
  }
  store_.set_stamp(slot, NextStamp());
  RecordHit();
  if (store_.form(slot) == kBlockForm) {
    ++psb_hits_;
  }
  return LookupOutcome::kHit;
}

void PartialSubblockTlb::Insert(Asid asid, Vpn vpn, const pt::TlbFill& fill) {
  // Block form for PSB fills and block-sized superpages (an all-valid
  // vector); other fills map only the faulting page.
  EntryStore::Key key = EntryStore::MakeKey(asid, kSingleForm, vpn.raw());
  Payload payload;
  switch (fill.kind) {
    case MappingKind::kPartialSubblock:
      key = EntryStore::MakeKey(asid, kBlockForm, VpbnOf(fill.base_vpn, factor_).raw());
      payload = Payload{fill.word.ppn(), fill.word.valid_vector()};
      break;
    case MappingKind::kSuperpage:
      if (fill.pages_log2 == block_log2_) {
        key = EntryStore::MakeKey(asid, kBlockForm, VpbnOf(fill.base_vpn, factor_).raw());
        payload = Payload{fill.word.ppn(), factor_ >= 16 ? std::uint16_t{0xFFFF}
                                                         : static_cast<std::uint16_t>(
                                                               (1u << factor_) - 1)};
      } else {
        payload.ppn = fill.Translate(vpn);
      }
      break;
    case MappingKind::kBase:
      payload.ppn = fill.Translate(vpn);
      break;
  }
  // A resident key refreshes in place (e.g. the PSB vector grew a bit).
  std::uint32_t slot = store_.Find(key);
  if (slot == EntryStore::kNone) {
    slot = store_.Claim(key);
  }
  payloads_[slot] = payload;
  store_.set_stamp(slot, NextStamp());
}

void PartialSubblockTlb::Flush() { store_.Flush(); }

void PartialSubblockTlb::AuditVisit(check::TlbAuditVisitor& visitor) const {
  for (std::uint32_t slot = 0; slot < store_.size(); ++slot) {
    check::TlbEntryView view;
    view.set = 0;
    view.valid = store_.valid(slot);
    view.asid = store_.asid(slot);
    view.stamp = store_.stamp(slot);
    view.block_entry = store_.form(slot) == kBlockForm;
    view.base_ppn = payloads_[slot].ppn;
    if (view.block_entry) {
      view.base_vpn = FirstVpnOfBlock(Vpbn{store_.tag(slot)}, factor_);
      view.pages_log2 = block_log2_;
      view.valid_vector = payloads_[slot].vector;
    } else {
      view.base_vpn = Vpn{store_.tag(slot)};
      view.pages_log2 = 0;
      view.valid_vector = 1;
    }
    visitor.OnEntry(view);
  }
  store_.AuditIndex(visitor);
}

}  // namespace cpt::tlb
