#include "tlb/complete_subblock.h"

#include "check/audit_visitor.h"
#include "common/check.h"

namespace cpt::tlb {

CompleteSubblockTlb::CompleteSubblockTlb(unsigned num_entries, unsigned subblock_factor)
    : Tlb(num_entries),
      factor_(subblock_factor),
      store_(num_entries, EntryStore::FillOrder::kFirstInvalid),
      vectors_(num_entries),
      ppns_(std::size_t{num_entries} * subblock_factor) {
  CPT_CHECK(IsPowerOfTwo(subblock_factor) && subblock_factor <= kMaxFactor,
            "per-entry valid vector is one 64-bit word");
}

std::uint32_t CompleteSubblockTlb::SlotFor(Asid asid, Vpbn vpbn) {
  const EntryStore::Key key = KeyOf(asid, vpbn);
  std::uint32_t slot = store_.Find(key);
  if (slot == EntryStore::kNone) {
    // Block miss: a fresh entry with an empty vector, stamped on allocation.
    slot = store_.Claim(key);
    vectors_[slot] = 0;
    store_.set_stamp(slot, NextStamp());
  }
  return slot;
}

LookupOutcome CompleteSubblockTlb::Lookup(Asid asid, Vpn vpn) {
  const std::uint32_t slot = store_.Find(KeyOf(asid, VpbnOf(vpn, factor_)));
  if (slot == EntryStore::kNone) {
    RecordMiss(LookupOutcome::kBlockMiss);
    return LookupOutcome::kBlockMiss;
  }
  if ((vectors_[slot] >> BoffOf(vpn, factor_)) & 1u) {
    store_.set_stamp(slot, NextStamp());
    RecordHit();
    return LookupOutcome::kHit;
  }
  RecordMiss(LookupOutcome::kSubblockMiss);
  return LookupOutcome::kSubblockMiss;
}

void CompleteSubblockTlb::Insert(Asid asid, Vpn vpn, const pt::TlbFill& fill) {
  const std::uint32_t slot = SlotFor(asid, VpbnOf(vpn, factor_));
  const unsigned boff = BoffOf(vpn, factor_);
  vectors_[slot] |= std::uint64_t{1} << boff;
  ppns_[std::size_t{slot} * factor_ + boff] = fill.Translate(vpn);
  store_.set_stamp(slot, NextStamp());
}

void CompleteSubblockTlb::InsertBlock(Asid asid, Vpn vpn, std::span<const pt::TlbFill> fills) {
  const Vpbn vpbn = VpbnOf(vpn, factor_);
  const std::uint32_t slot = SlotFor(asid, vpbn);
  Ppn* ppns = &ppns_[std::size_t{slot} * factor_];
  const Vpn first = FirstVpnOfBlock(vpbn, factor_);
  for (const pt::TlbFill& fill : fills) {
    for (unsigned i = 0; i < factor_; ++i) {
      if (fill.Covers(first + i)) {
        vectors_[slot] |= std::uint64_t{1} << i;
        ppns[i] = fill.Translate(first + i);
      }
    }
  }
  store_.set_stamp(slot, NextStamp());
}

void CompleteSubblockTlb::Flush() { store_.Flush(); }

void CompleteSubblockTlb::AuditVisit(check::TlbAuditVisitor& visitor) const {
  for (std::uint32_t slot = 0; slot < store_.size(); ++slot) {
    check::TlbEntryView view;
    view.set = 0;
    view.valid = store_.valid(slot);
    view.asid = store_.asid(slot);
    view.stamp = store_.stamp(slot);
    view.base_vpn = FirstVpnOfBlock(Vpbn{store_.tag(slot)}, factor_);
    view.base_ppn = Ppn{};
    view.pages_log2 = Log2(factor_);
    view.valid_vector = vectors_[slot];
    view.block_entry = true;
    if (view.valid) {
      for (unsigned i = 0; i < factor_; ++i) {
        if ((vectors_[slot] >> i) & 1u) {
          view.translations.emplace_back(view.base_vpn + i, ppns_[std::size_t{slot} * factor_ + i]);
        }
      }
    }
    visitor.OnEntry(view);
  }
  store_.AuditIndex(visitor);
}

}  // namespace cpt::tlb
