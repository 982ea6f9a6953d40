#include "tlb/entry_store.h"

#include <algorithm>
#include <bit>

#include "check/audit_visitor.h"
#include "common/check.h"

namespace cpt::tlb {

EntryStore::EntryStore(unsigned num_entries, FillOrder order)
    : slots_(num_entries), stamps_(num_entries), invalid_(num_entries), order_(order) {
  CPT_CHECK(num_entries >= 1, "an entry store needs at least one slot");
  const std::uint64_t buckets = std::bit_ceil(std::uint64_t{2} * num_entries);
  heads_.assign(buckets, kNone);
  bucket_shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
}

std::uint32_t EntryStore::Oldest() const {
  std::uint32_t oldest = 0;
  std::uint64_t oldest_stamp = stamps_[0];
  for (std::uint32_t s = 1; s < stamps_.size(); ++s) {
    const bool older = stamps_[s] < oldest_stamp;
    oldest = older ? s : oldest;
    oldest_stamp = older ? stamps_[s] : oldest_stamp;
  }
  return oldest;
}

void EntryStore::Unlink(std::uint32_t slot) {
  const Slot& entry = slots_[slot];
  std::uint32_t* link = &heads_[BucketOf(Key{entry.tag, entry.meta & ~kValidBit})];
  while (*link != slot) {
    CPT_DCHECK(*link != kNone, "a valid slot is missing from its index chain");
    link = &slots_[*link].next;
  }
  *link = entry.next;
}

std::uint32_t EntryStore::Claim(Key key) {
  std::uint32_t slot;
  if (invalid_ > 0) {
    --invalid_;
    slot = order_ == FillOrder::kLastInvalid ? invalid_ : size() - 1 - invalid_;
  } else {
    slot = Oldest();
    Unlink(slot);
    const unsigned old_form = form(slot);
    if (--form_entries_[old_form] == 0) {
      forms_ &= ~(std::uint32_t{1} << old_form);
    }
  }
  const unsigned new_form = key.asid_form >> kFormShift;
  CPT_DCHECK(new_form < kMaxForms);
  ++form_entries_[new_form];
  forms_ |= std::uint32_t{1} << new_form;

  std::uint32_t& head = heads_[BucketOf(key)];
  slots_[slot] = Slot{key.tag, key.asid_form | kValidBit, head};
  head = slot;
  return slot;
}

void EntryStore::Flush() {
  for (Slot& s : slots_) {
    s.meta &= ~kValidBit;
  }
  std::fill(heads_.begin(), heads_.end(), kNone);
  form_entries_.fill(0);
  forms_ = 0;
  invalid_ = size();
}

void EntryStore::AuditIndex(check::TlbAuditVisitor& visitor) const {
  // Each chain walk stops after size() links: a cycle shows up as a slot
  // linked twice, a stray link as an out-of-range or invalid slot.
  for (std::uint32_t b = 0; b < heads_.size(); ++b) {
    std::uint32_t s = heads_[b];
    for (unsigned steps = 0; s != kNone && steps <= size(); ++steps) {
      visitor.OnIndexLink(b, s);
      if (s >= size()) {
        break;
      }
      s = slots_[s].next;
    }
  }
  for (std::uint32_t slot = 0; slot < size(); ++slot) {
    if (!valid(slot)) {
      continue;
    }
    const Slot& entry = slots_[slot];
    std::uint32_t resolved = kNone;
    std::uint32_t s = heads_[BucketOf(Key{entry.tag, entry.meta & ~kValidBit})];
    for (unsigned steps = 0; s < size() && steps <= size(); ++steps) {
      if (slots_[s].tag == entry.tag && slots_[s].meta == entry.meta) {
        resolved = s;
        break;
      }
      s = slots_[s].next;
    }
    visitor.OnIndexProbe(slot, resolved);
  }
}

}  // namespace cpt::tlb
