// The entry store shared by the fully-associative TLBs.
//
// SinglePageTlb, SuperpageTlb, PartialSubblockTlb and CompleteSubblockTlb
// keep each entry's identity and recency here, and only its payload (PPNs,
// valid vectors) in arrays of their own, indexed by the same slot.  Three
// parts, all sized at construction (nothing allocates afterwards):
//   - slot arrays: a 16-byte key record per slot (tag, asid and entry form,
//     valid bit, index link) and a separate, compact array of LRU stamps;
//   - a chained tag -> slot index: a power-of-two bucket array of at least
//     twice the entries plus the per-slot link, holding exactly the valid
//     slots;
//   - one victim routine: a fill cursor over the invalid slots, else the
//     slot with the smallest stamp, found in one branch-free pass.
//
// The semantics are those of a linear scan over the slots in order
// (tests/tlb_reference.h keeps that scan as the reference, and
// tests/tlb_differential_test.cc holds the two in lockstep):
//   - a key (asid, form, tag) names at most one valid slot, because an
//     insert of a resident key refreshes that slot in place.  A TLB whose
//     entry forms can overlap (a stale base page under a newer superpage)
//     probes once per resident form and takes the lowest slot that hits;
//   - invalid slots only arise from construction and Flush(), so they are
//     one contiguous run and a cursor hands them out: the last slot first
//     (kLastInvalid) or the first slot first (kFirstInvalid);
//   - with no invalid slot the victim is the first slot with the smallest
//     stamp.
#ifndef CPT_TLB_ENTRY_STORE_H_
#define CPT_TLB_ENTRY_STORE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "check/fwd.h"
#include "tlb/tlb.h"

namespace cpt::tlb {

class EntryStore {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  // Entry forms are small TLB-defined codes (the superpage TLB uses the page
  // size's log2, which SuperpageBaseVpn bounds below 32).
  static constexpr unsigned kMaxForms = 32;

  // Which invalid slot a new entry takes first.
  enum class FillOrder : std::uint8_t { kLastInvalid, kFirstInvalid };

  // An entry's identity: the tag (VPN or VPBN, per form) under an asid.
  struct Key {
    std::uint64_t tag = 0;
    std::uint32_t asid_form = 0;  // asid | form << kFormShift.
  };
  static constexpr Key MakeKey(Asid asid, unsigned form, std::uint64_t tag) {
    return Key{tag, std::uint32_t{asid} | form << kFormShift};
  }

  EntryStore(unsigned num_entries, FillOrder order);

  unsigned size() const { return static_cast<unsigned>(slots_.size()); }

  // The slot of the valid entry with `key`, or kNone.
  [[nodiscard]] std::uint32_t Find(Key key) const {
    const std::uint32_t want = key.asid_form | kValidBit;
    for (std::uint32_t s = heads_[BucketOf(key)]; s != kNone; s = slots_[s].next) {
      if (slots_[s].tag == key.tag && slots_[s].meta == want) {
        return s;
      }
    }
    return kNone;
  }

  // Bit f set: some valid entry has form f.
  std::uint32_t forms() const { return forms_; }

  // Makes a valid entry for `key`, which must not be resident: the next
  // invalid slot in fill order, else the oldest slot, whose entry is
  // evicted.  The caller writes the payload and the stamp.
  std::uint32_t Claim(Key key);

  void Flush();

  std::uint64_t stamp(std::uint32_t slot) const { return stamps_[slot]; }
  void set_stamp(std::uint32_t slot, std::uint64_t stamp) { stamps_[slot] = stamp; }

  // Slot state for AuditVisit; invalid slots keep their last entry's.
  bool valid(std::uint32_t slot) const { return (slots_[slot].meta & kValidBit) != 0; }
  Asid asid(std::uint32_t slot) const { return static_cast<Asid>(slots_[slot].meta); }
  unsigned form(std::uint32_t slot) const {
    return (slots_[slot].meta & ~kValidBit) >> kFormShift;
  }
  std::uint64_t tag(std::uint32_t slot) const { return slots_[slot].tag; }

  // ---- Invariant auditing (src/check) ----
  // Reports every index link and, per valid slot, where a probe for its
  // own key resolves (TlbAuditVisitor::OnIndexLink / OnIndexProbe).
  void AuditIndex(check::TlbAuditVisitor& visitor) const;

 private:
  friend class check::TestBackdoor;

  static constexpr unsigned kFormShift = 16;
  static constexpr std::uint32_t kValidBit = std::uint32_t{1} << 31;

  struct Slot {
    std::uint64_t tag = 0;
    std::uint32_t meta = 0;       // asid | form << kFormShift | kValidBit.
    std::uint32_t next = kNone;   // Next slot in the same index chain.
  };
  // Host layout pin (DESIGN.md "Layout pins"): one probe step reads one
  // 16-byte record.
  static_assert(sizeof(Slot) == 16 && alignof(Slot) == 8);

  std::uint32_t BucketOf(Key key) const {
    // Fibonacci hashing: one multiply, the bucket is the product's top bits.
    const std::uint64_t mixed = key.tag ^ (std::uint64_t{key.asid_form} << 32);
    return static_cast<std::uint32_t>((mixed * 0x9E3779B97F4A7C15ull) >> bucket_shift_);
  }
  std::uint32_t Oldest() const;
  void Unlink(std::uint32_t slot);

  std::vector<Slot> slots_;
  std::vector<std::uint64_t> stamps_;
  std::vector<std::uint32_t> heads_;
  std::array<std::uint32_t, kMaxForms> form_entries_{};
  std::uint32_t forms_ = 0;
  unsigned invalid_;  // Slots not yet claimed since construction or Flush().
  unsigned bucket_shift_ = 0;
  FillOrder order_;
};

}  // namespace cpt::tlb

#endif  // CPT_TLB_ENTRY_STORE_H_
