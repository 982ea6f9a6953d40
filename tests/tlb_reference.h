// Reference TLBs for the lockstep differential test: the four
// fully-associative designs as linear scans over an array of entries.  They
// are the behavioural specification the indexed TLBs (tlb/entry_store.h)
// must match — lowest-slot hit, LRU stamps, last-invalid fill (first-invalid
// for the complete-subblock TLB) — and belong to no library.
#ifndef CPT_TESTS_TLB_REFERENCE_H_
#define CPT_TESTS_TLB_REFERENCE_H_

#include <array>
#include <span>
#include <string>
#include <vector>

#include "check/audit_visitor.h"
#include "common/check.h"
#include "tlb/tlb.h"

namespace cpt::tlb::reference {

// ---------------------------------------------------------------------------
// SinglePageTlb
// ---------------------------------------------------------------------------

class SinglePageTlb final : public Tlb {
 public:
  explicit SinglePageTlb(unsigned num_entries) : Tlb(num_entries), entries_(num_entries) {}

  [[nodiscard]] LookupOutcome Lookup(Asid asid, Vpn vpn) override {
    for (Entry& e : entries_) {
      if (e.valid && e.asid == asid && e.vpn == vpn) {
        e.stamp = NextStamp();
        RecordHit();
        return LookupOutcome::kHit;
      }
    }
    RecordMiss(LookupOutcome::kMiss);
    return LookupOutcome::kMiss;
  }

  void Insert(Asid asid, Vpn vpn, const pt::TlbFill& fill) override {
    // A single-page TLB holds exactly one base translation regardless of the
    // fill's coverage (a superpage fill still installs only the faulting page).
    Entry* victim = &entries_[0];
    for (Entry& e : entries_) {
      if (e.valid && e.asid == asid && e.vpn == vpn) {
        victim = &e;  // Re-insert over the stale entry.
        break;
      }
      if (!e.valid) {
        victim = &e;
      } else if (victim->valid && e.stamp < victim->stamp) {
        victim = &e;
      }
    }
    victim->asid = asid;
    victim->vpn = vpn;
    victim->ppn = fill.Translate(vpn);
    victim->valid = true;
    victim->stamp = NextStamp();
  }

  void Flush() override {
    for (Entry& e : entries_) {
      e.valid = false;
    }
  }

  std::string name() const override { return "single-page"; }

  void AuditVisit(check::TlbAuditVisitor& visitor) const {
    for (const Entry& e : entries_) {
      check::TlbEntryView view;
      view.set = 0;
      view.valid = e.valid;
      view.asid = e.asid;
      view.stamp = e.stamp;
      view.base_vpn = e.vpn;
      view.base_ppn = e.ppn;
      view.pages_log2 = 0;
      view.valid_vector = 1;
      view.block_entry = false;
      if (e.valid) {
        view.translations.emplace_back(e.vpn, e.ppn);
      }
      visitor.OnEntry(view);
    }
  }

 private:
  struct Entry {
    Asid asid = 0;
    Vpn vpn{};
    Ppn ppn{};
    bool valid = false;
    std::uint64_t stamp = 0;
  };

  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------------
// SuperpageTlb
// ---------------------------------------------------------------------------

class SuperpageTlb final : public Tlb {
 public:
  explicit SuperpageTlb(unsigned num_entries) : Tlb(num_entries), entries_(num_entries) {}

  [[nodiscard]] LookupOutcome Lookup(Asid asid, Vpn vpn) override {
    for (Entry& e : entries_) {
      const PageSize size{e.pages_log2};
      if (e.valid && e.asid == asid &&
          SuperpageBaseVpn(vpn, size) == SuperpageBaseVpn(e.base_vpn, size)) {
        e.stamp = NextStamp();
        RecordHit();
        if (e.pages_log2 > 0) {
          ++super_hits_;
        }
        return LookupOutcome::kHit;
      }
    }
    RecordMiss(LookupOutcome::kMiss);
    return LookupOutcome::kMiss;
  }

  void Insert(Asid asid, Vpn vpn, const pt::TlbFill& fill) override {
    Entry incoming;
    incoming.asid = asid;
    incoming.valid = true;
    if (fill.kind == MappingKind::kPartialSubblock) {
      // No valid vector in a superpage entry: install just the faulting page.
      incoming.base_vpn = vpn;
      incoming.base_ppn = fill.Translate(vpn);
      incoming.pages_log2 = 0;
    } else {
      incoming.base_vpn = fill.base_vpn;
      incoming.base_ppn = fill.word.ppn();
      incoming.pages_log2 = fill.pages_log2;
    }

    Entry* victim = &entries_[0];
    for (Entry& e : entries_) {
      if (e.valid && e.asid == asid && e.base_vpn == incoming.base_vpn &&
          e.pages_log2 == incoming.pages_log2) {
        victim = &e;
        break;
      }
      if (!e.valid) {
        victim = &e;
      } else if (victim->valid && e.stamp < victim->stamp) {
        victim = &e;
      }
    }
    incoming.stamp = NextStamp();
    *victim = incoming;
  }

  void Flush() override {
    for (Entry& e : entries_) {
      e.valid = false;
    }
  }

  std::string name() const override { return "superpage"; }

  double SuperpageHitFraction() const {
    return stats_.hits == 0 ? 0.0
                            : static_cast<double>(super_hits_) / static_cast<double>(stats_.hits);
  }

  void AuditVisit(check::TlbAuditVisitor& visitor) const {
    for (const Entry& e : entries_) {
      check::TlbEntryView view;
      view.set = 0;
      view.valid = e.valid;
      view.asid = e.asid;
      view.stamp = e.stamp;
      view.base_vpn = e.base_vpn;
      view.base_ppn = e.base_ppn;
      view.pages_log2 = e.pages_log2;
      view.valid_vector = 1;
      view.block_entry = e.pages_log2 > 0;
      visitor.OnEntry(view);
    }
  }

 private:
  struct Entry {
    Asid asid = 0;
    Vpn base_vpn{};
    Ppn base_ppn{};
    unsigned pages_log2 = 0;
    bool valid = false;
    std::uint64_t stamp = 0;
  };

  std::vector<Entry> entries_;
  std::uint64_t super_hits_ = 0;
};

// ---------------------------------------------------------------------------
// PartialSubblockTlb
// ---------------------------------------------------------------------------

class PartialSubblockTlb final : public Tlb {
 public:
  PartialSubblockTlb(unsigned num_entries, unsigned subblock_factor)
      : Tlb(num_entries),
        factor_(subblock_factor),
        block_log2_(Log2(subblock_factor)),
        entries_(num_entries) {
    CPT_CHECK(IsPowerOfTwo(subblock_factor) && subblock_factor <= 16,
              "PSB valid vectors hold at most 16 bits");
  }

  [[nodiscard]] LookupOutcome Lookup(Asid asid, Vpn vpn) override {
    for (Entry& e : entries_) {
      if (Covers(e, asid, vpn)) {
        e.stamp = NextStamp();
        RecordHit();
        if (e.block_entry) {
          ++psb_hits_;
        }
        return LookupOutcome::kHit;
      }
    }
    RecordMiss(LookupOutcome::kMiss);
    return LookupOutcome::kMiss;
  }

  void Insert(Asid asid, Vpn vpn, const pt::TlbFill& fill) override {
    Entry incoming;
    incoming.asid = asid;
    incoming.valid = true;
    switch (fill.kind) {
      case MappingKind::kPartialSubblock:
        incoming.block_entry = true;
        incoming.vpbn = VpbnOf(fill.base_vpn, factor_);
        incoming.block_ppn = fill.word.ppn();
        incoming.vector = fill.word.valid_vector();
        break;
      case MappingKind::kSuperpage:
        if (fill.pages_log2 == block_log2_) {
          // A block-sized superpage is an all-valid partial-subblock entry.
          incoming.block_entry = true;
          incoming.vpbn = VpbnOf(fill.base_vpn, factor_);
          incoming.block_ppn = fill.word.ppn();
          incoming.vector = factor_ >= 16 ? std::uint16_t{0xFFFF}
                                          : static_cast<std::uint16_t>((1u << factor_) - 1);
        } else {
          // Other sizes don't fit this entry format: map the faulting page.
          incoming.block_entry = false;
          incoming.single_vpn = vpn;
          incoming.single_ppn = fill.Translate(vpn);
        }
        break;
      case MappingKind::kBase:
        incoming.block_entry = false;
        incoming.single_vpn = vpn;
        incoming.single_ppn = fill.Translate(vpn);
        break;
    }

    Entry* victim = &entries_[0];
    for (Entry& e : entries_) {
      const bool same_slot =
          e.valid && e.asid == asid && e.block_entry == incoming.block_entry &&
          (incoming.block_entry ? e.vpbn == incoming.vpbn : e.single_vpn == incoming.single_vpn);
      if (same_slot) {
        victim = &e;  // Refresh (e.g. the PSB vector grew a bit).
        break;
      }
      if (!e.valid) {
        victim = &e;
      } else if (victim->valid && e.stamp < victim->stamp) {
        victim = &e;
      }
    }
    incoming.stamp = NextStamp();
    *victim = incoming;
  }

  void Flush() override {
    for (Entry& e : entries_) {
      e.valid = false;
    }
  }

  std::string name() const override { return "partial-subblock"; }

  unsigned subblock_factor() const { return factor_; }
  double SubblockHitFraction() const {
    return stats_.hits == 0 ? 0.0
                            : static_cast<double>(psb_hits_) / static_cast<double>(stats_.hits);
  }

  void AuditVisit(check::TlbAuditVisitor& visitor) const {
    for (const Entry& e : entries_) {
      check::TlbEntryView view;
      view.set = 0;
      view.valid = e.valid;
      view.asid = e.asid;
      view.stamp = e.stamp;
      view.block_entry = e.block_entry;
      if (e.block_entry) {
        view.base_vpn = FirstVpnOfBlock(e.vpbn, factor_);
        view.base_ppn = e.block_ppn;
        view.pages_log2 = block_log2_;
        view.valid_vector = e.vector;
      } else {
        view.base_vpn = e.single_vpn;
        view.base_ppn = e.single_ppn;
        view.pages_log2 = 0;
        view.valid_vector = 1;
      }
      visitor.OnEntry(view);
    }
  }

 private:
  struct Entry {
    Asid asid = 0;
    Vpbn vpbn{};
    Ppn block_ppn{};            // Block-aligned when vector-mapped.
    std::uint16_t vector = 0;     // Valid bits; single-page entries set one.
    bool block_entry = false;     // True: PSB/superpage form; false: one page.
    Vpn single_vpn{};           // Valid when !block_entry.
    Ppn single_ppn{};
    bool valid = false;
    std::uint64_t stamp = 0;
  };

  bool Covers(const Entry& e, Asid asid, Vpn vpn) const {
    if (!e.valid || e.asid != asid) {
      return false;
    }
    if (!e.block_entry) {
      return e.single_vpn == vpn;
    }
    if (VpbnOf(vpn, factor_) != e.vpbn) {
      return false;
    }
    return (e.vector >> BoffOf(vpn, factor_)) & 1u;
  }

  unsigned factor_;
  unsigned block_log2_;
  std::vector<Entry> entries_;
  std::uint64_t psb_hits_ = 0;
};

// ---------------------------------------------------------------------------
// CompleteSubblockTlb
// ---------------------------------------------------------------------------

class CompleteSubblockTlb final : public Tlb {
 public:
  static constexpr unsigned kMaxFactor = 64;

  CompleteSubblockTlb(unsigned num_entries, unsigned subblock_factor)
      : Tlb(num_entries), factor_(subblock_factor), entries_(num_entries) {
    CPT_CHECK(IsPowerOfTwo(subblock_factor) && subblock_factor <= kMaxFactor,
              "per-entry valid vector is one 64-bit word");
  }

  [[nodiscard]] LookupOutcome Lookup(Asid asid, Vpn vpn) override {
    const Vpbn vpbn = VpbnOf(vpn, factor_);
    Entry* e = FindTag(asid, vpbn);
    if (e == nullptr) {
      RecordMiss(LookupOutcome::kBlockMiss);
      return LookupOutcome::kBlockMiss;
    }
    const unsigned boff = BoffOf(vpn, factor_);
    if ((e->vector >> boff) & 1u) {
      e->stamp = NextStamp();
      RecordHit();
      return LookupOutcome::kHit;
    }
    RecordMiss(LookupOutcome::kSubblockMiss);
    return LookupOutcome::kSubblockMiss;
  }

  void Insert(Asid asid, Vpn vpn, const pt::TlbFill& fill) override {
    const Vpbn vpbn = VpbnOf(vpn, factor_);
    Entry* e = FindTag(asid, vpbn);
    if (e == nullptr) {
      e = &AllocEntry(asid, vpbn);
    }
    const unsigned boff = BoffOf(vpn, factor_);
    e->vector |= std::uint64_t{1} << boff;
    e->ppns[boff] = fill.Translate(vpn);
    e->stamp = NextStamp();
  }

  void InsertBlock(Asid asid, Vpn vpn, std::span<const pt::TlbFill> fills) {
    const Vpbn vpbn = VpbnOf(vpn, factor_);
    Entry* e = FindTag(asid, vpbn);
    if (e == nullptr) {
      e = &AllocEntry(asid, vpbn);
    }
    const Vpn first = FirstVpnOfBlock(vpbn, factor_);
    for (const pt::TlbFill& fill : fills) {
      for (unsigned i = 0; i < factor_; ++i) {
        if (fill.Covers(first + i)) {
          e->vector |= std::uint64_t{1} << i;
          e->ppns[i] = fill.Translate(first + i);
        }
      }
    }
    e->stamp = NextStamp();
  }

  void Flush() override {
    for (Entry& e : entries_) {
      e.valid = false;
    }
  }

  std::string name() const override { return "complete-subblock"; }

  unsigned subblock_factor() const { return factor_; }

  void AuditVisit(check::TlbAuditVisitor& visitor) const {
    for (const Entry& e : entries_) {
      check::TlbEntryView view;
      view.set = 0;
      view.valid = e.valid;
      view.asid = e.asid;
      view.stamp = e.stamp;
      view.base_vpn = FirstVpnOfBlock(e.vpbn, factor_);
      view.base_ppn = Ppn{};
      view.pages_log2 = Log2(factor_);
      view.valid_vector = e.vector;
      view.block_entry = true;
      if (e.valid) {
        for (unsigned i = 0; i < factor_; ++i) {
          if ((e.vector >> i) & 1u) {
            view.translations.emplace_back(view.base_vpn + i, e.ppns[i]);
          }
        }
      }
      visitor.OnEntry(view);
    }
  }

 private:
  struct Entry {
    Asid asid = 0;
    Vpbn vpbn{};
    std::uint64_t vector = 0;  // Valid bit per base page.
    std::array<Ppn, kMaxFactor> ppns{};
    bool valid = false;
    std::uint64_t stamp = 0;
  };

  Entry* FindTag(Asid asid, Vpbn vpbn) {
    for (Entry& e : entries_) {
      if (e.valid && e.asid == asid && e.vpbn == vpbn) {
        return &e;
      }
    }
    return nullptr;
  }

  Entry& AllocEntry(Asid asid, Vpbn vpbn) {
    Entry* victim = &entries_[0];
    for (Entry& e : entries_) {
      if (!e.valid) {
        victim = &e;
        break;
      }
      if (victim->valid && e.stamp < victim->stamp) {
        victim = &e;
      }
    }
    *victim = Entry{};
    victim->asid = asid;
    victim->vpbn = vpbn;
    victim->valid = true;
    victim->stamp = NextStamp();
    return *victim;
  }

  unsigned factor_;
  std::vector<Entry> entries_;
};

}  // namespace cpt::tlb::reference

#endif  // CPT_TESTS_TLB_REFERENCE_H_
