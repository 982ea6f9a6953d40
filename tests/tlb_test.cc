// Tests for the four TLB simulators: hit/miss semantics, LRU replacement,
// asid isolation, superpage coverage, PSB vectors, and complete-subblock
// block/subblock miss classification with prefetch.  The slot-order cases
// at the end pin the rules that decide LRU order (lowest-slot hit, fill
// order, in-place refresh), observed through AuditVisit.
#include <gtest/gtest.h>

#include <vector>

#include "check/audit_visitor.h"
#include "common/rng.h"
#include "tlb/complete_subblock.h"
#include "tlb/partial_subblock.h"
#include "tlb/single_page.h"
#include "tlb/superpage.h"

namespace cpt::tlb {
namespace {

pt::TlbFill BaseFill(Vpn vpn, Ppn ppn) {
  return pt::TlbFill{.kind = MappingKind::kBase,
                     .base_vpn = vpn,
                     .pages_log2 = 0,
                     .word = MappingWord::Base(ppn, Attr::ReadWrite())};
}

pt::TlbFill SuperFill(Vpn base_vpn, Ppn base_ppn, PageSize size) {
  return pt::TlbFill{.kind = MappingKind::kSuperpage,
                     .base_vpn = base_vpn,
                     .pages_log2 = size.size_log2,
                     .word = MappingWord::Superpage(base_ppn, Attr::ReadWrite(), size)};
}

pt::TlbFill PsbFill(Vpn block_base, Ppn block_ppn, std::uint16_t vector) {
  return pt::TlbFill{
      .kind = MappingKind::kPartialSubblock,
      .base_vpn = block_base,
      .pages_log2 = 4,
      .word = MappingWord::PartialSubblock(block_ppn, Attr::ReadWrite(), vector)};
}

// ---------------------------------------------------------------------------
// SinglePageTlb
// ---------------------------------------------------------------------------

TEST(SinglePageTlbTest, MissThenHit) {
  SinglePageTlb tlb(4);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x100}), LookupOutcome::kMiss);
  tlb.Insert(0, Vpn{0x100}, BaseFill(Vpn{0x100}, Ppn{1}));
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x100}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.stats().accesses, 2u);
  EXPECT_EQ(tlb.stats().hits, 1u);
  EXPECT_EQ(tlb.stats().misses, 1u);
}

TEST(SinglePageTlbTest, LruEvictsLeastRecentlyUsed) {
  SinglePageTlb tlb(2);
  tlb.Insert(0, Vpn{1}, BaseFill(Vpn{1}, Ppn{1}));
  tlb.Insert(0, Vpn{2}, BaseFill(Vpn{2}, Ppn{2}));
  EXPECT_EQ(tlb.Lookup(0, Vpn{1}), LookupOutcome::kHit);  // 2 becomes LRU.
  tlb.Insert(0, Vpn{3}, BaseFill(Vpn{3}, Ppn{3}));                   // Evicts 2.
  EXPECT_EQ(tlb.Lookup(0, Vpn{1}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{3}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{2}), LookupOutcome::kMiss);
}

TEST(SinglePageTlbTest, AsidsDoNotAlias) {
  SinglePageTlb tlb(4);
  tlb.Insert(0, Vpn{0x100}, BaseFill(Vpn{0x100}, Ppn{1}));
  EXPECT_EQ(tlb.Lookup(1, Vpn{0x100}), LookupOutcome::kMiss);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x100}), LookupOutcome::kHit);
}

TEST(SinglePageTlbTest, SuperpageFillInstallsOnlyFaultingPage) {
  SinglePageTlb tlb(4);
  tlb.Insert(0, Vpn{0x4005}, SuperFill(Vpn{0x4000}, Ppn{0x100}, kPage64K));
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x4005}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x4006}), LookupOutcome::kMiss);
}

TEST(SinglePageTlbTest, FlushInvalidatesEverything) {
  SinglePageTlb tlb(4);
  tlb.Insert(0, Vpn{1}, BaseFill(Vpn{1}, Ppn{1}));
  tlb.Flush();
  EXPECT_EQ(tlb.Lookup(0, Vpn{1}), LookupOutcome::kMiss);
}

TEST(SinglePageTlbTest, ReinsertDoesNotDuplicate) {
  SinglePageTlb tlb(2);
  tlb.Insert(0, Vpn{1}, BaseFill(Vpn{1}, Ppn{1}));
  tlb.Insert(0, Vpn{1}, BaseFill(Vpn{1}, Ppn{9}));
  tlb.Insert(0, Vpn{2}, BaseFill(Vpn{2}, Ppn{2}));
  // Both entries must still fit: the re-insert reused 1's slot.
  EXPECT_EQ(tlb.Lookup(0, Vpn{1}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{2}), LookupOutcome::kHit);
}

// ---------------------------------------------------------------------------
// SuperpageTlb
// ---------------------------------------------------------------------------

TEST(SuperpageTlbTest, SuperpageEntryCoversWholeRange) {
  SuperpageTlb tlb(4);
  tlb.Insert(0, Vpn{0x4003}, SuperFill(Vpn{0x4000}, Ppn{0x100}, kPage64K));
  for (unsigned i = 0; i < 16; ++i) {
    EXPECT_EQ(tlb.Lookup(0, Vpn{0x4000} + i), LookupOutcome::kHit) << i;
  }
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x3FFF}), LookupOutcome::kMiss);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x4010}), LookupOutcome::kMiss);
  EXPECT_GT(tlb.SuperpageHitFraction(), 0.9);
}

TEST(SuperpageTlbTest, MixedSizesCoexist) {
  SuperpageTlb tlb(4);
  tlb.Insert(0, Vpn{0x4000}, SuperFill(Vpn{0x4000}, Ppn{0x100}, kPage64K));
  tlb.Insert(0, Vpn{0x9000}, BaseFill(Vpn{0x9000}, Ppn{0x7}));
  tlb.Insert(0, Vpn{0x8002}, SuperFill(Vpn{0x8002}, Ppn{0x52}, kPage8K));
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x400F}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x9000}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8003}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8004}), LookupOutcome::kMiss);
}

TEST(SuperpageTlbTest, PsbFillDegradesToBaseEntry) {
  SuperpageTlb tlb(4);
  tlb.Insert(0, Vpn{0x8005}, PsbFill(Vpn{0x8000}, Ppn{0x40}, 0xFFFF));
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8005}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8006}), LookupOutcome::kMiss);
}

TEST(SuperpageTlbTest, LruAcrossMixedSizes) {
  SuperpageTlb tlb(2);
  tlb.Insert(0, Vpn{0x4000}, SuperFill(Vpn{0x4000}, Ppn{0x100}, kPage64K));
  tlb.Insert(0, Vpn{0x9000}, BaseFill(Vpn{0x9000}, Ppn{0x7}));
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x4001}), LookupOutcome::kHit);
  tlb.Insert(0, Vpn{0xA000}, BaseFill(Vpn{0xA000}, Ppn{0x8}));  // Evicts 0x9000.
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x9000}), LookupOutcome::kMiss);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x4002}), LookupOutcome::kHit);
}

// ---------------------------------------------------------------------------
// PartialSubblockTlb
// ---------------------------------------------------------------------------

TEST(PartialSubblockTlbTest, VectorControlsHits) {
  PartialSubblockTlb tlb(4, 16);
  tlb.Insert(0, Vpn{0x8000}, PsbFill(Vpn{0x8000}, Ppn{0x40}, 0b0000'0000'1010'0001));
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8000}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8005}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8007}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8001}), LookupOutcome::kMiss);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x800F}), LookupOutcome::kMiss);
}

TEST(PartialSubblockTlbTest, VectorRefreshGrowsCoverage) {
  PartialSubblockTlb tlb(4, 16);
  tlb.Insert(0, Vpn{0x8000}, PsbFill(Vpn{0x8000}, Ppn{0x40}, 0x0001));
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8001}), LookupOutcome::kMiss);
  tlb.Insert(0, Vpn{0x8001}, PsbFill(Vpn{0x8000}, Ppn{0x40}, 0x0003));
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8001}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8000}), LookupOutcome::kHit);
}

TEST(PartialSubblockTlbTest, NotProperlyPlacedPagesUseSingleEntries) {
  PartialSubblockTlb tlb(4, 16);
  tlb.Insert(0, Vpn{0x8003}, BaseFill(Vpn{0x8003}, Ppn{0x123}));  // Unplaced page.
  tlb.Insert(0, Vpn{0x8000}, PsbFill(Vpn{0x8000}, Ppn{0x40}, 0x0001));
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8003}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8000}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8004}), LookupOutcome::kMiss);
}

TEST(PartialSubblockTlbTest, BlockSizedSuperpageBecomesFullVector) {
  PartialSubblockTlb tlb(4, 16);
  tlb.Insert(0, Vpn{0x4000}, SuperFill(Vpn{0x4000}, Ppn{0x100}, kPage64K));
  for (unsigned i = 0; i < 16; ++i) {
    EXPECT_EQ(tlb.Lookup(0, Vpn{0x4000} + i), LookupOutcome::kHit) << i;
  }
  EXPECT_GT(tlb.SubblockHitFraction(), 0.9);
}

TEST(PartialSubblockTlbTest, SmallerFactorMasksVector) {
  PartialSubblockTlb tlb(4, 4);
  tlb.Insert(0, Vpn{0x8000}, pt::TlbFill{.kind = MappingKind::kPartialSubblock,
                                    .base_vpn = Vpn{0x8000},
                                    .pages_log2 = 2,
                                    .word = MappingWord::PartialSubblock(
                                        Ppn{0x40}, Attr::ReadWrite(), 0b0101)});
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8000}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8002}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8001}), LookupOutcome::kMiss);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8004}), LookupOutcome::kMiss) << "next block over";
}

// ---------------------------------------------------------------------------
// CompleteSubblockTlb
// ---------------------------------------------------------------------------

TEST(CompleteSubblockTlbTest, DistinguishesBlockAndSubblockMisses) {
  CompleteSubblockTlb tlb(4, 16);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8000}), LookupOutcome::kBlockMiss);
  tlb.Insert(0, Vpn{0x8000}, BaseFill(Vpn{0x8000}, Ppn{1}));
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8000}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8001}), LookupOutcome::kSubblockMiss);
  tlb.Insert(0, Vpn{0x8001}, BaseFill(Vpn{0x8001}, Ppn{2}));
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8001}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.stats().block_misses, 1u);
  EXPECT_EQ(tlb.stats().subblock_misses, 1u);
}

TEST(CompleteSubblockTlbTest, SubblockMissDoesNotEvict) {
  CompleteSubblockTlb tlb(2, 16);
  tlb.Insert(0, Vpn{0x8000}, BaseFill(Vpn{0x8000}, Ppn{1}));
  tlb.Insert(0, Vpn{0x9000}, BaseFill(Vpn{0x9000}, Ppn{2}));
  // Subblock insert into the 0x8000 block must not displace 0x9000's entry.
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8001}), LookupOutcome::kSubblockMiss);
  tlb.Insert(0, Vpn{0x8001}, BaseFill(Vpn{0x8001}, Ppn{3}));
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x9000}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8001}), LookupOutcome::kHit);
}

TEST(CompleteSubblockTlbTest, PrefetchLoadsWholeBlock) {
  CompleteSubblockTlb tlb(4, 16);
  std::vector<pt::TlbFill> fills;
  for (unsigned i = 0; i < 16; i += 2) {  // Even pages resident.
    fills.push_back(BaseFill(Vpn{0x8000} + i, Ppn{0x100} + i));
  }
  tlb.InsertBlock(0, Vpn{0x8005}, fills);
  for (unsigned i = 0; i < 16; ++i) {
    const auto expect = (i % 2 == 0) ? LookupOutcome::kHit : LookupOutcome::kSubblockMiss;
    EXPECT_EQ(tlb.Lookup(0, Vpn{0x8000} + i), expect) << "page " << i;
  }
}

TEST(CompleteSubblockTlbTest, PrefetchExpandsSuperpageFills) {
  CompleteSubblockTlb tlb(4, 16);
  const pt::TlbFill fill = SuperFill(Vpn{0x4000}, Ppn{0x100}, kPage64K);
  tlb.InsertBlock(0, Vpn{0x4000}, std::span<const pt::TlbFill>(&fill, 1));
  for (unsigned i = 0; i < 16; ++i) {
    EXPECT_EQ(tlb.Lookup(0, Vpn{0x4000} + i), LookupOutcome::kHit) << i;
  }
}

TEST(CompleteSubblockTlbTest, BlockMissEvictsLruEntry) {
  CompleteSubblockTlb tlb(2, 16);
  tlb.Insert(0, Vpn{0x1000}, BaseFill(Vpn{0x1000}, Ppn{1}));
  tlb.Insert(0, Vpn{0x2000}, BaseFill(Vpn{0x2000}, Ppn{2}));
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x1000}), LookupOutcome::kHit);  // 0x2000 is LRU.
  tlb.Insert(0, Vpn{0x3000}, BaseFill(Vpn{0x3000}, Ppn{3}));
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x2000}), LookupOutcome::kBlockMiss);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x1000}), LookupOutcome::kHit);
}

// Property: a single-page TLB with N entries and a complete-subblock TLB
// with N entries never disagree on a hit for the complete-subblock's favor
// when accesses stay within one page block (the subblock TLB maps a superset
// per tag).
TEST(TlbPropertyTest, SubblockTlbDominatesSinglePageWithinOneBlock) {
  SinglePageTlb single(4);
  CompleteSubblockTlb subblock(4, 16);
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const Vpn vpn = Vpn{0x8000} + rng.Below(16);  // One block.
    const bool single_hit = single.Lookup(0, vpn) == LookupOutcome::kHit;
    const bool sub_hit = subblock.Lookup(0, vpn) == LookupOutcome::kHit;
    if (single_hit) {
      EXPECT_TRUE(sub_hit) << "iteration " << i;
    }
    if (!single_hit) {
      single.Insert(0, vpn, BaseFill(vpn, Ppn{vpn.raw()}));
    }
    if (!sub_hit) {
      subblock.Insert(0, vpn, BaseFill(vpn, Ppn{vpn.raw()}));
    }
  }
  EXPECT_LE(subblock.stats().misses, single.stats().misses);
}

// Property: LRU inclusion — a bigger single-page TLB's contents include a
// smaller one's under the same access stream, so misses(64) <= misses(56).
TEST(TlbPropertyTest, LruInclusionAcrossSizes) {
  SinglePageTlb small(8);
  SinglePageTlb big(16);
  Rng rng(6);
  for (int i = 0; i < 5000; ++i) {
    const Vpn vpn{rng.Below(40)};
    const bool small_hit = small.Lookup(0, vpn) == LookupOutcome::kHit;
    const bool big_hit = big.Lookup(0, vpn) == LookupOutcome::kHit;
    if (small_hit) {
      EXPECT_TRUE(big_hit) << "inclusion violated at " << i;
    }
    if (!small_hit) {
      small.Insert(0, vpn, BaseFill(vpn, Ppn{vpn.raw()}));
    }
    if (!big_hit) {
      big.Insert(0, vpn, BaseFill(vpn, Ppn{vpn.raw()}));
    }
  }
  EXPECT_LE(big.stats().misses, small.stats().misses);
}

// ---------------------------------------------------------------------------
// Slot order: which entry hits, which slot a fill takes, what a re-insert
// refreshes.  These rules decide the LRU order and so every miss count.
// ---------------------------------------------------------------------------

class ViewCollector final : public check::TlbAuditVisitor {
 public:
  void OnEntry(const check::TlbEntryView& entry) override { views.push_back(entry); }
  std::vector<check::TlbEntryView> views;
};

template <typename T>
std::vector<check::TlbEntryView> Views(const T& tlb) {
  ViewCollector c;
  tlb.AuditVisit(c);
  return c.views;
}

std::vector<bool> ValidSlots(const std::vector<check::TlbEntryView>& views) {
  std::vector<bool> valid;
  for (const check::TlbEntryView& v : views) {
    valid.push_back(v.valid);
  }
  return valid;
}

TEST(TlbSlotOrderTest, OverlapRefreshesLowestSlotWhichSurvivesEviction) {
  SuperpageTlb tlb(3);
  tlb.Insert(0, Vpn{0x4000}, SuperFill(Vpn{0x4000}, Ppn{0x100}, kPage64K));  // Slot 2.
  tlb.Insert(0, Vpn{0x4003}, BaseFill(Vpn{0x4003}, Ppn{0x7}));               // Slot 1.
  // Both entries cover 0x4003: the base entry, in the lower slot, hits.
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x4003}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.SuperpageHitFraction(), 0.0);
  auto views = Views(tlb);
  EXPECT_EQ(views[1].base_vpn, Vpn{0x4003});
  EXPECT_EQ(views[1].stamp, 3u);
  EXPECT_EQ(views[2].pages_log2, 4u);
  EXPECT_EQ(views[2].stamp, 1u);

  tlb.Insert(0, Vpn{0x9000}, BaseFill(Vpn{0x9000}, Ppn{0x8}));  // Slot 0; now full.
  tlb.Insert(0, Vpn{0xA000}, BaseFill(Vpn{0xA000}, Ppn{0x9}));  // Evicts the superpage.
  views = Views(tlb);
  EXPECT_EQ(views[2].base_vpn, Vpn{0xA000});
  EXPECT_EQ(views[2].pages_log2, 0u);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x4005}), LookupOutcome::kMiss);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x4003}), LookupOutcome::kHit);
}

TEST(TlbSlotOrderTest, OverlapInLowerSuperpageSlotCountsSuperpageHit) {
  SuperpageTlb tlb(3);
  tlb.Insert(0, Vpn{0x4003}, BaseFill(Vpn{0x4003}, Ppn{0x7}));               // Slot 2.
  tlb.Insert(0, Vpn{0x4000}, SuperFill(Vpn{0x4000}, Ppn{0x100}, kPage64K));  // Slot 1.
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x4003}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.SuperpageHitFraction(), 1.0);
  const auto views = Views(tlb);
  EXPECT_EQ(views[1].stamp, 3u);
  EXPECT_EQ(views[2].stamp, 1u);
}

TEST(TlbSlotOrderTest, ClearVectorBitFallsThroughToSingleEntry) {
  PartialSubblockTlb tlb(4, 16);
  tlb.Insert(0, Vpn{0x8003}, BaseFill(Vpn{0x8003}, Ppn{0x123}));        // Slot 3.
  tlb.Insert(0, Vpn{0x8000}, PsbFill(Vpn{0x8000}, Ppn{0x40}, 0x0001));  // Slot 2.
  // The block entry sits in the lower slot but its bit 3 is clear.
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8003}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.SubblockHitFraction(), 0.0);
  auto views = Views(tlb);
  EXPECT_FALSE(views[3].block_entry);
  EXPECT_EQ(views[3].stamp, 3u);
  EXPECT_EQ(views[2].stamp, 2u);

  // With the bit set, the lower-slot block entry wins over the single one.
  tlb.Insert(0, Vpn{0x8003}, PsbFill(Vpn{0x8000}, Ppn{0x40}, 0x0009));  // Refresh, slot 2.
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8003}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.SubblockHitFraction(), 0.5);
  views = Views(tlb);
  EXPECT_TRUE(views[2].block_entry);
  EXPECT_EQ(views[2].stamp, 5u);
  EXPECT_EQ(views[3].stamp, 3u);
}

template <typename T>
void ExpectLastInvalidFillOrder(T& tlb) {
  tlb.Insert(0, Vpn{0x1000}, BaseFill(Vpn{0x1000}, Ppn{1}));
  tlb.Insert(0, Vpn{0x2000}, BaseFill(Vpn{0x2000}, Ppn{2}));
  tlb.Insert(0, Vpn{0x3000}, BaseFill(Vpn{0x3000}, Ppn{3}));
  auto views = Views(tlb);
  EXPECT_EQ(ValidSlots(views), (std::vector<bool>{false, true, true, true}));
  EXPECT_EQ(views[3].base_vpn, Vpn{0x1000});
  EXPECT_EQ(views[2].base_vpn, Vpn{0x2000});
  EXPECT_EQ(views[1].base_vpn, Vpn{0x3000});

  tlb.Flush();
  views = Views(tlb);
  EXPECT_EQ(ValidSlots(views), (std::vector<bool>{false, false, false, false}));
  EXPECT_EQ(views[3].base_vpn, Vpn{0x1000}) << "flush keeps the stale entry";
  tlb.Insert(0, Vpn{0x4000}, BaseFill(Vpn{0x4000}, Ppn{4}));
  views = Views(tlb);
  EXPECT_EQ(ValidSlots(views), (std::vector<bool>{false, false, false, true}));
  EXPECT_EQ(views[3].base_vpn, Vpn{0x4000});
  EXPECT_EQ(views[1].base_vpn, Vpn{0x3000});
}

TEST(TlbSlotOrderTest, SinglePageFillsLastInvalidSlotFirst) {
  SinglePageTlb tlb(4);
  ExpectLastInvalidFillOrder(tlb);
}

TEST(TlbSlotOrderTest, SuperpageFillsLastInvalidSlotFirst) {
  SuperpageTlb tlb(4);
  ExpectLastInvalidFillOrder(tlb);
}

TEST(TlbSlotOrderTest, PartialSubblockFillsLastInvalidSlotFirst) {
  PartialSubblockTlb tlb(4, 16);
  ExpectLastInvalidFillOrder(tlb);
}

TEST(TlbSlotOrderTest, CompleteSubblockFillsFirstInvalidSlotFirst) {
  CompleteSubblockTlb tlb(4, 16);
  tlb.Insert(0, Vpn{0x1000}, BaseFill(Vpn{0x1000}, Ppn{1}));
  tlb.Insert(0, Vpn{0x2000}, BaseFill(Vpn{0x2000}, Ppn{2}));
  tlb.Insert(0, Vpn{0x3000}, BaseFill(Vpn{0x3000}, Ppn{3}));
  auto views = Views(tlb);
  EXPECT_EQ(ValidSlots(views), (std::vector<bool>{true, true, true, false}));
  EXPECT_EQ(views[0].base_vpn, Vpn{0x1000});
  EXPECT_EQ(views[2].base_vpn, Vpn{0x3000});
  // A block miss allocates (stamp 1), then the fill refreshes (stamp 2).
  EXPECT_EQ(views[0].stamp, 2u);

  tlb.Flush();
  tlb.Insert(0, Vpn{0x4000}, BaseFill(Vpn{0x4000}, Ppn{4}));
  views = Views(tlb);
  EXPECT_EQ(ValidSlots(views), (std::vector<bool>{true, false, false, false}));
  EXPECT_EQ(views[0].base_vpn, Vpn{0x4000});
  EXPECT_EQ(views[0].valid_vector, 1u) << "allocation clears the old vector";
  EXPECT_EQ(views[2].base_vpn, Vpn{0x3000});
}

template <typename T>
void ExpectReinsertRefreshesInPlace(T& tlb, const pt::TlbFill& first, const pt::TlbFill& again,
                                    Vpn vpn) {
  tlb.Insert(0, vpn, first);
  tlb.Insert(0, Vpn{0x9000}, BaseFill(Vpn{0x9000}, Ppn{0x9}));
  tlb.Insert(0, vpn, again);
  const auto views = Views(tlb);
  EXPECT_EQ(ValidSlots(views), (std::vector<bool>{false, false, true, true}))
      << "re-insert must not duplicate";
  EXPECT_EQ(views[3].stamp, 3u) << "re-insert refreshes the original slot";
  EXPECT_EQ(views[3].base_ppn, again.word.ppn());
}

TEST(TlbSlotOrderTest, ReinsertRefreshesInPlace) {
  {
    SinglePageTlb tlb(4);
    ExpectReinsertRefreshesInPlace(tlb, BaseFill(Vpn{0x100}, Ppn{1}),
                                   BaseFill(Vpn{0x100}, Ppn{5}), Vpn{0x100});
  }
  {
    SuperpageTlb tlb(4);
    ExpectReinsertRefreshesInPlace(tlb, SuperFill(Vpn{0x4000}, Ppn{0x100}, kPage64K),
                                   SuperFill(Vpn{0x4000}, Ppn{0x200}, kPage64K), Vpn{0x4002});
  }
  {
    PartialSubblockTlb tlb(4, 16);
    ExpectReinsertRefreshesInPlace(tlb, PsbFill(Vpn{0x8000}, Ppn{0x40}, 0x0001),
                                   PsbFill(Vpn{0x8000}, Ppn{0x40}, 0x0003), Vpn{0x8000});
    EXPECT_EQ(Views(tlb)[3].valid_vector, 0x0003u);
  }
}

TEST(TlbSlotOrderTest, CompleteSubblockReinsertExtendsTheBlockInPlace) {
  CompleteSubblockTlb tlb(4, 16);
  tlb.Insert(0, Vpn{0x8000}, BaseFill(Vpn{0x8000}, Ppn{1}));
  tlb.Insert(0, Vpn{0x9000}, BaseFill(Vpn{0x9000}, Ppn{2}));
  tlb.Insert(0, Vpn{0x8001}, BaseFill(Vpn{0x8001}, Ppn{3}));
  const auto views = Views(tlb);
  EXPECT_EQ(ValidSlots(views), (std::vector<bool>{true, true, false, false}));
  EXPECT_EQ(views[0].valid_vector, 0x3u);
  EXPECT_EQ(views[0].stamp, 5u);
  ASSERT_EQ(views[0].translations.size(), 2u);
  EXPECT_EQ(views[0].translations[1].second, Ppn{3});
}

}  // namespace
}  // namespace cpt::tlb
