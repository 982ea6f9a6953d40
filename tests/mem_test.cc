// Unit and property tests for the memory substrate: simulated-address
// allocator and the page-reservation allocator.
#include <gtest/gtest.h>

#include <set>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "mem/reservation.h"
#include "mem/sim_alloc.h"

namespace cpt::mem {
namespace {

// ---------------------------------------------------------------------------
// SimAllocator
// ---------------------------------------------------------------------------

TEST(SimAllocatorTest, AllocationsAreLineAlignedByDefault) {
  SimAllocator a(256);
  for (int i = 0; i < 16; ++i) {
    const PhysAddr addr = a.Allocate(24);
    EXPECT_EQ(addr.raw() % 256, 0u) << "allocation " << i;
  }
}

TEST(SimAllocatorTest, PageSizedAllocationsArePageAligned) {
  SimAllocator a(256);
  const PhysAddr addr = a.Allocate(kBasePageSize);
  EXPECT_EQ(addr.raw() % kBasePageSize, 0u);
}

TEST(SimAllocatorTest, LiveBytesTrackAllocateAndFree) {
  SimAllocator a(256);
  const PhysAddr p1 = a.Allocate(100);
  const PhysAddr p2 = a.Allocate(200);
  EXPECT_EQ(a.bytes_live(), 300u);
  a.Free(p1, 100);
  EXPECT_EQ(a.bytes_live(), 200u);
  a.Free(p2, 200);
  EXPECT_EQ(a.bytes_live(), 0u);
  EXPECT_EQ(a.high_water_bytes(), 300u);
}

TEST(SimAllocatorTest, FreedBlocksAreReused) {
  SimAllocator a(256);
  const PhysAddr p1 = a.Allocate(144);
  a.Free(p1, 144);
  const PhysAddr p2 = a.Allocate(144);
  EXPECT_EQ(p1, p2);
}

TEST(SimAllocatorTest, DistinctAllocatorsUseDisjointRegions) {
  SimAllocator a(256);
  SimAllocator b(256);
  const PhysAddr pa = a.Allocate(64);
  const PhysAddr pb = b.Allocate(64);
  EXPECT_NE(pa.raw() >> 44, pb.raw() >> 44) << "regions must not alias in the line model";
}

TEST(SimAllocatorTest, NeverReturnsNull) {
  SimAllocator a(64);
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(a.Allocate(8), PhysAddr{0});
  }
}

// Property: allocations of mixed sizes never overlap.
TEST(SimAllocatorPropertyTest, NoOverlappingAllocations) {
  SimAllocator a(128);
  Rng rng(42);
  struct Block {
    PhysAddr addr;
    std::uint64_t size;
  };
  std::vector<Block> live;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.Chance(0.6)) {
      const std::uint64_t size = 8 + rng.Below(300);
      const PhysAddr addr = a.Allocate(size);
      for (const Block& b : live) {
        EXPECT_FALSE(addr < b.addr + b.size && b.addr < addr + size)
            << "overlap at step " << step;
      }
      live.push_back({addr, size});
    } else {
      const std::size_t i = rng.Below(live.size());
      a.Free(live[i].addr, live[i].size);
      live[i] = live.back();
      live.pop_back();
    }
  }
}

// ---------------------------------------------------------------------------
// ReservationAllocator
// ---------------------------------------------------------------------------

TEST(ReservationTest, FirstTouchReservesAlignedBlock) {
  ReservationAllocator ra(256, 16);
  const auto g = ra.Allocate(/*block_key=*/1, /*boff=*/5);
  ASSERT_TRUE(g.has_value());
  EXPECT_TRUE(g->properly_placed);
  EXPECT_EQ(g->ppn.raw() % 16, 5u) << "frame must sit at its block offset";
}

TEST(ReservationTest, SameBlockGetsMatchingSlots) {
  ReservationAllocator ra(256, 16);
  const Ppn base = ra.Allocate(7, 0)->ppn;
  for (unsigned boff = 1; boff < 16; ++boff) {
    const auto g = ra.Allocate(7, boff);
    ASSERT_TRUE(g.has_value());
    EXPECT_TRUE(g->properly_placed);
    EXPECT_EQ(g->ppn, base + boff);
  }
}

TEST(ReservationTest, DistinctBlocksGetDistinctGroups) {
  ReservationAllocator ra(256, 16);
  const Ppn a = ra.Allocate(1, 0)->ppn;
  const Ppn b = ra.Allocate(2, 0)->ppn;
  EXPECT_NE(a.raw() / 16, b.raw() / 16);
}

TEST(ReservationTest, PressureBreaksReservationsButStillAllocates) {
  // 2 groups of 4 frames; reserve both, then demand more single frames.
  ReservationAllocator ra(8, 4);
  ASSERT_TRUE(ra.Allocate(1, 0));  // Reserves group A (3 slots unused).
  ASSERT_TRUE(ra.Allocate(2, 0));  // Reserves group B (3 slots unused).
  // Six more single-page blocks: must break the reservations.
  unsigned placed = 0;
  for (int i = 0; i < 6; ++i) {
    const auto g = ra.Allocate(100 + i, 0);
    ASSERT_TRUE(g.has_value()) << "frame " << i;
    placed += g->properly_placed ? 1 : 0;
  }
  EXPECT_EQ(placed, 0u) << "pressure allocations are not properly placed";
  EXPECT_EQ(ra.frames_used(), 8u);
  EXPECT_FALSE(ra.Allocate(200, 0).has_value()) << "memory exhausted";
  EXPECT_GE(ra.reservations_broken(), 2u);
}

TEST(ReservationTest, FreeReturnsFramesForReuse) {
  ReservationAllocator ra(16, 4);
  std::vector<Ppn> got;
  for (unsigned k = 0; k < 4; ++k) {
    got.push_back(ra.Allocate(k, 0)->ppn);
  }
  for (const Ppn p : got) {
    ra.Free(p);
  }
  EXPECT_EQ(ra.frames_used(), 0u);
  // Everything can be reallocated, properly placed again.
  for (unsigned k = 10; k < 14; ++k) {
    const auto g = ra.Allocate(k, 3);
    ASSERT_TRUE(g.has_value());
    EXPECT_TRUE(g->properly_placed);
  }
}

TEST(ReservationTest, FullyFreedReservedGroupBecomesFreeAgain) {
  ReservationAllocator ra(8, 4);
  const Ppn a = ra.Allocate(1, 2)->ppn;
  ra.Free(a);
  // The group must be reusable for a different block with full placement.
  const auto g1 = ra.Allocate(2, 0);
  const auto g2 = ra.Allocate(3, 0);
  ASSERT_TRUE(g1 && g2);
  EXPECT_TRUE(g1->properly_placed);
  EXPECT_TRUE(g2->properly_placed);
}

TEST(ReservationTest, PlacementStatsAccumulate) {
  ReservationAllocator ra(64, 16);
  for (unsigned boff = 0; boff < 16; ++boff) {
    ra.Allocate(5, boff);
  }
  EXPECT_EQ(ra.grants(), 16u);
  EXPECT_EQ(ra.properly_placed_grants(), 16u);
  EXPECT_EQ(ra.reservations_made(), 1u);
}

// Property: no frame is ever granted twice while in use, under a random
// mix of allocations and frees with heavy memory pressure.
TEST(ReservationPropertyTest, NoDoubleGrantsUnderPressure) {
  ReservationAllocator ra(128, 8);
  Rng rng(99);
  struct Owner {
    std::uint64_t key;
    unsigned boff;
  };
  std::unordered_map<Ppn, Owner> in_use;                        // ppn -> (key, boff)
  std::unordered_map<std::uint64_t, std::uint32_t> block_masks;  // key -> allocated boffs
  for (int step = 0; step < 5000; ++step) {
    if (rng.Chance(0.55)) {
      const std::uint64_t key = rng.Below(40);
      const unsigned boff = static_cast<unsigned>(rng.Below(8));
      if (block_masks[key] & (1u << boff)) {
        continue;  // Already allocated (the API forbids double-alloc).
      }
      const auto g = ra.Allocate(key, boff);
      if (!g.has_value()) {
        EXPECT_EQ(ra.frames_free(), 0u) << "refusal only when truly full";
        continue;
      }
      EXPECT_EQ(in_use.count(g->ppn), 0u) << "double grant at step " << step;
      if (g->properly_placed) {
        EXPECT_EQ(g->ppn.raw() % 8, boff);
      }
      in_use[g->ppn] = Owner{key, boff};
      block_masks[key] |= 1u << boff;
    } else if (!in_use.empty()) {
      auto it = in_use.begin();
      std::advance(it, rng.Below(in_use.size()));
      ra.Free(it->first);
      block_masks[it->second.key] &= ~(1u << it->second.boff);
      in_use.erase(it);
    }
    EXPECT_EQ(ra.frames_used(), in_use.size());
  }
}

TEST(ReservationTest, SubblockFactorAccessor) {
  ReservationAllocator ra(64, 4);
  EXPECT_EQ(ra.subblock_factor(), 4u);
  EXPECT_EQ(ra.num_frames(), 64u);
}

TEST(ReservationTest, RoundsDownToWholeBlocks) {
  ReservationAllocator ra(19, 4);  // 19 frames -> 4 groups of 4.
  EXPECT_EQ(ra.num_frames(), 16u);
}

}  // namespace
}  // namespace cpt::mem
