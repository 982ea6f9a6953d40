// Quickstart: build a clustered page table, map some memory the way an OS
// would, and look at what the TLB miss handler sees.
//
//   $ build/examples/quickstart
//
// Walks through the three clustered PTE formats (base array, superpage,
// partial-subblock) and compares the memory footprint against a conventional
// hashed page table holding the same mappings.
#include <cstdio>

#include "core/clustered.h"
#include "mem/cache_model.h"
#include "pt/hashed.h"

using namespace cpt;

int main() {
  // Every page table charges its walks to a cache-touch model (256-byte
  // level-two lines, as in the paper's evaluation).
  mem::CacheTouchModel cache(256);

  core::ClusteredPageTable clustered(
      cache, {.num_buckets = 4096, .subblock_factor = 16});
  pt::HashedPageTable hashed(cache, {.num_buckets = 4096});

  // --- 1. Map a 40-page buffer with base PTEs (pages 0x100..0x127). ---
  for (Vpn vpn{0x100}; vpn < Vpn{0x128}; ++vpn) {
    const Ppn ppn = Ppn{0x8000} + (vpn - Vpn{0x100});
    clustered.InsertBase(vpn, ppn, Attr::ReadWrite());
    hashed.InsertBase(vpn, ppn, Attr::ReadWrite());
  }
  std::printf("mapped 40 base pages:\n");
  std::printf("  clustered: %llu bytes (%llu-page blocks share one tag+next)\n",
              (unsigned long long)clustered.SizeBytesPaperModel(),
              (unsigned long long)clustered.subblock_factor());
  std::printf("  hashed:    %llu bytes (24 bytes per page)\n\n",
              (unsigned long long)hashed.SizeBytesPaperModel());

  // --- 2. A TLB miss: walk the table, counting cache lines. ---
  cache.BeginWalk();
  auto fill = clustered.Lookup(VaOf(Vpn{0x105}) + 0x44);
  const unsigned lines = cache.LinesThisWalk();
  cache.EndWalk();
  if (fill) {
    std::printf("TLB miss on va=0x%llx -> vpn 0x%llx maps to ppn 0x%llx "
                "(%u cache line(s) touched)\n\n",
                (unsigned long long)(VaOf(Vpn{0x105}) + 0x44).raw(), 0x105ull,
                (unsigned long long)fill->Translate(Vpn{0x105}).raw(),
                lines);
  }

  // --- 3. Promote a fully-mapped, properly-placed block to a superpage. ---
  // Pages 0x100..0x10F form page block 0x10 and frames 0x8000.. are aligned,
  // so the OS can notice the block is promotable.
  if (clustered.BlockReadyForPromotion(Vpbn{0x10})) {
    for (Vpn vpn{0x100}; vpn < Vpn{0x110}; ++vpn) {
      clustered.RemoveBase(vpn);
    }
    clustered.InsertSuperpage(Vpn{0x100}, kPage64K, Ppn{0x8000}, Attr::ReadWrite());
    std::printf("promoted block 0x10 to a 64KB superpage PTE\n");
    std::printf("  clustered now: %llu bytes (24-byte superpage node replaced "
                "a 144-byte base node)\n\n",
                (unsigned long long)clustered.SizeBytesPaperModel());
  }

  // --- 4. Partial-subblock PTE: 13 of 16 pages resident, properly placed. ---
  clustered.UpsertPartialSubblock(/*block_base_vpn=*/Vpn{0x200}, /*subblock_factor=*/16,
                                  /*block_base_ppn=*/Ppn{0x9000}, Attr::ReadWrite(),
                                  /*valid_vector=*/0x1FFF);
  cache.BeginWalk();
  auto psb = clustered.Lookup(VaOf(Vpn{0x205}));
  cache.EndWalk();
  std::printf("partial-subblock PTE maps 13/16 pages of block 0x20 in one "
              "24-byte node; vpn 0x205 -> ppn 0x%llx\n",
              psb ? (unsigned long long)psb->Translate(Vpn{0x205}).raw() : 0ull);
  cache.BeginWalk();
  auto missing = clustered.Lookup(VaOf(Vpn{0x20E}));  // Bit 14 is clear.
  cache.EndWalk();
  std::printf("vpn 0x20E (valid bit clear) %s\n\n",
              missing ? "hit (BUG)" : "page-faults, as it should");

  std::printf("final sizes: clustered=%llu bytes, hashed=%llu bytes\n",
              (unsigned long long)clustered.SizeBytesPaperModel(),
              (unsigned long long)hashed.SizeBytesPaperModel());
  std::printf("avg cache lines per walk: %.2f\n", cache.AvgLinesPerWalk());
  return 0;
}
