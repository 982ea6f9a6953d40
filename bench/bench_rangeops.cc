// Section 3.1: page-table manipulation costs beyond TLB-miss handling.
//
// Quantifies the qualitative claims:
//   - adding mappings: clustered tables amortize node allocation and list
//     insertion across a block's pages;
//   - range operations (mprotect-style): clustered tables search the hash
//     once per page block; hashed tables once per base page;
//   - lock acquisitions for range updates follow the same per-node count.
#include <cstdio>

#include "bench/bench_flags.h"
#include "core/clustered.h"
#include "mem/cache_model.h"
#include "pt/hashed.h"
#include "sim/report.h"

using namespace cpt;
using sim::Report;

int main(int argc, char** argv) {
  bench::BenchIo io("bench_rangeops", argc, argv);
  std::printf("=== Section 3.1: page-table manipulation operations ===\n\n");

  mem::CacheTouchModel cache(256);

  Report r({"range (pages)", "hashed searches", "clustered searches", "hashed nodes",
            "clustered nodes"});
  for (const std::uint64_t npages : {16ull, 256ull, 4096ull, 65536ull}) {
    pt::HashedPageTable hashed(cache, {});
    core::ClusteredPageTable clustered(cache, {});
    const Vpn base{0x100000};
    for (std::uint64_t i = 0; i < npages; ++i) {
      hashed.InsertBase(base + i, Ppn{i & kPpnMask}, Attr::ReadWrite());
      clustered.InsertBase(base + i, Ppn{i & kPpnMask}, Attr::ReadWrite());
    }
    const std::uint64_t hs = hashed.ProtectRange(base, npages, Attr::ReadOnly());
    const std::uint64_t cs = clustered.ProtectRange(base, npages, Attr::ReadOnly());
    r.AddRow({Report::Num(npages), Report::Num(hs), Report::Num(cs),
              Report::Num(hashed.node_count()), Report::Num(clustered.node_count())});
    io.RecordCustom("rangeops", "protect-range", [&](obs::JsonWriter& w) {
      w.KV("npages", npages);
      w.KV("hashed_searches", hs);
      w.KV("clustered_searches", cs);
      w.KV("hashed_nodes", hashed.node_count());
      w.KV("clustered_nodes", clustered.node_count());
    });
  }
  io.RecordTable("Section 3.1: page-table manipulation operations", r);
  r.Print();

  std::printf("\nInsertion amortization: mapping one dense 64KB block performs\n");
  {
    pt::HashedPageTable hashed(cache, {});
    core::ClusteredPageTable clustered(cache, {});
    for (unsigned i = 0; i < 16; ++i) {
      hashed.InsertBase(Vpn{0x100 + i}, Ppn{i}, Attr::ReadWrite());
      clustered.InsertBase(Vpn{0x100 + i}, Ppn{i}, Attr::ReadWrite());
    }
    std::printf("  hashed:    16 node allocations + 16 list insertions (%llu nodes)\n",
                (unsigned long long)hashed.node_count());
    std::printf("  clustered: 1 node allocation + 1 list insertion   (%llu node)\n",
                (unsigned long long)clustered.node_count());
  }
  std::printf(
      "\nPer-bucket locking follows the node counts: a range operation on a\n"
      "clustered table takes one lock per page block instead of one per page\n"
      "(Section 3.1's multiprocessor discussion).\n");
  return 0;
}
