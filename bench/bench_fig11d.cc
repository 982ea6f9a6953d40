// Figure 11d: complete-subblock TLB (subblock factor 16) with block-miss
// prefetch (Section 4.4).  Page tables hold base PTEs only; on a block miss
// the handler fetches every resident mapping of the block — adjacent memory
// for linear/forward/clustered, sixteen independent probes for hashed.
#include "bench/fig11_common.h"

int main(int argc, char** argv) {
  using cpt::bench::Fig11Series;
  using cpt::sim::PtKind;
  cpt::bench::BenchIo io("bench_fig11d", argc, argv);
  cpt::bench::RunFig11(
      io, "=== Figure 11d: complete-subblock TLB (subblock factor 16, prefetch) ===",
      cpt::sim::TlbKind::kCompleteSubblock,
      {
          {"linear", PtKind::kLinear1},
          {"fwd-mapped", PtKind::kForward},
          {"hashed", PtKind::kHashed},
          {"clustered", PtKind::kClustered},
      },
      "Expected shape (paper): hashed performs terribly (~16 probes per block\n"
      "miss; note the different scale in the paper's graph); linear and\n"
      "clustered stay near 1.0 because the block's mappings are adjacent.");
  return 0;
}
