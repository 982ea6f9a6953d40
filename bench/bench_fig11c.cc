// Figure 11c: partial-subblock TLB (subblock factor 16).
//
// Properly-placed pages join PSB PTEs incrementally; pages that lose
// placement fall back to base PTEs.  Hashed searches its 4KB table first
// (Section 6.3 notes reversing the order would help PSB-heavy workloads —
// bench_sensitivity measures that variant).
#include "bench/fig11_common.h"

int main(int argc, char** argv) {
  using cpt::bench::Fig11Series;
  using cpt::sim::PtKind;
  cpt::bench::BenchIo io("bench_fig11c", argc, argv);
  cpt::bench::RunFig11(
      io, "=== Figure 11c: partial-subblock TLB (subblock factor 16) ===",
      cpt::sim::TlbKind::kPartialSubblock,
      {
          {"linear", PtKind::kLinear1},
          {"fwd-mapped", PtKind::kForward},
          {"hashed-2tbl", PtKind::kHashedMulti},
          {"clustered", PtKind::kClustered},
      },
      "Expected shape (paper): like 11b but hashed is even worse — these\n"
      "workloads hit PSB PTEs more often than superpage PTEs, so most misses\n"
      "pay both table searches.  Clustered stays near 1.0.");
  return 0;
}
