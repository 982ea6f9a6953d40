// Figure 11a: single-page-size TLB — no superpage or subblock support.
// All page tables hold base PTEs only.
#include "bench/fig11_common.h"

int main(int argc, char** argv) {
  using cpt::bench::Fig11Series;
  using cpt::sim::PtKind;
  cpt::bench::BenchIo io("bench_fig11a", argc, argv);
  cpt::bench::RunFig11(
      io, "=== Figure 11a: single-page-size TLB ===", cpt::sim::TlbKind::kSinglePage,
      {
          {"linear", PtKind::kLinear1},
          {"fwd-mapped", PtKind::kForward},
          {"hashed", PtKind::kHashed},
          {"clustered", PtKind::kClustered},
      },
      "Expected shape (paper): forward-mapped ~7 (unacceptable); linear,\n"
      "hashed, clustered all near 1.0, with clustered <= hashed (shorter\n"
      "chains; visible where hashed load factor is high, e.g. ml).");
  return 0;
}
