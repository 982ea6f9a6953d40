// Figure 11b: superpage TLB (4KB base pages + 64KB superpages).
//
// Page-table strategies per Section 6.1: linear and forward-mapped replicate
// superpage PTEs at base sites; hashed uses two page tables (4KB searched
// first); clustered stores superpage PTEs in place via the S field.
#include "bench/fig11_common.h"

int main(int argc, char** argv) {
  using cpt::bench::Fig11Series;
  using cpt::sim::PtKind;
  cpt::bench::BenchIo io("bench_fig11b", argc, argv);
  cpt::bench::RunFig11(
      io, "=== Figure 11b: superpage TLB (4KB + 64KB) ===", cpt::sim::TlbKind::kSuperpage,
      {
          {"linear", PtKind::kLinear1},
          {"fwd-mapped", PtKind::kForward},
          {"hashed-2tbl", PtKind::kHashedMulti},
          {"clustered", PtKind::kClustered},
      },
      "Expected shape (paper): hashed gets much worse (misses to superpage\n"
      "PTEs search the 4KB table first, then the 64KB table); linear modestly\n"
      "worse (higher opportunity cost of reserved entries); clustered stays\n"
      "near 1.0.");
  return 0;
}
