// Cross-product integration tests: every page-table organization under
// every TLB design (where the combination is meaningful) runs a real
// workload slice through the full machine and must uphold the global
// invariants of the simulation.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "sim/analytic.h"
#include "sim/experiments.h"
#include "sim/machine.h"
#include "workload/workload.h"

namespace cpt::sim {
namespace {

using MatrixParam = std::tuple<PtKind, TlbKind>;

bool CombinationSupported(PtKind pt, TlbKind tlb) {
  // Plain hashed tables cannot store superpage/PSB PTEs (Section 4: they
  // need the two-table or superpage-index strategy).
  const bool needs_sp = tlb == TlbKind::kSuperpage || tlb == TlbKind::kPartialSubblock;
  return !needs_sp || (pt != PtKind::kHashed && pt != PtKind::kHashedInverted);
}

class MachineMatrixTest : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(MachineMatrixTest, RunsWorkloadSliceWithInvariantsIntact) {
  const auto [pt, tlb] = GetParam();
  if (!CombinationSupported(pt, tlb)) {
    GTEST_SKIP() << "combination not supported by design";
  }
  MachineOptions opts;
  opts.pt_kind = pt;
  opts.tlb_kind = tlb;
  // Differential oracle: every Insert/Remove is mirrored into a shadow map
  // and every Lookup cross-checked; AuditAll() then verifies the structural
  // invariants of the table, the frame allocator, and the TLB.
  opts.audit = true;
  const auto& spec = workload::GetPaperWorkload("mp3d");
  const AccessMeasurement m = MeasureAccessTime(spec, opts, 60000);

  // Global invariants of any valid run:
  EXPECT_EQ(m.audit_defects, 0u) << m.audit_summary;
  EXPECT_GT(m.denominator_misses, 0u) << "the trace must stress the TLB";
  EXPECT_GE(m.avg_lines_per_miss, 0.99) << "every counted miss touches >= 1 line";
  EXPECT_GT(m.pt_bytes, 0u);
  EXPECT_LE(m.miss_ratio, 1.0);
  if (tlb == TlbKind::kCompleteSubblock) {
    EXPECT_EQ(m.block_misses + m.subblock_misses, m.effective_misses);
  }
  // Known cost ceilings: nothing should cost more than a forward-mapped
  // walk except the hashed family under complete-subblock prefetch
  // (16 independent probes).
  const bool hashed_family = pt == PtKind::kHashed || pt == PtKind::kHashedInverted ||
                             pt == PtKind::kHashedSpIndex || pt == PtKind::kHashedMulti;
  if (!hashed_family) {
    EXPECT_LE(m.avg_lines_per_miss, 8.0) << "unexpectedly expensive walk";
  }
}

std::string MatrixName(const ::testing::TestParamInfo<MatrixParam>& info) {
  std::string n = ToString(std::get<0>(info.param)) + "_" + ToString(std::get<1>(info.param));
  for (char& c : n) {
    if (c == '-') {
      c = '_';
    }
  }
  return n;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, MachineMatrixTest,
    ::testing::Combine(::testing::Values(PtKind::kLinear6, PtKind::kLinear1,
                                         PtKind::kLinearHashed, PtKind::kForward,
                                         PtKind::kHashed, PtKind::kHashedMulti,
                                         PtKind::kHashedSpIndex, PtKind::kClustered,
                                         PtKind::kClusteredAdaptive, PtKind::kHashedInverted),
                       ::testing::Values(TlbKind::kSinglePage, TlbKind::kSuperpage,
                                         TlbKind::kPartialSubblock,
                                         TlbKind::kCompleteSubblock)),
    MatrixName);

// The same matrix under a software TLB layer.
class SwTlbMatrixTest : public ::testing::TestWithParam<PtKind> {};

TEST_P(SwTlbMatrixTest, SoftwareTlbWrapsEveryOrganization) {
  MachineOptions opts;
  opts.pt_kind = GetParam();
  opts.swtlb_sets = 1024;
  // The oracle wraps above the software TLB, so a stale cached fill that
  // escaped write-through invalidation would surface as a defect here.
  opts.audit = true;
  const auto& spec = workload::GetPaperWorkload("compress");
  const AccessMeasurement m = MeasureAccessTime(spec, opts, 60000);
  EXPECT_EQ(m.audit_defects, 0u) << m.audit_summary;
  EXPECT_GT(m.denominator_misses, 0u);
  EXPECT_GE(m.avg_lines_per_miss, 0.99);
}

INSTANTIATE_TEST_SUITE_P(AllPts, SwTlbMatrixTest,
                         ::testing::Values(PtKind::kLinear1, PtKind::kForward, PtKind::kHashed,
                                           PtKind::kHashedMulti, PtKind::kClustered,
                                           PtKind::kClusteredAdaptive),
                         [](const ::testing::TestParamInfo<PtKind>& param_info) {
                           std::string n = ToString(param_info.param);
                           for (char& c : n) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return n;
                         });

// ---------------------------------------------------------------------------
// Shared page table mode (Section 7).
// ---------------------------------------------------------------------------

TEST(SharedTableTest, ProcessesShareOneTableWithoutAliasing) {
  MachineOptions opts;
  opts.pt_kind = PtKind::kClustered;
  opts.shared_page_table = true;
  Machine m(opts, 2);
  m.Access(0, VaOf(Vpn{0x100}));
  m.Access(1, VaOf(Vpn{0x100}));  // Same VA, different process.
  EXPECT_EQ(&m.page_table(0), &m.page_table(1)) << "one shared table";
  EXPECT_EQ(m.page_table(0).live_translations(), 2u)
      << "both processes' pages coexist without aliasing";
  // Each process sees its own translation, and the TLB separates them too.
  m.Access(0, VaOf(Vpn{0x100}));
  m.Access(1, VaOf(Vpn{0x100}));
  EXPECT_EQ(m.tlb().stats().hits, 2u);
}

TEST(SharedTableTest, SharedHashedLoadGrowsWithProcessCount) {
  const auto& spec = workload::GetPaperWorkload("compress");
  const auto snap = workload::BuildSnapshot(spec);
  MachineOptions per;
  per.pt_kind = PtKind::kHashed;
  MachineOptions shared = per;
  shared.shared_page_table = true;
  Machine a(per, 2);
  a.Preload(snap);
  Machine b(shared, 2);
  b.Preload(snap);
  // Same total PTE bytes, but one table holds them all.
  EXPECT_EQ(a.TotalPtBytesPaperModel(), b.TotalPtBytesPaperModel());
  EXPECT_EQ(b.page_table(0).live_translations(),
            a.page_table(0).live_translations() + a.page_table(1).live_translations());
}

TEST(SharedTableTest, WorksAcrossTraceRun) {
  const auto& spec = workload::GetPaperWorkload("gcc");
  MachineOptions opts;
  opts.pt_kind = PtKind::kClustered;
  opts.shared_page_table = true;
  const AccessMeasurement m = MeasureAccessTime(spec, opts, 100000);
  EXPECT_GT(m.denominator_misses, 0u);
  EXPECT_GE(m.avg_lines_per_miss, 0.99);
  EXPECT_LE(m.avg_lines_per_miss, 2.0);
}

// ---------------------------------------------------------------------------
// Linear-with-hashed size model (Table 2 row).
// ---------------------------------------------------------------------------

TEST(LinearHashedTest, SizeMatchesTable2Formula) {
  for (const char* name : {"coral", "gcc"}) {
    const auto& spec = workload::GetPaperWorkload(name);
    const auto snap = workload::BuildSnapshot(spec);
    std::uint64_t expected = 0;
    for (std::size_t p = 0; p < snap.pages.size(); ++p) {
      expected += analytic::LinearWithHashedBytes(snap.FlatProcess(p));
    }
    const auto m = MeasurePtSize(spec, {"lh", PtKind::kLinearHashed});
    EXPECT_EQ(m.bytes, expected) << name;
  }
}

TEST(LinearHashedTest, SitsBetweenOneAndSixLevels) {
  const auto& spec = workload::GetPaperWorkload("gcc");
  const auto one = MeasurePtSize(spec, {"l1", PtKind::kLinear1});
  const auto hashed_upper = MeasurePtSize(spec, {"lh", PtKind::kLinearHashed});
  const auto six = MeasurePtSize(spec, {"l6", PtKind::kLinear6});
  EXPECT_GT(hashed_upper.bytes, one.bytes);
  EXPECT_LT(hashed_upper.bytes, six.bytes);
}

}  // namespace
}  // namespace cpt::sim
