// The runtime half of the hot-path discipline (common/hotguard.h): a
// HotPathScope makes any heap allocation on its thread abort with an
// attributable message, and a preloaded replay of a paper workload runs its
// steady state under the guard without tripping — the dynamic proof of the
// property the hot-no-alloc lint rule checks statically.
#include "common/hotguard.h"

#include <gtest/gtest.h>

#include <new>
#include <string>
#include <utility>
#include <vector>

#include "sim/machine.h"
#include "workload/workload.h"

namespace cpt {
namespace {

TEST(HotGuardTest, InactiveByDefault) {
  EXPECT_FALSE(HotPathScope::ActiveOnThisThread());
  std::vector<int> v;
  v.push_back(1);  // Allocates through the replaced operator new; legal here.
  EXPECT_EQ(v.size(), 1u);
}

TEST(HotGuardTest, ScopeNestsAndUnwinds) {
  {
    HotPathScope outer("outer");
    EXPECT_TRUE(HotPathScope::ActiveOnThisThread());
    {
      HotPathScope inner("inner");
      EXPECT_TRUE(HotPathScope::ActiveOnThisThread());
    }
    EXPECT_TRUE(HotPathScope::ActiveOnThisThread());
  }
  EXPECT_FALSE(HotPathScope::ActiveOnThisThread());
}

TEST(HotGuardTest, FreeingInsideScopeIsLegal) {
  // Deletes never trip: releasing memory is not the failure mode the guard
  // hunts, and steady-state code may legitimately return nodes to pools.
  void* p = ::operator new(64);
  {
    HotPathScope guard("free-only");
    ::operator delete(p);
  }
}

TEST(HotGuardDeathTest, AllocationInsideScopeTrips) {
  // A direct operator-new call cannot be elided, unlike a new-expression.
  EXPECT_DEATH(
      {
        HotPathScope guard("hotguard_test.deliberate_alloc");
        void* p = ::operator new(16);
        ::operator delete(p);  // Unreachable; silences the unused result.
      },
      "HotPathScope violation: .*hotguard_test.deliberate_alloc");
}

TEST(HotGuardDeathTest, ContainerGrowthInsideScopeTrips) {
  std::vector<int> v;
  EXPECT_DEATH(
      {
        HotPathScope guard("hotguard_test.container_growth");
        for (int i = 0; i < 1024; ++i) {
          v.push_back(i);
        }
      },
      "HotPathScope violation");
}

// The integration proof behind the lint rules: after Preload() and a warm-up
// replay has grown every pool and scratch buffer to its high-water mark, a
// further replay slice performs zero heap allocations.  Covered: every
// page-table organization behind the single-page TLB, and every Figure
// 11b-d series behind its superpage or subblock TLB, on mp3d and coral.
TEST(HotGuardTest, SteadyStateReplayDoesNotAllocate) {
  using sim::PtKind;
  using sim::TlbKind;
  std::vector<std::pair<PtKind, TlbKind>> configs;
  for (const PtKind pt :
       {PtKind::kLinear6, PtKind::kLinear1, PtKind::kLinearHashed, PtKind::kForward,
        PtKind::kHashed, PtKind::kHashedMulti, PtKind::kHashedSpIndex, PtKind::kClustered,
        PtKind::kClusteredAdaptive, PtKind::kHashedInverted}) {
    configs.emplace_back(pt, TlbKind::kSinglePage);
  }
  for (const TlbKind tlb : {TlbKind::kSuperpage, TlbKind::kPartialSubblock}) {
    for (const PtKind pt :
         {PtKind::kLinear1, PtKind::kForward, PtKind::kHashedMulti, PtKind::kClustered}) {
      configs.emplace_back(pt, tlb);
    }
  }
  for (const PtKind pt : {PtKind::kLinear1, PtKind::kForward, PtKind::kHashed,
                          PtKind::kClustered}) {
    configs.emplace_back(pt, TlbKind::kCompleteSubblock);
  }
  for (const char* name : {"mp3d", "coral"}) {
    const auto& spec = workload::GetPaperWorkload(name);
    const auto snap = workload::BuildSnapshot(spec);
    for (const auto& [pt, tlb] : configs) {
      SCOPED_TRACE(std::string(name) + "/" + sim::ToString(pt) + "/" + sim::ToString(tlb));
      sim::MachineOptions opts;
      opts.pt_kind = pt;
      opts.tlb_kind = tlb;
      sim::Machine m(opts, static_cast<unsigned>(spec.processes.size()));
      m.Preload(snap);
      workload::TraceGenerator gen(spec, snap);
      for (int i = 0; i < 30000; ++i) {
        const auto r = gen.Next();
        m.Access(r.asid, r.va);
      }
      // Steady state: the guard aborts the test on the first allocation.
      HotPathScope guard("hotguard_test.steady_state_replay");
      for (int i = 0; i < 30000; ++i) {
        const auto r = gen.Next();
        m.Access(r.asid, r.va);
      }
    }
  }
}

}  // namespace
}  // namespace cpt
