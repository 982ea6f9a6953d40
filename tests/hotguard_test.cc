// The runtime allocation guard (common/hotguard.h): a HotPathScope makes
// any heap allocation on its thread abort with an attributable message,
// and a preloaded replay of every paper workload under every Machine
// configuration runs its steady state under the guard without tripping.
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

// The project's check that the per-reference path does not allocate: after
// Preload() and a warm-up replay have grown every pool and scratch buffer
// to its high-water mark, a further replay slice performs zero heap
// allocations.  Covered: every page-table organization × TLB kind that
// Machine supports (machine_matrix_test's filter), plus each option that
// switches on a code path of its own, on all ten paper workloads, with the
// trace's stores replayed as writes.
struct GuardedConfig {
  std::string name;
  sim::MachineOptions opts;
};

std::vector<GuardedConfig> GuardedConfigs() {
  using sim::PtKind;
  using sim::TlbKind;
  std::vector<GuardedConfig> out;
  const auto add = [&out](std::string name, sim::MachineOptions opts) {
    out.push_back({std::move(name), opts});
  };
  for (const PtKind pt :
       {PtKind::kLinear6, PtKind::kLinear1, PtKind::kLinearHashed, PtKind::kForward,
        PtKind::kHashed, PtKind::kHashedMulti, PtKind::kHashedSpIndex, PtKind::kClustered,
        PtKind::kClusteredAdaptive, PtKind::kHashedInverted}) {
    for (const TlbKind tlb : {TlbKind::kSinglePage, TlbKind::kSuperpage,
                              TlbKind::kPartialSubblock, TlbKind::kCompleteSubblock}) {
      // Plain and inverted hashed tables cannot store superpage/PSB PTEs.
      const bool needs_sp = tlb == TlbKind::kSuperpage || tlb == TlbKind::kPartialSubblock;
      if (needs_sp && (pt == PtKind::kHashed || pt == PtKind::kHashedInverted)) {
        continue;
      }
      sim::MachineOptions opts;
      opts.pt_kind = pt;
      opts.tlb_kind = tlb;
      add(sim::ToString(pt) + "/" + sim::ToString(tlb), opts);
    }
    // Complete-subblock TLB refilled one page per miss (no block prefetch).
    sim::MachineOptions opts;
    opts.pt_kind = pt;
    opts.tlb_kind = TlbKind::kCompleteSubblock;
    opts.prefetch_on_block_miss = false;
    add(sim::ToString(pt) + "/complete-subblock/no-prefetch", opts);
  }
  {
    sim::MachineOptions opts;
    opts.swtlb_sets = 1024;
    add("swtlb/base-entries", opts);
    opts.swtlb_clustered_entries = true;
    add("swtlb/clustered-entries", opts);
    // A hashed backing serves clustered refills with one probe per page.
    opts.pt_kind = PtKind::kHashed;
    add("swtlb/clustered-entries/hashed", opts);
  }
  {
    sim::MachineOptions opts;
    opts.maintain_ref_bits = true;
    add("ref-bits/clustered/single-page", opts);
    opts.pt_kind = PtKind::kHashedMulti;
    opts.tlb_kind = TlbKind::kPartialSubblock;
    add("ref-bits/hashed-multi/partial-subblock", opts);
  }
  {
    sim::MachineOptions opts;
    opts.shared_page_table = true;
    add("shared-page-table", opts);
  }
  {
    sim::MachineOptions opts;
    opts.pt_kind = PtKind::kHashedMulti;
    opts.tlb_kind = TlbKind::kPartialSubblock;
    opts.hashed_block_first = true;
    add("hashed-multi/partial-subblock/block-first", opts);
  }
  return out;
}

TEST(HotGuardTest, SteadyStateReplayDoesNotAllocate) {
  const std::vector<GuardedConfig> configs = GuardedConfigs();
  ASSERT_EQ(configs.size(), 53u);
  for (const workload::WorkloadSpec& spec : workload::PaperWorkloads()) {
    const auto snap = workload::BuildSnapshot(spec);
    for (const GuardedConfig& config : configs) {
      // The guard aborts rather than failing an assertion, so its site
      // string is what names the workload and configuration.
      const std::string site = spec.name + "/" + config.name;
      sim::Machine m(config.opts, static_cast<unsigned>(spec.processes.size()));
      m.Preload(snap);
      workload::TraceGenerator gen(spec, snap);
      for (int i = 0; i < 30000; ++i) {
        const auto r = gen.Next();
        m.Access(r.asid, r.va, r.is_write);
      }
      // Steady state: the guard aborts the test on the first allocation.
      HotPathScope guard(site.c_str());
      for (int i = 0; i < 30000; ++i) {
        const auto r = gen.Next();
        m.Access(r.asid, r.va, r.is_write);
      }
    }
  }
}

}  // namespace
}  // namespace cpt
