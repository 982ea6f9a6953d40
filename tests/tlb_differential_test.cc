// Lockstep differential test: every fully-associative TLB against its
// linear-scan reference (tlb_reference.h), driven with the same operations.
//
// Two kinds of stream:
//   (a) workload replays — the four Figure 11 designs over mp3d, coral and
//       gcc at 50,000 references, at 16, 56 and 64 entries: lookups plus the
//       fills the walks return (block fills through InsertBlock for the
//       complete-subblock TLB), as perfbench's layered TLB replay drives them;
//   (b) random adversarial streams — a small VPN universe, every fill kind,
//       re-inserts, several asids and Flush, at 1, 2, 8, 64 and 256 entries.
// Every LookupOutcome must agree, and so must the final statistics.  Every
// 1,024 operations and at the end the full AuditVisit view sequence must
// agree too: slot order, stamps, vectors and translations.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "check/audit_visitor.h"
#include "common/rng.h"
#include "mem/cache_model.h"
#include "mem/reservation.h"
#include "os/address_space.h"
#include "sim/machine.h"
#include "tlb/complete_subblock.h"
#include "tlb/partial_subblock.h"
#include "tlb/single_page.h"
#include "tlb/superpage.h"
#include "tlb_reference.h"
#include "workload/workload.h"

namespace cpt::tlb {
namespace {

constexpr std::uint64_t kViewInterval = 1024;

class ViewCollector final : public check::TlbAuditVisitor {
 public:
  void OnEntry(const check::TlbEntryView& entry) override { views.push_back(entry); }
  std::vector<check::TlbEntryView> views;
};

template <typename T>
std::vector<check::TlbEntryView> Views(const T& tlb) {
  ViewCollector c;
  tlb.AuditVisit(c);
  return c.views;
}

std::string Describe(const check::TlbEntryView& v) {
  std::string s = "valid=" + std::to_string(v.valid) + " asid=" + std::to_string(v.asid) +
                  " stamp=" + std::to_string(v.stamp) +
                  " base_vpn=" + std::to_string(v.base_vpn.raw()) +
                  " base_ppn=" + std::to_string(v.base_ppn.raw()) +
                  " log2=" + std::to_string(v.pages_log2) +
                  " vector=" + std::to_string(v.valid_vector) +
                  " block=" + std::to_string(v.block_entry) + " translations=[";
  for (const auto& [vpn, ppn] : v.translations) {
    s += std::to_string(vpn.raw()) + "->" + std::to_string(ppn.raw()) + " ";
  }
  return s + "]";
}

bool SameView(const check::TlbEntryView& a, const check::TlbEntryView& b) {
  return a.set == b.set && a.valid == b.valid && a.asid == b.asid && a.stamp == b.stamp &&
         a.base_vpn == b.base_vpn && a.base_ppn == b.base_ppn && a.pages_log2 == b.pages_log2 &&
         a.valid_vector == b.valid_vector && a.block_entry == b.block_entry &&
         a.translations == b.translations;
}

// The reference twin of each indexed TLB.
template <typename T>
struct ReferenceOf;
template <>
struct ReferenceOf<SinglePageTlb> {
  using type = reference::SinglePageTlb;
};
template <>
struct ReferenceOf<SuperpageTlb> {
  using type = reference::SuperpageTlb;
};
template <>
struct ReferenceOf<PartialSubblockTlb> {
  using type = reference::PartialSubblockTlb;
};
template <>
struct ReferenceOf<CompleteSubblockTlb> {
  using type = reference::CompleteSubblockTlb;
};

template <typename T>
std::unique_ptr<T> MakeTlb(unsigned entries, unsigned factor) {
  if constexpr (std::is_constructible_v<T, unsigned, unsigned>) {
    return std::make_unique<T>(entries, factor);
  } else {
    return std::make_unique<T>(entries);
  }
}

// One indexed TLB and its reference, fed every operation together.
template <typename Fast>
class Lockstep {
 public:
  using Ref = typename ReferenceOf<Fast>::type;

  Lockstep(unsigned entries, unsigned factor, std::string label)
      : fast_(MakeTlb<Fast>(entries, factor)),
        ref_(MakeTlb<Ref>(entries, factor)),
        label_(std::move(label)) {}

  LookupOutcome Lookup(Asid asid, Vpn vpn) {
    const LookupOutcome fast = fast_->Lookup(asid, vpn);
    const LookupOutcome ref = ref_->Lookup(asid, vpn);
    if (fast != ref) {
      ADD_FAILURE() << label_ << " op " << ops_ << ": lookup(" << asid << ", " << vpn.raw()
                    << ") outcome " << static_cast<int>(fast) << ", reference "
                    << static_cast<int>(ref);
    }
    Step();
    return ref;
  }

  void Insert(Asid asid, Vpn vpn, const pt::TlbFill& fill) {
    fast_->Insert(asid, vpn, fill);
    ref_->Insert(asid, vpn, fill);
    Step();
  }

  void InsertBlock(Asid asid, Vpn vpn, std::span<const pt::TlbFill> fills) {
    fast_->InsertBlock(asid, vpn, fills);
    ref_->InsertBlock(asid, vpn, fills);
    Step();
  }

  void Flush() {
    fast_->Flush();
    ref_->Flush();
    Step();
  }

  // Final statistics and views; true when everything agreed.
  bool Finish() {
    const TlbStats& a = fast_->stats();
    const TlbStats& b = ref_->stats();
    EXPECT_EQ(a.accesses, b.accesses) << label_;
    EXPECT_EQ(a.hits, b.hits) << label_;
    EXPECT_EQ(a.misses, b.misses) << label_;
    EXPECT_EQ(a.block_misses, b.block_misses) << label_;
    EXPECT_EQ(a.subblock_misses, b.subblock_misses) << label_;
    if constexpr (std::is_same_v<Fast, SuperpageTlb>) {
      EXPECT_EQ(fast_->SuperpageHitFraction(), ref_->SuperpageHitFraction()) << label_;
    }
    if constexpr (std::is_same_v<Fast, PartialSubblockTlb>) {
      EXPECT_EQ(fast_->SubblockHitFraction(), ref_->SubblockHitFraction()) << label_;
    }
    CompareViews();
    return !::testing::Test::HasFailure();
  }

  bool failed() const { return ::testing::Test::HasFailure(); }
  const Fast& fast() const { return *fast_; }

 private:
  void Step() {
    if (++ops_ % kViewInterval == 0) {
      CompareViews();
    }
  }

  void CompareViews() {
    const auto fast = Views(*fast_);
    const auto ref = Views(*ref_);
    ASSERT_EQ(fast.size(), ref.size()) << label_;
    for (std::size_t slot = 0; slot < fast.size(); ++slot) {
      if (!SameView(fast[slot], ref[slot])) {
        ADD_FAILURE() << label_ << " op " << ops_ << ": slot " << slot << " is "
                      << Describe(fast[slot]) << ", reference " << Describe(ref[slot]);
        return;
      }
    }
  }

  std::unique_ptr<Fast> fast_;
  std::unique_ptr<Ref> ref_;
  std::string label_;
  std::uint64_t ops_ = 0;
};

// ---------------------------------------------------------------------------
// (a) Figure 11 workload replays.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kReplayRefs = 50'000;

// Page tables preloaded with a workload's resident pages under the PTE
// strategy of one TLB design, built the way sim::Machine builds them.
struct ReplayInputs {
  ReplayInputs(const workload::WorkloadSpec& spec, const sim::MachineOptions& opts,
               os::PteStrategy strategy)
      : cache(opts.line_size), frames(opts.phys_frames, opts.subblock_factor) {
    const workload::Snapshot snapshot = workload::BuildSnapshot(spec);
    for (std::size_t p = 0; p < snapshot.pages.size(); ++p) {
      tables.push_back(sim::MakePageTable(opts.pt_kind, cache, opts));
      spaces.push_back(std::make_unique<os::AddressSpace>(
          static_cast<std::uint32_t>(p), *tables.back(), frames,
          os::AddressSpaceOptions{.strategy = strategy,
                                  .subblock_factor = opts.subblock_factor}));
      for (const auto& seg_pages : snapshot.pages[p]) {
        for (const Vpn vpn : seg_pages) {
          spaces.back()->TouchPage(VaOf(vpn));
        }
      }
    }
    workload::TraceGenerator gen(spec, snapshot);
    for (std::uint64_t i = 0; i < kReplayRefs; ++i) {
      trace.push_back(gen.Next());
    }
  }

  mem::CacheTouchModel cache;
  mem::ReservationAllocator frames;
  std::vector<std::unique_ptr<pt::PageTable>> tables;
  std::vector<std::unique_ptr<os::AddressSpace>> spaces;
  std::vector<workload::Reference> trace;
};

template <typename Fast>
void Replay(ReplayInputs& in, const sim::MachineOptions& opts, unsigned entries,
            const std::string& label) {
  Lockstep<Fast> tlbs(entries, opts.subblock_factor, label);
  std::vector<pt::TlbFill> block;
  block.reserve(opts.subblock_factor);
  mem::CacheTouchModel& cache = in.cache;
  for (const workload::Reference& r : in.trace) {
    const Vpn vpn = VpnOf(r.va);
    pt::PageTable& table = *in.tables[r.asid];
    const LookupOutcome outcome = tlbs.Lookup(r.asid, vpn);
    if (!IsMiss(outcome)) {
      continue;
    }
    cache.BeginWalk();
    if constexpr (std::is_same_v<Fast, CompleteSubblockTlb>) {
      if (outcome == LookupOutcome::kBlockMiss) {
        block.clear();
        table.LookupBlock(r.va, opts.subblock_factor, block);
        cache.AbortWalk();
        ASSERT_FALSE(block.empty()) << label << ": replay faulted";
        tlbs.InsertBlock(r.asid, vpn, block);
        continue;
      }
    }
    const auto fill = table.Lookup(r.va);
    cache.AbortWalk();
    ASSERT_TRUE(fill.has_value()) << label << ": replay faulted";
    tlbs.Insert(r.asid, vpn, *fill);
    if (tlbs.failed()) {
      return;
    }
  }
  EXPECT_TRUE(tlbs.Finish()) << label;
  EXPECT_GT(tlbs.fast().stats().misses, 0u) << label;
}

template <typename Fast>
void ReplayDesign(sim::TlbKind kind, os::PteStrategy strategy) {
  sim::MachineOptions opts;
  opts.pt_kind = sim::PtKind::kClustered;
  opts.tlb_kind = kind;
  for (const char* name : {"mp3d", "coral", "gcc"}) {
    ReplayInputs inputs(workload::GetPaperWorkload(name), opts, strategy);
    for (const unsigned entries : {16u, 56u, 64u}) {
      Replay<Fast>(inputs, opts, entries, std::string(name) + "/" + std::to_string(entries));
      if (::testing::Test::HasFailure()) {
        return;
      }
    }
  }
}

TEST(TlbDifferentialTest, Fig11aSinglePageReplays) {
  ReplayDesign<SinglePageTlb>(sim::TlbKind::kSinglePage, os::PteStrategy::kBaseOnly);
}

TEST(TlbDifferentialTest, Fig11bSuperpageReplays) {
  ReplayDesign<SuperpageTlb>(sim::TlbKind::kSuperpage, os::PteStrategy::kSuperpage);
}

TEST(TlbDifferentialTest, Fig11cPartialSubblockReplays) {
  ReplayDesign<PartialSubblockTlb>(sim::TlbKind::kPartialSubblock,
                                   os::PteStrategy::kPartialSubblock);
}

TEST(TlbDifferentialTest, Fig11dCompleteSubblockReplays) {
  ReplayDesign<CompleteSubblockTlb>(sim::TlbKind::kCompleteSubblock, os::PteStrategy::kBaseOnly);
}

// ---------------------------------------------------------------------------
// (b) Random adversarial streams.
// ---------------------------------------------------------------------------

constexpr unsigned kFactor = 16;
constexpr std::uint64_t kUniverseBlocks = 12;  // 192 VPNs, so sizes >= 64 rarely evict.
constexpr Asid kAsids = 3;
constexpr std::uint64_t kRandomOps = 40'000;

// A random fill covering a random VPN of the universe, with a PPN that
// depends on everything a buggy store could confuse.
struct RandomFill {
  Vpn vpn;
  pt::TlbFill fill;
};

RandomFill MakeRandomFill(Rng& rng) {
  const Vpn block_base = Vpn{0x4000 + kFactor * rng.Below(kUniverseBlocks)};
  const auto boff = static_cast<unsigned>(rng.Below(kFactor));
  const Vpn vpn = block_base + boff;
  const Ppn frame_base = Ppn{0x1000 * (1 + rng.Below(4))};
  switch (rng.Below(4)) {
    case 0: {
      const auto vector =
          static_cast<std::uint16_t>(rng.Below(0x10000) | (std::uint64_t{1} << boff));
      return {vpn, pt::TlbFill{.kind = MappingKind::kPartialSubblock,
                               .base_vpn = block_base,
                               .pages_log2 = Log2(kFactor),
                               .word = MappingWord::PartialSubblock(frame_base + kFactor * 3,
                                                                    Attr::ReadWrite(), vector)}};
    }
    case 1: {
      // Superpages of 2, 4, 16 and 32 pages: sub-block, block-sized and
      // larger than a block.
      const unsigned log2s[] = {1, 2, 4, 5};
      const PageSize size{log2s[rng.Below(4)]};
      return {vpn, pt::TlbFill{.kind = MappingKind::kSuperpage,
                               .base_vpn = SuperpageBaseVpn(vpn, size),
                               .pages_log2 = size.size_log2,
                               .word = MappingWord::Superpage(frame_base + 64, Attr::ReadWrite(),
                                                              size)}};
    }
    default:
      return {vpn, pt::TlbFill{.kind = MappingKind::kBase,
                               .base_vpn = vpn,
                               .pages_log2 = 0,
                               .word = MappingWord::Base(frame_base + boff, Attr::ReadWrite())}};
  }
}

template <typename Fast>
void RandomStream(std::uint64_t seed) {
  for (const unsigned entries : {1u, 2u, 8u, 64u, 256u}) {
    const std::string label = "seed " + std::to_string(seed) + "/" + std::to_string(entries);
    Lockstep<Fast> tlbs(entries, kFactor, label);
    Rng rng(seed * 1000 + entries);
    std::vector<RandomFill> history;
    std::vector<pt::TlbFill> block;
    for (std::uint64_t op = 0; op < kRandomOps && !tlbs.failed(); ++op) {
      const auto asid = static_cast<Asid>(rng.Below(kAsids));
      const std::uint64_t roll = rng.Below(1000);
      if (roll < 550) {
        const Vpn vpn = Vpn{0x4000 + rng.Below(kUniverseBlocks * kFactor)};
        (void)tlbs.Lookup(asid, vpn);
      } else if (roll < 800 || history.empty()) {
        history.push_back(MakeRandomFill(rng));
        tlbs.Insert(asid, history.back().vpn, history.back().fill);
      } else if (roll < 995) {
        // Re-insert an earlier fill: refresh in place when still resident.
        const RandomFill& again = history[rng.Below(history.size())];
        tlbs.Insert(asid, again.vpn, again.fill);
      } else {
        tlbs.Flush();
      }
      if constexpr (std::is_same_v<Fast, CompleteSubblockTlb>) {
        if (rng.Below(10) == 0) {
          // A block prefetch of a few fills, which may miss the faulting page.
          block.clear();
          const std::uint64_t n = rng.Below(4);
          for (std::uint64_t i = 0; i < n; ++i) {
            block.push_back(MakeRandomFill(rng).fill);
          }
          const Vpn vpn = block.empty() ? Vpn{0x4000} : block.front().base_vpn;
          tlbs.InsertBlock(asid, vpn, block);
        }
      }
    }
    EXPECT_TRUE(tlbs.Finish()) << label;
    EXPECT_GT(tlbs.fast().stats().hits, 0u) << label;
  }
}

TEST(TlbDifferentialTest, SinglePageRandomStreams) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    RandomStream<SinglePageTlb>(seed);
  }
}

TEST(TlbDifferentialTest, SuperpageRandomStreams) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    RandomStream<SuperpageTlb>(seed);
  }
}

TEST(TlbDifferentialTest, PartialSubblockRandomStreams) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    RandomStream<PartialSubblockTlb>(seed);
  }
}

TEST(TlbDifferentialTest, CompleteSubblockRandomStreams) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    RandomStream<CompleteSubblockTlb>(seed);
  }
}

}  // namespace
}  // namespace cpt::tlb
