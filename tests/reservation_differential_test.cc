// Lockstep differential test: mem::ReservationAllocator, which holds state
// only for the groups it has handed out, against the allocator that built a
// free-group stack over the whole pool up front (reservation_reference.h).
//
// Both are driven with the same seeded random Allocate/Free stream over
// several pool shapes.  Each stream has three phases: a fill that runs the
// pool to exhaustion (so reservations are broken and the fragment pool is
// drawn on), a churn of mixed allocations and frees at the edge of
// exhaustion, and a drain that frees everything and refills part of the
// pool.  Every grant must agree (nullopt, frame, placement), and so must
// every counter after every operation.  The structural auditor checks the
// allocator under test every 256 operations and at the end.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/auditor.h"
#include "common/rng.h"
#include "mem/reservation.h"
#include "reservation_reference.h"

namespace cpt::mem {
namespace {

struct PoolShape {
  std::uint64_t num_frames;
  unsigned factor;
};

std::string Describe(const std::optional<ReservationAllocator::FrameGrant>& g) {
  if (!g) {
    return "nullopt";
  }
  return "ppn=" + std::to_string(g->ppn.raw()) + " placed=" + std::to_string(g->properly_placed);
}

class Lockstep {
 public:
  Lockstep(PoolShape shape, std::uint64_t seed)
      : shape_(shape), dut_(shape.num_frames, shape.factor), ref_(shape.num_frames, shape.factor),
        rng_(seed), num_keys_(2 * (shape.num_frames / shape.factor) + 3) {
    dut_.EnableGrantLog();  // So the audits also check every outstanding grant.
  }

  // One random step: allocate with probability `p_alloc`, else free a random
  // live frame.  Returns false (after recording a gtest failure) on the first
  // divergence.
  bool Step(double p_alloc) {
    ++ops_;
    if (live_.empty() || rng_.Chance(p_alloc)) {
      const std::uint64_t key = rng_.Below(num_keys_);
      const auto boff = static_cast<unsigned>(rng_.Below(shape_.factor));
      if ((block_masks_[key] & (1u << boff)) != 0) {
        return true;  // Already allocated: the API forbids a second grant.
      }
      const auto got = dut_.Allocate(key, boff);
      const auto want = ref_.Allocate(key, boff);
      if (Describe(got) != Describe(want)) {
        ADD_FAILURE() << Where() << "Allocate(" << key << ", " << boff << ") granted "
                      << Describe(got) << ", the reference " << Describe(want);
        return false;
      }
      if (got) {
        live_.push_back({got->ppn, key, boff});
        block_masks_[key] |= 1u << boff;
      } else {
        ++refusals_;
      }
    } else {
      const std::size_t i = rng_.Below(live_.size());
      const Live victim = live_[i];
      live_[i] = live_.back();
      live_.pop_back();
      block_masks_[victim.key] &= ~(1u << victim.boff);
      dut_.Free(victim.ppn);
      ref_.Free(victim.ppn);
    }
    return CountersAgree() && (ops_ % 256 != 0 || AuditClean());
  }

  // Frees every live frame in random order, checking after each.
  bool Drain() {
    while (!live_.empty()) {
      if (!Step(/*p_alloc=*/0.0)) {
        return false;
      }
    }
    return true;
  }

  bool AuditClean() {
    const check::AuditReport r = check::StructuralAuditor::Audit(dut_);
    if (!r.ok()) {
      ADD_FAILURE() << Where() << r.Summary();
    }
    return r.ok();
  }

  std::uint64_t frames_used() const { return dut_.frames_used(); }
  std::uint64_t num_frames() const { return dut_.num_frames(); }
  std::uint64_t refusals() const { return refusals_; }
  const ReservationAllocator& dut() const { return dut_; }

 private:
  struct Live {
    Ppn ppn;
    std::uint64_t key;
    unsigned boff;
  };

  std::string Where() const {
    return "frames=" + std::to_string(shape_.num_frames) + " factor=" +
           std::to_string(shape_.factor) + " op " + std::to_string(ops_) + ": ";
  }

  bool CountersAgree() {
    const auto expect = [this](const char* name, std::uint64_t got, std::uint64_t want) {
      if (got != want) {
        ADD_FAILURE() << Where() << name << " " << got << ", the reference " << want;
      }
      return got == want;
    };
    return expect("grants", dut_.grants(), ref_.grants()) &&
           expect("placed", dut_.properly_placed_grants(), ref_.properly_placed_grants()) &&
           expect("made", dut_.reservations_made(), ref_.reservations_made()) &&
           expect("broken", dut_.reservations_broken(), ref_.reservations_broken()) &&
           expect("frames_used", dut_.frames_used(), ref_.frames_used());
  }

  PoolShape shape_;
  ReservationAllocator dut_;
  reference::ReservationAllocator ref_;
  Rng rng_;
  std::uint64_t num_keys_;
  std::uint64_t ops_ = 0;
  std::uint64_t refusals_ = 0;
  std::vector<Live> live_;
  std::unordered_map<std::uint64_t, std::uint32_t> block_masks_;  // key -> allocated boffs.
};

class ReservationDifferentialTest : public ::testing::TestWithParam<PoolShape> {};

TEST_P(ReservationDifferentialTest, RandomStreamsMatchTheReference) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 0x5eedull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Lockstep run(GetParam(), seed);
    const std::uint64_t churn_ops = 40 * run.num_frames() + 2000;

    // Fill until the pool refuses, well past the last fresh group.
    while (run.refusals() == 0) {
      ASSERT_TRUE(run.Step(/*p_alloc=*/0.9));
    }
    EXPECT_EQ(run.frames_used(), run.num_frames()) << "refusal only when truly full";
    if (GetParam().factor > 1) {  // Single-frame reservations are never part-used.
      EXPECT_GT(run.dut().reservations_broken(), 0u) << "the fill must break reservations";
    }

    // Churn at the edge of exhaustion, then drain and refill part way.
    for (std::uint64_t i = 0; i < churn_ops; ++i) {
      ASSERT_TRUE(run.Step(/*p_alloc=*/0.55));
    }
    ASSERT_TRUE(run.Drain());
    for (std::uint64_t i = 0; i < churn_ops / 2; ++i) {
      ASSERT_TRUE(run.Step(/*p_alloc=*/0.7));
    }
    EXPECT_TRUE(run.AuditClean());
  }
}

INSTANTIATE_TEST_SUITE_P(PoolShapes, ReservationDifferentialTest,
                         ::testing::Values(PoolShape{8, 4}, PoolShape{19, 4}, PoolShape{128, 8},
                                           PoolShape{256, 16}, PoolShape{1024, 32},
                                           PoolShape{64, 1}),
                         [](const ::testing::TestParamInfo<PoolShape>& shape) {
                           return "frames" + std::to_string(shape.param.num_frames) + "_factor" +
                                  std::to_string(shape.param.factor);
                         });

}  // namespace
}  // namespace cpt::mem
