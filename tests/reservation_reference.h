// Reference page-reservation allocator for the lockstep differential test:
// the allocator as it was when its constructor built a free-group stack
// over the whole pool.  It is the behavioural specification the touched-only
// mem::ReservationAllocator must match grant for grant — fresh groups in
// ascending order, freed groups reused last-in first-out before any fresh
// one, reservations broken oldest first into a LIFO fragment pool — and
// belongs to no library.  Allocate, Free and BreakOneReservation are copied
// unchanged; the tracer, grant log and audit hooks are left out because
// they decide nothing.
#ifndef CPT_TESTS_RESERVATION_REFERENCE_H_
#define CPT_TESTS_RESERVATION_REFERENCE_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "mem/reservation.h"

namespace cpt::mem::reference {

class ReservationAllocator {
 public:
  using FrameGrant = mem::ReservationAllocator::FrameGrant;

  ReservationAllocator(std::uint64_t num_frames, unsigned subblock_factor)
      : factor_(subblock_factor), num_frames_((num_frames / subblock_factor) * subblock_factor) {
    CPT_CHECK(IsPowerOfTwo(subblock_factor) && subblock_factor <= 32,
              "group masks are 32-bit");
    CPT_CHECK(num_frames_ > 0);
    const std::uint64_t num_groups = num_frames_ / factor_;
    groups_.resize(num_groups);
    free_groups_.reserve(num_groups);
    // Push in reverse so low frame numbers are handed out first.
    for (std::uint64_t g = num_groups; g-- > 0;) {
      free_groups_.push_back(g);
    }
  }

  std::optional<FrameGrant> Allocate(std::uint64_t block_key, unsigned boff) {
    CPT_DCHECK(boff < factor_);
    if (frames_used_ == num_frames_) {
      return std::nullopt;
    }

    // 1. An existing reservation for this virtual block: use the matching slot.
    if (auto it = by_owner_.find(block_key); it != by_owner_.end()) {
      Group& grp = groups_[it->second];
      CPT_DCHECK(grp.state == GroupState::kReserved);
      const std::uint32_t bit = 1u << boff;
      CPT_DCHECK((grp.used_mask & bit) == 0, "double allocation of (block, boff)");
      grp.used_mask |= bit;
      ++frames_used_;
      ++grants_;
      ++placed_grants_;
      const Ppn ppn = FrameAt(it->second, boff);
      return FrameGrant{ppn, true};
    }

    // 2. Reserve a fresh aligned group for this virtual block.
    if (!free_groups_.empty()) {
      const std::uint64_t g = free_groups_.back();
      free_groups_.pop_back();
      Group& grp = groups_[g];
      grp.state = GroupState::kReserved;
      grp.owner_key = block_key;
      grp.used_mask = 1u << boff;
      by_owner_.emplace(block_key, g);
      reservation_fifo_.push_back(g);
      ++reservations_made_;
      ++frames_used_;
      ++grants_;
      ++placed_grants_;
      const Ppn ppn = FrameAt(g, boff);
      return FrameGrant{ppn, true};
    }

    // 3. Memory pressure: draw from the fragment pool, breaking reservations
    //    as needed.  Pool entries can go stale, so validate on pop.
    for (;;) {
      while (fragment_pool_.empty()) {
        if (!BreakOneReservation()) {
          return std::nullopt;  // All frames genuinely in use.
        }
      }
      const Ppn ppn = fragment_pool_.back();
      fragment_pool_.pop_back();
      Group& grp = groups_[GroupOf(ppn)];
      const std::uint32_t bit = 1u << SlotOf(ppn);
      if (grp.state != GroupState::kFragmented || (grp.used_mask & bit) != 0) {
        continue;  // Stale entry.
      }
      grp.used_mask |= bit;
      ++frames_used_;
      ++grants_;
      return FrameGrant{ppn, false};
    }
  }

  void Free(Ppn ppn) {
    CPT_DCHECK(ppn.raw() < num_frames_);
    const std::uint64_t g = GroupOf(ppn);
    Group& grp = groups_[g];
    const std::uint32_t bit = 1u << SlotOf(ppn);
    CPT_DCHECK((grp.used_mask & bit) != 0, "freeing an unallocated frame");
    grp.used_mask &= ~bit;
    --frames_used_;
    if (grp.state == GroupState::kFragmented) {
      if (grp.used_mask == 0) {
        grp.state = GroupState::kFree;
        free_groups_.push_back(g);
      } else {
        fragment_pool_.push_back(ppn);
      }
    } else if (grp.state == GroupState::kReserved && grp.used_mask == 0) {
      by_owner_.erase(grp.owner_key);
      grp.state = GroupState::kFree;
      free_groups_.push_back(g);
    }
  }

  std::uint64_t frames_used() const { return frames_used_; }
  std::uint64_t grants() const { return grants_; }
  std::uint64_t properly_placed_grants() const { return placed_grants_; }
  std::uint64_t reservations_made() const { return reservations_made_; }
  std::uint64_t reservations_broken() const { return reservations_broken_; }

 private:
  enum class GroupState : std::uint8_t { kFree, kReserved, kFragmented };

  struct Group {
    GroupState state = GroupState::kFree;
    std::uint64_t owner_key = 0;
    std::uint32_t used_mask = 0;
  };

  std::uint64_t GroupOf(Ppn ppn) const { return ppn.raw() / factor_; }
  unsigned SlotOf(Ppn ppn) const { return static_cast<unsigned>(ppn.raw() % factor_); }
  Ppn FrameAt(std::uint64_t group, unsigned slot) const { return Ppn{group * factor_ + slot}; }

  bool BreakOneReservation() {
    while (!reservation_fifo_.empty()) {
      const std::uint64_t g = reservation_fifo_.front();
      reservation_fifo_.pop_front();
      Group& grp = groups_[g];
      if (grp.state != GroupState::kReserved) {
        continue;  // Stale entry: reservation already released or broken.
      }
      by_owner_.erase(grp.owner_key);
      grp.state = GroupState::kFragmented;
      ++reservations_broken_;
      for (unsigned slot = 0; slot < factor_; ++slot) {
        if ((grp.used_mask & (1u << slot)) == 0) {
          fragment_pool_.push_back(FrameAt(g, slot));
        }
      }
      if (!fragment_pool_.empty()) {
        return true;
      }
    }
    return false;
  }

  unsigned factor_;
  std::uint64_t num_frames_;
  std::uint64_t frames_used_ = 0;
  std::vector<Group> groups_;
  std::vector<std::uint64_t> free_groups_;                    // Stack of kFree group ids.
  std::unordered_map<std::uint64_t, std::uint64_t> by_owner_;  // block_key -> group id.
  std::deque<std::uint64_t> reservation_fifo_;                // Steal victims, oldest first.
  std::vector<Ppn> fragment_pool_;                            // Individually-free frames.

  std::uint64_t grants_ = 0;
  std::uint64_t placed_grants_ = 0;
  std::uint64_t reservations_made_ = 0;
  std::uint64_t reservations_broken_ = 0;
};

}  // namespace cpt::mem::reference

#endif  // CPT_TESTS_RESERVATION_REFERENCE_H_
