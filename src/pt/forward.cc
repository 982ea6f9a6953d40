#include "pt/forward.h"

#include "check/audit_visitor.h"
#include "common/check.h"

namespace cpt::pt {

ForwardMappedPageTable::ForwardMappedPageTable(mem::CacheTouchModel& cache, Options opts)
    : PageTable(cache),
      opts_(opts),
      alloc_(cache.line_size()),
      leaves_(
          alloc_, [this](Vpn first) { AddPath(first); },
          [this](Vpn first) { RemovePath(first); }) {}

ForwardMappedPageTable::~ForwardMappedPageTable() = default;

void ForwardMappedPageTable::AddPath(Vpn vpn) {
  // Ensure every intermediate node along the path exists, bumping child
  // counts bottom-up.  A node's count is the number of its active children.
  bool child_was_new = true;
  for (unsigned level = 2; level <= kNumLevels && child_was_new; ++level) {
    auto [it, inserted] = inner_[level].try_emplace(PrefixAt(vpn, level));
    if (inserted) {
      it->second.addr = alloc_.Allocate(NodeBytesOfLevel(level));
    }
    ++it->second.children;
    child_was_new = inserted;
  }
}

void ForwardMappedPageTable::RemovePath(Vpn vpn) {
  bool child_died = true;
  for (unsigned level = 2; level <= kNumLevels && child_died; ++level) {
    auto it = inner_[level].find(PrefixAt(vpn, level));
    CPT_DCHECK(it != inner_[level].end() && it->second.children > 0);
    child_died = --it->second.children == 0 && it->second.super_slots.empty();
    if (child_died) {
      alloc_.Free(it->second.addr, NodeBytesOfLevel(level));
      inner_[level].erase(it);
    }
  }
}

void ForwardMappedPageTable::AddIntermediateSuper(Vpn vpn, unsigned level, MappingWord word) {
  auto [it, inserted] = inner_[level].try_emplace(PrefixAt(vpn, level));
  if (inserted) {
    it->second.addr = alloc_.Allocate(NodeBytesOfLevel(level));
  }
  bool child_was_new = inserted;
  for (unsigned l = level + 1; l <= kNumLevels && child_was_new; ++l) {
    auto [pit, pinserted] = inner_[l].try_emplace(PrefixAt(vpn, l));
    if (pinserted) {
      pit->second.addr = alloc_.Allocate(NodeBytesOfLevel(l));
    }
    ++pit->second.children;
    child_was_new = pinserted;
  }
  const unsigned idx = IndexAt(vpn, level);
  auto& slots = it->second.super_slots;
  auto [slot_it, slot_inserted] = slots.try_emplace(idx, AtomicMappingWord{word});
  if (slot_inserted) {
    intermediate_translations_ += word.page_size().pages();
  } else {
    slot_it->second.store(word);
  }
}

void ForwardMappedPageTable::MaybeFreeInner(Vpn vpn, unsigned level) {
  auto it = inner_[level].find(PrefixAt(vpn, level));
  if (it == inner_[level].end() || it->second.children != 0 || !it->second.super_slots.empty()) {
    return;
  }
  alloc_.Free(it->second.addr, NodeBytesOfLevel(level));
  inner_[level].erase(it);
  bool child_died = true;
  for (unsigned l = level + 1; l <= kNumLevels && child_died; ++l) {
    auto pit = inner_[l].find(PrefixAt(vpn, l));
    CPT_DCHECK(pit != inner_[l].end() && pit->second.children > 0);
    child_died = --pit->second.children == 0 && pit->second.super_slots.empty();
    if (child_died) {
      alloc_.Free(pit->second.addr, NodeBytesOfLevel(l));
      inner_[l].erase(pit);
    }
  }
}

std::optional<TlbFill> ForwardMappedPageTable::Lookup(VirtAddr va) {
  const Vpn vpn = VpnOf(va);
  obs::WalkTracer* const tracer = cache_.tracer();
  // Top-down walk: one PTP read per intermediate level, then the leaf PTE.
  // Walk-step events use tree depth as the chain position (root = step 1).
  for (unsigned level = kNumLevels; level >= 2; --level) {
    auto it = inner_[level].find(PrefixAt(vpn, level));
    if (it == inner_[level].end()) {
      return std::nullopt;
    }
    const unsigned idx = IndexAt(vpn, level);
    cache_.Touch(it->second.addr + idx * 8, 8);
    if (tracer != nullptr) {
      tracer->Record({.kind = obs::EventKind::kWalkStep,
                      .vpn = vpn,
                      .step = kNumLevels - level + 1,
                      .lines = static_cast<std::uint32_t>(cache_.LinesThisWalk())});
    }
    if (opts_.intermediate_superpages) {
      auto slot_it = it->second.super_slots.find(idx);
      if (slot_it != it->second.super_slots.end()) {
        TlbFill fill = Leaves::FillFromWord(vpn, slot_it->second.load());
        if (fill.Covers(vpn)) {
          if (tracer != nullptr) {
            tracer->Record({.kind = obs::EventKind::kWalkHit,
                            .vpn = vpn,
                            .step = kNumLevels - level + 1,
                            .value = WalkHitValue(fill)});
          }
          return fill;  // Short-circuit: the PTP slot held a superpage PTE.
        }
        return std::nullopt;
      }
    }
  }
  const Leaves::Leaf* leaf = leaves_.Find(vpn);
  if (leaf == nullptr) {
    return std::nullopt;
  }
  // The leaf PTE read is the final level of the tree walk.
  cache_.Touch(Leaves::SlotAddr(*leaf, vpn), 8);
  if (tracer != nullptr) {
    tracer->Record({.kind = obs::EventKind::kWalkStep,
                    .vpn = vpn,
                    .step = kNumLevels,
                    .lines = static_cast<std::uint32_t>(cache_.LinesThisWalk())});
  }
  std::optional<TlbFill> fill = Leaves::Translate(*leaf, vpn);
  if (fill && tracer != nullptr) {
    tracer->Record({.kind = obs::EventKind::kWalkHit,
                    .vpn = vpn,
                    .step = kNumLevels,
                    .value = WalkHitValue(*fill)});
  }
  return fill;
}

void ForwardMappedPageTable::LookupBlock(VirtAddr va, unsigned subblock_factor,
                                         std::vector<TlbFill>& out) {
  out.reserve(subblock_factor);  // No-op on the caller's reused buffer.
  // One tree descent, then the block's PTEs are adjacent in the leaf node.
  // Steps are numbered as in Lookup: root 1, the leaf read kNumLevels.
  const Vpn vpn = VpnOf(va);
  const Vpn first = FirstVpnOfBlock(VpbnOf(vpn, subblock_factor), subblock_factor);
  obs::WalkTracer* const tracer = cache_.tracer();
  for (unsigned level = kNumLevels; level >= 2; --level) {
    auto it = inner_[level].find(PrefixAt(first, level));
    if (it == inner_[level].end()) {
      return;
    }
    cache_.Touch(it->second.addr + IndexAt(first, level) * 8, 8);
    if (tracer != nullptr) {
      tracer->Record({.kind = obs::EventKind::kWalkStep,
                      .vpn = vpn,
                      .step = kNumLevels - level + 1,
                      .lines = static_cast<std::uint32_t>(cache_.LinesThisWalk())});
    }
  }
  if (leaves_.ReadBlock(cache_, first, subblock_factor, out) && tracer != nullptr) {
    tracer->Record({.kind = obs::EventKind::kWalkStep,
                    .vpn = vpn,
                    .step = kNumLevels,
                    .lines = static_cast<std::uint32_t>(cache_.LinesThisWalk())});
  }
}

void ForwardMappedPageTable::InsertBase(Vpn vpn, Ppn ppn, Attr attr) {
  leaves_.InsertBase(vpn, ppn, attr);
}

bool ForwardMappedPageTable::RemoveBase(Vpn vpn) { return leaves_.RemoveBase(vpn); }

void ForwardMappedPageTable::InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn,
                                             Attr attr) {
  if (opts_.intermediate_superpages) {
    // Find the level whose subtree coverage equals the superpage size.
    for (unsigned level = 2; level <= kNumLevels; ++level) {
      if (ShiftOfLevel(level) == size.size_log2) {
        CPT_DCHECK(IsSuperpageAligned(base_vpn, size) && IsSuperpageAligned(base_ppn, size));
        AddIntermediateSuper(base_vpn, level, MappingWord::Superpage(base_ppn, attr, size));
        return;
      }
    }
  }
  leaves_.InsertSuperpage(base_vpn, size, base_ppn, attr);
}

bool ForwardMappedPageTable::RemoveSuperpage(Vpn base_vpn, PageSize size) {
  if (opts_.intermediate_superpages) {
    for (unsigned level = 2; level <= kNumLevels; ++level) {
      if (ShiftOfLevel(level) == size.size_log2) {
        auto it = inner_[level].find(PrefixAt(base_vpn, level));
        if (it == inner_[level].end()) {
          return false;
        }
        const bool erased = it->second.super_slots.erase(IndexAt(base_vpn, level)) > 0;
        if (erased) {
          intermediate_translations_ -= size.pages();
          MaybeFreeInner(base_vpn, level);
        }
        return erased;
      }
    }
  }
  return leaves_.RemoveReplicas(base_vpn, size.pages());
}

void ForwardMappedPageTable::UpsertPartialSubblock(Vpn block_base_vpn, unsigned subblock_factor,
                                                   Ppn block_base_ppn, Attr attr,
                                                   std::uint16_t valid_vector) {
  leaves_.UpsertPartialSubblock(block_base_vpn, subblock_factor, block_base_ppn, attr,
                                valid_vector);
}

bool ForwardMappedPageTable::RemovePartialSubblock(Vpn block_base_vpn, unsigned subblock_factor) {
  return leaves_.RemoveReplicas(block_base_vpn, subblock_factor);
}

bool ForwardMappedPageTable::UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask,
                                             std::uint16_t clear_mask) {
  // Uncounted structural update: R/M-bit maintenance rides on the walk the
  // miss already paid for (Section 3.1), so it models no memory traffic.
  if (opts_.intermediate_superpages) {
    for (unsigned level = kNumLevels; level >= 2; --level) {
      auto it = inner_[level].find(PrefixAt(vpn, level));
      if (it == inner_[level].end()) {
        return false;
      }
      auto slot_it = it->second.super_slots.find(IndexAt(vpn, level));
      if (slot_it != it->second.super_slots.end()) {
        const TlbFill fill = Leaves::FillFromWord(vpn, slot_it->second.load());
        if (!fill.Covers(vpn)) {
          return false;
        }
        // Intermediate superpage PTEs are single-site: one word, no replicas.
        ApplyAttrUpdate(slot_it->second, set_mask, clear_mask);
        return true;
      }
    }
  }
  return leaves_.UpdateAttrFlags(vpn, set_mask, clear_mask);
}

std::uint64_t ForwardMappedPageTable::ProtectRange(Vpn first_vpn, std::uint64_t npages,
                                                   Attr attr) {
  return leaves_.ProtectRange(first_vpn, npages, attr);
}

void ForwardMappedPageTable::AuditVisit(check::PtAuditVisitor& visitor) const {
  // Leaves: one view per leaf node, `bucket` the tree level (1 = leaf).
  leaves_.AuditVisit(visitor, /*bucket=*/1);
  // Intermediate-superpage words: one single-word view each, sub_log2 set to
  // the subtree coverage of that level.
  for (unsigned level = 2; level <= kNumLevels; ++level) {
    for (const auto& [prefix, inner] : inner_[level]) {
      for (const auto& [idx, word] : inner.super_slots) {
        check::PtNodeView view;
        view.bucket = level;
        view.tag = prefix;
        view.base_vpn = Vpn{((prefix << kLevelBits[level - 1]) | idx) << ShiftOfLevel(level)};
        view.sub_log2 = ShiftOfLevel(level);
        view.words = &word;
        view.num_words = 1;
        view.index = static_cast<std::int32_t>(inner.children);
        view.addr = inner.addr;
        visitor.OnNode(view);
      }
    }
  }
}

std::array<std::uint64_t, ForwardMappedPageTable::kNumLevels>
ForwardMappedPageTable::ActiveNodesPerLevel() const {
  std::array<std::uint64_t, kNumLevels> counts{};
  counts[0] = leaves_.leaf_count();
  for (unsigned level = 2; level <= kNumLevels; ++level) {
    counts[level - 1] = inner_[level].size();
  }
  return counts;
}

std::uint64_t ForwardMappedPageTable::SizeBytesPaperModel() const {
  std::uint64_t bytes = leaves_.leaf_count() * NodeBytesOfLevel(1);
  for (unsigned level = 2; level <= kNumLevels; ++level) {
    bytes += inner_[level].size() * NodeBytesOfLevel(level);
  }
  return bytes;
}

std::uint64_t ForwardMappedPageTable::SizeBytesActual() const { return alloc_.bytes_live(); }

std::uint64_t ForwardMappedPageTable::live_translations() const {
  return leaves_.live_translations() + intermediate_translations_;
}

}  // namespace cpt::pt
