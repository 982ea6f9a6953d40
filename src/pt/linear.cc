#include "pt/linear.h"

#include "common/check.h"

namespace cpt::pt {

LinearPageTable::LinearPageTable(mem::CacheTouchModel& cache, Options opts)
    : PageTable(cache),
      opts_(opts),
      alloc_(cache.line_size()),
      leaves_(
          alloc_, [this](Vpn first) { AddUpperLevels(first); },
          [this](Vpn first) { RemoveUpperLevels(first); }) {}

LinearPageTable::~LinearPageTable() = default;

void LinearPageTable::AddUpperLevels(Vpn leaf_first_vpn) {
  std::uint64_t child_key = Leaves::LeafIndexOf(leaf_first_vpn);
  for (unsigned level = 2; level <= kNumLevels; ++level) {
    const std::uint64_t key = child_key >> kBitsPerLevel;
    if (upper_[level][key]++ != 0) {
      break;  // This subtree already existed; ancestors are already counted.
    }
    child_key = key;
  }
}

void LinearPageTable::RemoveUpperLevels(Vpn leaf_first_vpn) {
  std::uint64_t child_key = Leaves::LeafIndexOf(leaf_first_vpn);
  for (unsigned level = 2; level <= kNumLevels; ++level) {
    const std::uint64_t key = child_key >> kBitsPerLevel;
    auto it = upper_[level].find(key);
    CPT_DCHECK(it != upper_[level].end() && it->second > 0);
    if (--it->second != 0) {
      break;
    }
    upper_[level].erase(it);
    child_key = key;
  }
}

std::optional<TlbFill> LinearPageTable::Lookup(VirtAddr va) {
  const Vpn vpn = VpnOf(va);
  const Leaves::Leaf* leaf = leaves_.Find(vpn);
  if (leaf == nullptr) {
    return std::nullopt;  // The PTE page itself is unmapped: page fault.
  }
  // One access to the (virtually addressed) PTE — always a single line.
  cache_.Touch(Leaves::SlotAddr(*leaf, vpn), 8);
  if (obs::WalkTracer* const tracer = cache_.tracer()) {
    tracer->Record({.kind = obs::EventKind::kWalkStep,
                    .vpn = vpn,
                    .step = 1,
                    .lines = static_cast<std::uint32_t>(cache_.LinesThisWalk())});
  }
  std::optional<TlbFill> fill = Leaves::Translate(*leaf, vpn);
  if (fill) {
    if (obs::WalkTracer* const tracer = cache_.tracer()) {
      tracer->Record({.kind = obs::EventKind::kWalkHit,
                      .vpn = vpn,
                      .step = 1,
                      .value = WalkHitValue(*fill)});
    }
  }
  return fill;
}

void LinearPageTable::LookupBlock(VirtAddr va, unsigned subblock_factor,
                                  std::vector<TlbFill>& out) {
  out.reserve(subblock_factor);  // No-op on the caller's reused buffer.
  // Mappings for the whole page block are adjacent PTE slots: one read,
  // step 1 as in Lookup.
  const Vpn vpn = VpnOf(va);
  const Vpn first = FirstVpnOfBlock(VpbnOf(vpn, subblock_factor), subblock_factor);
  obs::WalkTracer* const tracer = cache_.tracer();
  if (leaves_.ReadBlock(cache_, first, subblock_factor, out) && tracer != nullptr) {
    tracer->Record({.kind = obs::EventKind::kWalkStep,
                    .vpn = vpn,
                    .step = 1,
                    .lines = static_cast<std::uint32_t>(cache_.LinesThisWalk())});
  }
}

void LinearPageTable::InsertBase(Vpn vpn, Ppn ppn, Attr attr) {
  leaves_.InsertBase(vpn, ppn, attr);
}

bool LinearPageTable::RemoveBase(Vpn vpn) { return leaves_.RemoveBase(vpn); }

void LinearPageTable::InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn, Attr attr) {
  leaves_.InsertSuperpage(base_vpn, size, base_ppn, attr);
}

bool LinearPageTable::RemoveSuperpage(Vpn base_vpn, PageSize size) {
  return leaves_.RemoveReplicas(base_vpn, size.pages());
}

void LinearPageTable::UpsertPartialSubblock(Vpn block_base_vpn, unsigned subblock_factor,
                                            Ppn block_base_ppn, Attr attr,
                                            std::uint16_t valid_vector) {
  leaves_.UpsertPartialSubblock(block_base_vpn, subblock_factor, block_base_ppn, attr,
                                valid_vector);
}

bool LinearPageTable::RemovePartialSubblock(Vpn block_base_vpn, unsigned subblock_factor) {
  return leaves_.RemoveReplicas(block_base_vpn, subblock_factor);
}

bool LinearPageTable::UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask, std::uint16_t clear_mask) {
  return leaves_.UpdateAttrFlags(vpn, set_mask, clear_mask);
}

std::uint64_t LinearPageTable::ProtectRange(Vpn first_vpn, std::uint64_t npages, Attr attr) {
  return leaves_.ProtectRange(first_vpn, npages, attr);
}

void LinearPageTable::AuditVisit(check::PtAuditVisitor& visitor) const {
  // A linear table has no hash chains: each leaf page becomes one node view.
  leaves_.AuditVisit(visitor, /*bucket=*/0);
}

std::array<std::uint64_t, LinearPageTable::kNumLevels> LinearPageTable::ActiveNodesPerLevel()
    const {
  std::array<std::uint64_t, kNumLevels> counts{};
  counts[0] = leaves_.leaf_count();
  for (unsigned level = 2; level <= kNumLevels; ++level) {
    counts[level - 1] = upper_[level].size();
  }
  return counts;
}

std::uint64_t LinearPageTable::SizeBytesPaperModel() const {
  std::uint64_t pages = leaves_.leaf_count();
  if (opts_.size_model == SizeModel::kSixLevel) {
    for (unsigned level = 2; level <= kNumLevels; ++level) {
      pages += upper_[level].size();
    }
  }
  std::uint64_t bytes = pages * kBasePageSize;
  if (opts_.size_model == SizeModel::kHashedUpper) {
    // A hashed table (24-byte PTEs) stores the translations to the
    // first-level linear page table: (4KB + 24) * Nactive(512).
    bytes += leaves_.leaf_count() * 24;
  }
  return bytes;
}

std::uint64_t LinearPageTable::SizeBytesActual() const {
  std::uint64_t bytes = alloc_.bytes_live();
  if (opts_.size_model == SizeModel::kSixLevel) {
    for (unsigned level = 2; level <= kNumLevels; ++level) {
      bytes += upper_[level].size() * kBasePageSize;
    }
  }
  return bytes;
}

std::uint64_t LinearPageTable::live_translations() const {
  return leaves_.live_translations();
}

std::string LinearPageTable::name() const {
  switch (opts_.size_model) {
    case SizeModel::kSixLevel:
      return "linear-6level";
    case SizeModel::kOneLevel:
      return "linear-1level";
    case SizeModel::kHashedUpper:
      return "linear-hashed";
  }
  return "linear";
}

}  // namespace cpt::pt
