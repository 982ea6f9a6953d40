// Linear page table — Figure 2 of the paper, extended to 64-bit addresses.
//
// Conceptually a single virtual array of PTEs indexed by VPN, materialized a
// 4KB page (512 PTEs) at a time.  For 64-bit addresses the mappings *to* the
// page table form a 6-level tree (52 VPN bits / 9 bits per level); the
// straightforward extension the paper analyzes.
//
// Size accounting (appendix Table 2):
//   - kSixLevel: sum over levels i=1..6 of 4KB * Nactive(2^(9i)) — every
//     active tree node is a page.
//   - kOneLevel: leaf pages only, assuming the upper levels live in a
//     zero-space structure (the paper's optimistic "1-level" series; in
//     practice a hashed table holds the upper mappings, see Section 7).
//
// Access-time accounting (Section 6.1): each TLB miss reads exactly one PTE
// from the leaf page — one cache line.  Misses on the page table's *own*
// virtual mappings (nested TLB misses) are modeled at the machine level by
// reserving 8 of the 64 TLB entries for page-table mappings; this class only
// touches the leaf slot.
//
// Superpage / partial-subblock PTEs use the Replicate-PTEs strategy
// (Section 4.2, pt/replicated_leaves.h): the word is written at every
// covered base-page site, so lookups are unchanged but the table cannot
// shrink.
#ifndef CPT_PT_LINEAR_H_
#define CPT_PT_LINEAR_H_

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "check/fwd.h"
#include "mem/sim_alloc.h"
#include "pt/page_table.h"
#include "pt/replicated_leaves.h"

namespace cpt::pt {

class LinearPageTable final : public PageTable {
 public:
  static constexpr unsigned kPtesPerPage = kBasePageSize / 8;  // 512
  static constexpr unsigned kBitsPerLevel = 9;
  static constexpr unsigned kNumLevels = 6;  // ceil(52 / 9)

  enum class SizeModel : std::uint8_t {
    kSixLevel,     // Charge every level of the 6-level tree.
    kOneLevel,     // Charge leaf pages only (optimistic "1-level" series).
    kHashedUpper,  // Leaf pages + one 24-byte hashed PTE per leaf, holding
                   // the translations to the page table itself (Table 2's
                   // "Linear with Hashed" row; Section 7's practical form).
  };

  struct Options {
    SizeModel size_model = SizeModel::kSixLevel;
  };

  LinearPageTable(mem::CacheTouchModel& cache, Options opts);
  ~LinearPageTable() override;

  [[nodiscard]] std::optional<TlbFill> Lookup(VirtAddr va) override;
  void LookupBlock(VirtAddr va, unsigned subblock_factor, std::vector<TlbFill>& out) override;
  void InsertBase(Vpn vpn, Ppn ppn, Attr attr) override;
  bool RemoveBase(Vpn vpn) override;
  PtFeatures features() const override {
    return {.superpages = true, .partial_subblock = true, .adjacent_block_fetch = true};
  }
  void InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn, Attr attr) override;
  bool RemoveSuperpage(Vpn base_vpn, PageSize size) override;
  void UpsertPartialSubblock(Vpn block_base_vpn, unsigned subblock_factor, Ppn block_base_ppn,
                             Attr attr, std::uint16_t valid_vector) override;
  bool RemovePartialSubblock(Vpn block_base_vpn, unsigned subblock_factor) override;
  bool UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask, std::uint16_t clear_mask) override;
  std::uint64_t ProtectRange(Vpn first_vpn, std::uint64_t npages, Attr attr) override;
  std::uint64_t SizeBytesPaperModel() const override;
  std::uint64_t SizeBytesActual() const override;
  std::uint64_t live_translations() const override;
  std::string name() const override;

  // Tree-node counts per level (level 1 = leaves), for the size formulae.
  std::array<std::uint64_t, kNumLevels> ActiveNodesPerLevel() const;

  // ---- Invariant auditing (src/check) ----
  void AuditVisit(check::PtAuditVisitor& visitor) const;

 private:
  friend class check::TestBackdoor;

  using Leaves = ReplicatedLeafStore<kPtesPerPage>;

  // Upper-level keys deliberately erase the domain: level i of the 6-level
  // radix tree is keyed by vpn >> (9*i), a plain array index.
  void AddUpperLevels(Vpn leaf_first_vpn);
  void RemoveUpperLevels(Vpn leaf_first_vpn);

  Options opts_;
  mem::SimAllocator alloc_;
  Leaves leaves_;
  // Refcounts of active intermediate nodes, levels 2..6 (index 0 unused,
  // index 1 unused; level i keyed by vpn >> (9*i)).
  std::array<std::unordered_map<std::uint64_t, std::uint32_t>, kNumLevels + 1> upper_;
};

}  // namespace cpt::pt

#endif  // CPT_PT_LINEAR_H_
