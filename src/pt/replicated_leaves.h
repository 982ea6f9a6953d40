// Replicate-PTEs leaf store shared by the linear (Figure 2) and
// forward-mapped (Figure 3) page tables.
//
// Both radix baselines keep their PTEs in leaf nodes of kSlots 8-byte words
// indexed by the low VPN bits, and both store superpage and partial-subblock
// PTEs with Replicate-PTEs (Section 4.2): the word is written at the leaf
// slot of every base page it covers, so a lookup reads one slot whatever the
// format, the table cannot shrink, and an update must rewrite every replica.
// This store owns the leaves, their simulated addresses, the live-slot and
// live-translation counts and every replicate loop.  The owning table keeps
// what differs: its upper levels, the walk above the leaf, and walk-event
// emission.
//
// A new leaf takes its address from the owner's SimAllocator and then runs
// the owner's leaf-created hook; an emptied leaf returns its address, leaves
// the map and then runs the leaf-freed hook.  That order fixes every
// simulated address the owner's upper levels get.
#ifndef CPT_PT_REPLICATED_LEAVES_H_
#define CPT_PT_REPLICATED_LEAVES_H_

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/audit_visitor.h"
#include "check/fwd.h"
#include "common/check.h"
#include "mem/cache_model.h"
#include "mem/sim_alloc.h"
#include "pt/page_table.h"

namespace cpt::pt {

template <unsigned kSlots>
class ReplicatedLeafStore {
 public:
  static_assert(std::has_single_bit(kSlots));
  static constexpr unsigned kSlotsLog2 = std::countr_zero(kSlots);
  static constexpr std::uint64_t kLeafBytes = std::uint64_t{kSlots} * 8;
  // Replicated PSB words cover one page block; the factor is fixed by the
  // 16-bit valid vector format.
  static constexpr unsigned kPsbPagesLog2 = 4;

  struct Leaf {
    PhysAddr addr{};
    std::array<AtomicMappingWord, kSlots> slots{};
    unsigned live = 0;  // Occupied slots; the leaf is freed at zero.
  };

  // Receives the first VPN of the leaf that was just created or freed.
  using LeafHook = std::function<void(Vpn)>;

  ReplicatedLeafStore(mem::SimAllocator& alloc, LeafHook on_created, LeafHook on_freed)
      : alloc_(alloc), on_created_(std::move(on_created)), on_freed_(std::move(on_freed)) {}
  // The hooks act on the owning table, so a copy would update the wrong one.
  ReplicatedLeafStore(const ReplicatedLeafStore&) = delete;
  ReplicatedLeafStore& operator=(const ReplicatedLeafStore&) = delete;

  // Leaf coordinates deliberately erase the domain: the leaf index is
  // vpn >> log2(kSlots), a plain map key, and the slot is the low bits.
  // These are the only crossings from Vpn to a leaf index / slot and back.
  static constexpr std::uint64_t LeafIndexOf(Vpn vpn) { return vpn.raw() >> kSlotsLog2; }
  static constexpr unsigned SlotIndexOf(Vpn vpn) {
    return static_cast<unsigned>(vpn.raw() & (kSlots - 1));
  }
  static constexpr Vpn FirstVpnOfLeaf(std::uint64_t leaf_index) {
    return Vpn{leaf_index << kSlotsLog2};
  }

  // The fill a leaf word stored at vpn's slot stands for.
  static TlbFill FillFromWord(Vpn vpn, MappingWord word) {
    TlbFill fill;
    fill.kind = word.kind();
    fill.word = word;
    switch (word.kind()) {
      case MappingKind::kBase:
        fill.base_vpn = vpn;
        fill.pages_log2 = 0;
        break;
      case MappingKind::kSuperpage:
        fill.pages_log2 = word.page_size().size_log2;
        fill.base_vpn = SuperpageBaseVpn(vpn, word.page_size());
        break;
      case MappingKind::kPartialSubblock:
        fill.pages_log2 = kPsbPagesLog2;
        fill.base_vpn = SuperpageBaseVpn(vpn, PageSize{kPsbPagesLog2});
        break;
    }
    return fill;
  }

  // ---- Walk path: the owner touches lines and emits events ----

  Leaf* Find(Vpn vpn) {
    auto it = leaves_.find(LeafIndexOf(vpn));
    return it == leaves_.end() ? nullptr : &it->second;
  }

  static PhysAddr SlotAddr(const Leaf& leaf, Vpn vpn) {
    return leaf.addr + std::uint64_t{SlotIndexOf(vpn)} * 8;
  }

  // The fill translating vpn from its slot; nullopt when the slot is empty
  // or holds a PSB replica whose valid bit for vpn is clear.
  static std::optional<TlbFill> Translate(const Leaf& leaf, Vpn vpn) {
    const MappingWord word = leaf.slots[SlotIndexOf(vpn)].load();
    if (word == MappingWord::Invalid()) {
      return std::nullopt;
    }
    TlbFill fill = FillFromWord(vpn, word);
    if (!fill.Covers(vpn)) {
      return std::nullopt;
    }
    return fill;
  }

  // The leaf half of a complete-subblock prefetch: the block's PTEs are
  // adjacent slots, read as one touch of n*8 bytes.  Page blocks never
  // straddle leaves because kSlots is a multiple of every subblock factor.
  // Returns false, touching nothing, when the leaf page is unmapped.
  bool ReadBlock(mem::CacheTouchModel& cache, Vpn first, unsigned n, std::vector<TlbFill>& out) {
    Leaf* leaf = Find(first);
    if (leaf == nullptr) {
      return false;
    }
    const unsigned slot0 = SlotIndexOf(first);
    cache.Touch(SlotAddr(*leaf, first), std::uint64_t{n} * 8);
    for (unsigned i = 0; i < n; ++i) {
      const MappingWord word = leaf->slots[slot0 + i].load();
      if (word == MappingWord::Invalid()) {
        continue;
      }
      TlbFill fill = FillFromWord(first + i, word);
      if (fill.Covers(first + i)) {
        out.push_back(fill);
      }
    }
    return true;
  }

  // ---- OS update path ----

  void InsertBase(Vpn vpn, Ppn ppn, Attr attr) { SetSlot(vpn, MappingWord::Base(ppn, attr)); }
  bool RemoveBase(Vpn vpn) { return ClearSlot(vpn) != MappingWord::Invalid(); }

  // Replicate-PTEs: the superpage word is stored at the slot of every base
  // page it covers.
  void InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn, Attr attr) {
    CPT_DCHECK(IsSuperpageAligned(base_vpn, size) && IsSuperpageAligned(base_ppn, size));
    Replicate(base_vpn, size.pages(), MappingWord::Superpage(base_ppn, attr, size));
  }

  // Replicated at every base site; updating the vector rewrites all replicas
  // (the §4.3 multi-PTE update cost of replication).
  void UpsertPartialSubblock(Vpn block_base_vpn, unsigned subblock_factor, Ppn block_base_ppn,
                             Attr attr, std::uint16_t valid_vector) {
    CPT_DCHECK(subblock_factor == (1u << kPsbPagesLog2));
    CPT_DCHECK(BoffOf(block_base_vpn, subblock_factor) == 0 &&
               IsSuperpageAligned(block_base_ppn, PageSize{kPsbPagesLog2}));
    Replicate(block_base_vpn, subblock_factor,
              MappingWord::PartialSubblock(block_base_ppn, attr, valid_vector));
  }

  // Clears every replica site in [first_vpn, first_vpn + npages); true when
  // any was occupied.
  bool RemoveReplicas(Vpn first_vpn, unsigned npages) {
    bool any = false;
    for (unsigned i = 0; i < npages; ++i) {
      any |= ClearSlot(first_vpn + i) != MappingWord::Invalid();
    }
    return any;
  }

  // Uncounted structural update: R/M-bit maintenance rides on the walk the
  // miss already paid for (Section 3.1), so it models no memory traffic.
  // The update must hit every replica of the covering word, or a later scan
  // at a sibling site would read stale bits.
  bool UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask, std::uint16_t clear_mask) {
    Leaf* leaf = Find(vpn);
    if (leaf == nullptr) {
      return false;
    }
    const std::optional<TlbFill> fill = Translate(*leaf, vpn);
    if (!fill) {
      return false;
    }
    const std::uint64_t npages = std::uint64_t{1} << fill->pages_log2;
    for (std::uint64_t i = 0; i < npages; ++i) {
      const Vpn site = fill->base_vpn + i;
      Leaf* site_leaf = LeafIndexOf(site) == LeafIndexOf(vpn) ? leaf : Find(site);
      if (site_leaf == nullptr) {
        continue;
      }
      AtomicMappingWord& slot = site_leaf->slots[SlotIndexOf(site)];
      const MappingWord replica = slot.load();
      if (replica == MappingWord::Invalid() || replica.kind() != fill->kind) {
        continue;
      }
      ApplyAttrUpdate(slot, set_mask, clear_mask);
    }
    return true;
  }

  // Direct slot indexing: one slot visit per page.
  std::uint64_t ProtectRange(Vpn first_vpn, std::uint64_t npages, Attr attr) {
    for (std::uint64_t i = 0; i < npages; ++i) {
      Leaf* leaf = Find(first_vpn + i);
      if (leaf == nullptr) {
        continue;
      }
      AtomicMappingWord& slot = leaf->slots[SlotIndexOf(first_vpn + i)];
      const MappingWord word = slot.load();
      if (word != MappingWord::Invalid()) {
        slot.store(word.with_attr(attr));
      }
    }
    return npages;
  }

  // ---- Metrics and auditing ----

  std::uint64_t leaf_count() const { return leaves_.size(); }
  std::uint64_t live_translations() const { return live_translations_; }

  // One node view per leaf.  `tag` is the leaf index and `index` carries the
  // live-slot counter, so the auditor can recount it against the occupied
  // slots in `words`; `bucket` is the owner's tag for leaf views.
  void AuditVisit(check::PtAuditVisitor& visitor, std::uint32_t bucket) const {
    for (const auto& [leaf_index, leaf] : leaves_) {
      check::PtNodeView view;
      view.bucket = bucket;
      view.tag = leaf_index;
      view.base_vpn = FirstVpnOfLeaf(leaf_index);
      view.sub_log2 = 0;
      view.words = leaf.slots.data();
      view.num_words = kSlots;
      view.index = static_cast<std::int32_t>(leaf.live);
      view.addr = leaf.addr;
      visitor.OnNode(view);
    }
  }

 private:
  friend class check::TestBackdoor;

  void Replicate(Vpn first_vpn, unsigned npages, MappingWord word) {
    for (unsigned i = 0; i < npages; ++i) {
      SetSlot(first_vpn + i, word);
    }
  }

  void SetSlot(Vpn vpn, MappingWord word) {
    auto [it, inserted] = leaves_.try_emplace(LeafIndexOf(vpn));
    Leaf& leaf = it->second;
    if (inserted) {
      leaf.addr = alloc_.Allocate(kLeafBytes);
      on_created_(FirstVpnOfLeaf(it->first));
    }
    AtomicMappingWord& slot = leaf.slots[SlotIndexOf(vpn)];
    const MappingWord old = slot.load();
    const bool was_occupied = old != MappingWord::Invalid();
    const bool was_translating = was_occupied && FillFromWord(vpn, old).Covers(vpn);
    const bool now_occupied = word != MappingWord::Invalid();
    const bool now_translating = now_occupied && FillFromWord(vpn, word).Covers(vpn);
    leaf.live += static_cast<unsigned>(now_occupied) - static_cast<unsigned>(was_occupied);
    live_translations_ +=
        static_cast<std::uint64_t>(now_translating) - static_cast<std::uint64_t>(was_translating);
    slot.store(word);
  }

  // Clears a slot, freeing its leaf when the leaf empties; returns the
  // previous word.
  MappingWord ClearSlot(Vpn vpn) {
    Leaf* leaf = Find(vpn);
    if (leaf == nullptr) {
      return MappingWord::Invalid();
    }
    AtomicMappingWord& slot = leaf->slots[SlotIndexOf(vpn)];
    const MappingWord old = slot.load();
    if (old != MappingWord::Invalid()) {
      if (FillFromWord(vpn, old).Covers(vpn)) {
        --live_translations_;
      }
      slot.store(MappingWord::Invalid());
      if (--leaf->live == 0) {
        const std::uint64_t leaf_index = LeafIndexOf(vpn);
        alloc_.Free(leaf->addr, kLeafBytes);
        leaves_.erase(leaf_index);
        on_freed_(FirstVpnOfLeaf(leaf_index));
      }
    }
    return old;
  }

  mem::SimAllocator& alloc_;
  LeafHook on_created_;
  LeafHook on_freed_;
  std::unordered_map<std::uint64_t, Leaf> leaves_;  // Keyed by LeafIndexOf.
  std::uint64_t live_translations_ = 0;
};

// Host layout pins (DESIGN.md "Layout pins"): a linear-table leaf page holds
// 512 PTEs, a forward-mapped leaf node 256.
static_assert(sizeof(ReplicatedLeafStore<512>::Leaf) == 4112 &&
              alignof(ReplicatedLeafStore<512>::Leaf) == 8);
static_assert(sizeof(ReplicatedLeafStore<256>::Leaf) == 2064 &&
              alignof(ReplicatedLeafStore<256>::Leaf) == 8);

}  // namespace cpt::pt

#endif  // CPT_PT_REPLICATED_LEAVES_H_
