// Layered replay for the traced run.
//
// Each layer is timed over the configuration's own inputs, one batch per
// layer:
//   workload  BuildSnapshot (map-churn: with its churn and sweep lists), then
//             TraceGenerator::Generate (map-churn: the sweep references);
//   mem       ReservationAllocator construction;
//   sim       a Machine run (construct, Preload, Access over the trace);
//   obs       the same Machine run with a no-op WalkTracer attached;
//   os        TouchPage / UnmapRange on page tables of the configuration's
//             own, built the way Machine builds and preloads its tables;
//   tlb       fresh TLBs replaying the lookups and the recorded fills;
//   pt        PageTable::Lookup / LookupBlock over the recorded miss stream,
//             bracketed by CacheTouchModel::BeginWalk / EndWalk (so pt time
//             includes the cache-line accounting of mem::CacheTouchModel).
// An untimed record pass produces the miss stream and fills; its TLB
// misses, walks and lines must equal the Machine's.
#include "layers.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <span>

#include "obs/json_writer.h"
#include "tlb/complete_subblock.h"
#include "tlb/partial_subblock.h"
#include "tlb/single_page.h"
#include "tlb/superpage.h"

namespace perfbench {

using cpt::Vpn;
using cpt::tlb::Asid;
using cpt::tlb::IsMiss;
using cpt::tlb::LookupOutcome;
using sim::PtKind;
using sim::TlbKind;

SpanLog::SpanLog() : origin_ns_(0) { origin_ns_ = Now(); }

std::int64_t SpanLog::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() -
         origin_ns_;
}

std::uint64_t SpanLog::Open(std::string name, std::string config, std::uint64_t parent) {
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.name = std::move(name);
  span.config = std::move(config);
  span.start_ns = Now();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

double SpanLog::Close(std::uint64_t id, std::uint64_t work) {
  Span& span = spans_[id - 1];
  span.end_ns = Now();
  span.work = work;
  return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
}

void SpanLog::WriteJsonl(std::ostream& os) const {
  for (const Span& s : spans_) {
    cpt::obs::JsonWriter w(os, /*pretty=*/false);
    w.BeginObject();
    w.KV("id", s.id);
    w.KV("parent", s.parent);
    w.KV("name", s.name);
    w.KV("config", s.config);
    w.KV("start_ns", static_cast<std::uint64_t>(s.start_ns));
    w.KV("end_ns", static_cast<std::uint64_t>(s.end_ns));
    w.KV("work", s.work);
    w.EndObject();
    os << '\n';
  }
}

void LayerTotals::Add(const LayerTotals& o) {
  configs += o.configs;
  snapshot_s += o.snapshot_s;
  snapshots += o.snapshots;
  trace_s += o.trace_s;
  refs += o.refs;
  reservation_ctor_s += o.reservation_ctor_s;
  machine_ctor_s += o.machine_ctor_s;
  preload_s += o.preload_s;
  access_s += o.access_s;
  traced_access_s += o.traced_access_s;
  tlb_s += o.tlb_s;
  tlb_misses += o.tlb_misses;
  walk_s += o.walk_s;
  walk_calls += o.walk_calls;
  walks += o.walks;
  lines += o.lines;
  map_s += o.map_s;
  map_pages += o.map_pages;
  unmap_s += o.unmap_s;
  unmap_pages += o.unmap_pages;
  replay_faults += o.replay_faults;
  grants += o.grants;
  placed_grants += o.placed_grants;
}

namespace {

class NoopTracer final : public obs::WalkTracer {
 public:
  void Record(const obs::WalkEvent&) override {}
};

bool IsLinear(PtKind kind) {
  return kind == PtKind::kLinear6 || kind == PtKind::kLinear1 || kind == PtKind::kLinearHashed;
}

// The PTE strategy sim::Machine uses for these options.
cpt::os::PteStrategy StrategyOf(const sim::MachineOptions& opts) {
  if (opts.strategy) {
    return *opts.strategy;
  }
  switch (opts.tlb_kind) {
    case TlbKind::kSuperpage:
      return cpt::os::PteStrategy::kSuperpage;
    case TlbKind::kPartialSubblock:
      return cpt::os::PteStrategy::kPartialSubblock;
    case TlbKind::kSinglePage:
    case TlbKind::kCompleteSubblock:
      return cpt::os::PteStrategy::kBaseOnly;
  }
  return cpt::os::PteStrategy::kBaseOnly;
}

std::unique_ptr<cpt::tlb::Tlb> MakeTlb(const sim::MachineOptions& opts, unsigned entries) {
  switch (opts.tlb_kind) {
    case TlbKind::kSinglePage:
      return std::make_unique<cpt::tlb::SinglePageTlb>(entries);
    case TlbKind::kSuperpage:
      return std::make_unique<cpt::tlb::SuperpageTlb>(entries);
    case TlbKind::kPartialSubblock:
      return std::make_unique<cpt::tlb::PartialSubblockTlb>(entries, opts.subblock_factor);
    case TlbKind::kCompleteSubblock:
      return std::make_unique<cpt::tlb::CompleteSubblockTlb>(entries, opts.subblock_factor);
  }
  return nullptr;
}

// The effective TLB and, for linear tables, the full-size reference TLB
// (Machine's reserved-entry model, Section 6.1).
struct Tlbs {
  std::unique_ptr<cpt::tlb::Tlb> tlb;
  std::unique_ptr<cpt::tlb::Tlb> ref;

  explicit Tlbs(const sim::MachineOptions& opts) {
    if (IsLinear(opts.pt_kind)) {
      tlb = MakeTlb(opts, opts.tlb_entries - opts.linear_reserved_entries);
      ref = MakeTlb(opts, opts.tlb_entries);
    } else {
      tlb = MakeTlb(opts, opts.tlb_entries);
    }
  }
  std::uint64_t DenominatorMisses() const {
    return ref ? ref->stats().misses : tlb->stats().misses;
  }
};

bool PrefetchesBlocks(const sim::MachineOptions& opts) {
  return opts.tlb_kind == TlbKind::kCompleteSubblock && opts.prefetch_on_block_miss;
}

// Page tables, address spaces and frames built through the os layer.
struct OsState {
  cpt::mem::CacheTouchModel cache;
  std::unique_ptr<cpt::mem::ReservationAllocator> frames;
  std::vector<std::unique_ptr<cpt::pt::PageTable>> tables;
  std::vector<std::unique_ptr<cpt::os::AddressSpace>> spaces;

  std::vector<cpt::os::AddressSpace*> Spaces() const {
    std::vector<cpt::os::AddressSpace*> out;
    for (const auto& s : spaces) {
      out.push_back(s.get());
    }
    return out;
  }
};

enum class WalkKind : std::uint8_t { kCounted, kBlock, kUncounted };
struct WalkRecord {
  Asid asid = 0;
  cpt::VirtAddr va{};
  WalkKind kind = WalkKind::kCounted;
};

// What the record pass saw: every walk, every TLB fill in insert order, and
// the number of fills of each block insert.
struct MissStream {
  std::vector<WalkRecord> walks;
  std::vector<cpt::pt::TlbFill> fills;
  std::vector<std::uint32_t> block_fills;
};

// Mirrors sim::Machine::Access over page tables that never fault.
std::string RecordPass(const sim::MachineOptions& opts, OsState& os,
                       const std::vector<workload::Reference>& trace, Tlbs& tlbs,
                       MissStream& out) {
  std::vector<cpt::pt::TlbFill> block;
  block.reserve(opts.subblock_factor);
  for (const workload::Reference& r : trace) {
    const Vpn vpn = cpt::VpnOf(r.va);
    cpt::pt::PageTable& table = *os.tables[r.asid];
    const bool ref_missed = tlbs.ref && IsMiss(tlbs.ref->Lookup(r.asid, vpn));
    const LookupOutcome outcome = tlbs.tlb->Lookup(r.asid, vpn);
    if (!IsMiss(outcome)) {
      if (ref_missed) {
        os.cache.BeginWalk();
        const auto fill = table.Lookup(r.va);
        os.cache.AbortWalk();
        if (!fill) {
          return "layered replay faulted";
        }
        out.walks.push_back({r.asid, r.va, WalkKind::kUncounted});
        out.fills.push_back(*fill);
        tlbs.ref->Insert(r.asid, vpn, *fill);
      }
      continue;
    }
    if (PrefetchesBlocks(opts) && outcome == LookupOutcome::kBlockMiss) {
      block.clear();
      os.cache.BeginWalk();
      table.LookupBlock(r.va, opts.subblock_factor, block);
      os.cache.EndWalk();
      if (std::none_of(block.begin(), block.end(),
                       [vpn](const cpt::pt::TlbFill& f) { return f.Covers(vpn); })) {
        return "layered replay faulted";
      }
      out.walks.push_back({r.asid, r.va, WalkKind::kBlock});
      out.fills.insert(out.fills.end(), block.begin(), block.end());
      out.block_fills.push_back(static_cast<std::uint32_t>(block.size()));
      static_cast<cpt::tlb::CompleteSubblockTlb&>(*tlbs.tlb).InsertBlock(r.asid, vpn, block);
      if (ref_missed) {
        static_cast<cpt::tlb::CompleteSubblockTlb&>(*tlbs.ref).InsertBlock(r.asid, vpn, block);
      }
      continue;
    }
    os.cache.BeginWalk();
    const auto fill = table.Lookup(r.va);
    if (!fill) {
      os.cache.AbortWalk();
      return "layered replay faulted";
    }
    os.cache.EndWalk();
    out.walks.push_back({r.asid, r.va, WalkKind::kCounted});
    out.fills.push_back(*fill);
    tlbs.tlb->Insert(r.asid, vpn, *fill);
    if (ref_missed) {
      tlbs.ref->Insert(r.asid, vpn, *fill);
    }
  }
  return "";
}

// The TLB layer alone: the record pass's lookups, with its fills replayed.
void TlbPass(const sim::MachineOptions& opts, const std::vector<workload::Reference>& trace,
             const MissStream& stream, Tlbs& tlbs) {
  std::size_t fi = 0;
  std::size_t bi = 0;
  for (const workload::Reference& r : trace) {
    const Vpn vpn = cpt::VpnOf(r.va);
    const bool ref_missed = tlbs.ref && IsMiss(tlbs.ref->Lookup(r.asid, vpn));
    const LookupOutcome outcome = tlbs.tlb->Lookup(r.asid, vpn);
    if (!IsMiss(outcome)) {
      if (ref_missed) {
        tlbs.ref->Insert(r.asid, vpn, stream.fills[fi++]);
      }
      continue;
    }
    if (PrefetchesBlocks(opts) && outcome == LookupOutcome::kBlockMiss) {
      const std::span<const cpt::pt::TlbFill> block(stream.fills.data() + fi,
                                                    stream.block_fills[bi++]);
      static_cast<cpt::tlb::CompleteSubblockTlb&>(*tlbs.tlb).InsertBlock(r.asid, vpn, block);
      if (ref_missed) {
        static_cast<cpt::tlb::CompleteSubblockTlb&>(*tlbs.ref).InsertBlock(r.asid, vpn, block);
      }
      fi += block.size();
      continue;
    }
    tlbs.tlb->Insert(r.asid, vpn, stream.fills[fi]);
    if (ref_missed) {
      tlbs.ref->Insert(r.asid, vpn, stream.fills[fi]);
    }
    ++fi;
  }
}

// The page-table layer alone: every recorded walk, line-accounted.
std::uint64_t WalkPass(const sim::MachineOptions& opts, OsState& os, const MissStream& stream) {
  std::vector<cpt::pt::TlbFill> block;
  block.reserve(opts.subblock_factor);
  std::uint64_t found = 0;
  for (const WalkRecord& w : stream.walks) {
    cpt::pt::PageTable& table = *os.tables[w.asid];
    os.cache.BeginWalk();
    switch (w.kind) {
      case WalkKind::kCounted:
        found += table.Lookup(w.va).has_value();
        os.cache.EndWalk();
        break;
      case WalkKind::kBlock:
        block.clear();
        table.LookupBlock(w.va, opts.subblock_factor, block);
        found += block.size();
        os.cache.EndWalk();
        break;
      case WalkKind::kUncounted:
        found += table.Lookup(w.va).has_value();
        os.cache.AbortWalk();
        break;
    }
  }
  return found;
}

// First VPN of every mapped block of each process, for the teardown.
std::vector<std::vector<Vpn>> MappedBlocks(const workload::Snapshot& snapshot, unsigned factor) {
  std::vector<std::vector<Vpn>> blocks(snapshot.pages.size());
  for (std::size_t p = 0; p < snapshot.pages.size(); ++p) {
    for (const Vpn vpn : snapshot.FlatProcess(p)) {
      const Vpn first = BlockStart(vpn, factor);
      if (blocks[p].empty() || blocks[p].back() != first) {
        blocks[p].push_back(first);
      }
    }
  }
  return blocks;
}

std::string Mismatch(const char* what, std::uint64_t layered, std::uint64_t machine) {
  return std::string(what) + ": layered " + std::to_string(layered) + ", machine " +
         std::to_string(machine);
}

}  // namespace

std::string TraceConfig(const Plan& plan, const Config& config, std::uint64_t pass_span,
                        SpanLog& spans, LayerTotals& totals) {
  const sim::MachineOptions& opts = config.opts;
  if (opts.shared_page_table || opts.swtlb_sets != 0 || opts.maintain_ref_bits || opts.audit) {
    return "configuration outside the layered replay's model";
  }
  const workload::WorkloadSpec& spec = plan.inputs[config.input];
  const auto nprocs = static_cast<unsigned>(spec.processes.size());
  LayerTotals t;
  t.configs = 1;
  const std::uint64_t cfg = spans.Open("config", config.name, pass_span);

  std::uint64_t id = spans.Open("workload.snapshot", config.name, cfg);
  const Input input = BuildInput(spec, plan.kind);
  t.snapshot_s = spans.Close(id, input.snapshot.TotalPages());
  t.snapshots = 1;
  id = spans.Open("workload.trace", config.name, cfg);
  const std::vector<workload::Reference> trace = MakeTrace(plan, config, input);
  t.trace_s = spans.Close(id, trace.size());
  t.refs = trace.size();

  OsState os;
  id = spans.Open("mem.reservation_ctor", config.name, cfg);
  os.frames = std::make_unique<cpt::mem::ReservationAllocator>(opts.phys_frames,
                                                              opts.subblock_factor);
  t.reservation_ctor_s = spans.Close(id, 1);

  MachineRun machine;
  {
    id = spans.Open("sim.machine", config.name, cfg);
    machine = RunOnMachine(plan, config, input, &trace);
    spans.Close(id, trace.size());
    t.machine_ctor_s = machine.times.ctor_s;
    t.preload_s = machine.times.preload_s;
    t.access_s = machine.times.replay_s;
    t.replay_faults = machine.counts.replay_faults;
    t.grants = machine.grants;
    t.placed_grants = machine.placed_grants;
  }
  {
    NoopTracer noop;
    id = spans.Open("obs.machine_traced", config.name, cfg);
    t.traced_access_s = RunOnMachine(plan, config, input, &trace, &noop).times.replay_s;
    spans.Close(id, trace.size());
  }

  for (unsigned p = 0; p < nprocs; ++p) {
    os.tables.push_back(sim::MakePageTable(opts.pt_kind, os.cache, opts));
    os.spaces.push_back(std::make_unique<cpt::os::AddressSpace>(
        p, *os.tables.back(), *os.frames,
        cpt::os::AddressSpaceOptions{.strategy = StrategyOf(opts),
                                     .subblock_factor = opts.subblock_factor}));
  }
  std::vector<cpt::os::AddressSpace*> spaces = os.Spaces();
  id = spans.Open("os.map", config.name, cfg);
  for (unsigned p = 0; p < nprocs; ++p) {
    for (const auto& seg_pages : input.snapshot.pages[p]) {
      for (const Vpn vpn : seg_pages) {
        spaces[p]->TouchPage(cpt::VaOf(vpn));
      }
    }
  }
  t.map_pages = input.snapshot.TotalPages();
  t.map_s = spans.Close(id, t.map_pages);
  if (plan.kind == WorkloadKind::kMapChurn) {
    id = spans.Open("os.unmap", config.name, cfg);
    t.unmap_pages = UnmapChurnBlocks(spaces, input, opts.subblock_factor);
    t.unmap_s = spans.Close(id, t.unmap_pages);
    id = spans.Open("os.map", config.name, cfg);
    RemapChurnBlocks(spaces, input, opts.subblock_factor);
    t.map_s += spans.Close(id, t.unmap_pages);
    t.map_pages += t.unmap_pages;
  }

  MissStream stream;
  std::uint64_t record_misses = 0;
  {
    Tlbs tlbs(opts);
    id = spans.Open("check.record", config.name, cfg);
    const std::string fault = RecordPass(opts, os, trace, tlbs, stream);
    spans.Close(id, trace.size());
    if (!fault.empty()) {
      return fault;
    }
    const Counts& m = machine.counts;
    const std::uint64_t walks = os.cache.total_walks();
    const std::uint64_t lines = os.cache.total_lines();
    record_misses = tlbs.tlb->stats().misses;
    if (record_misses != m.tlb_misses) {
      return Mismatch("TLB misses", record_misses, m.tlb_misses);
    }
    if (tlbs.DenominatorMisses() != m.denominator_misses) {
      return Mismatch("denominator misses", tlbs.DenominatorMisses(), m.denominator_misses);
    }
    if (walks != m.walks) {
      return Mismatch("walks", walks, m.walks);
    }
    if (lines != m.lines) {
      return Mismatch("lines", lines, m.lines);
    }
    t.walks = walks;
    t.lines = lines;
  }
  {
    Tlbs tlbs(opts);
    id = spans.Open("tlb.replay", config.name, cfg);
    TlbPass(opts, trace, stream, tlbs);
    t.tlb_s = spans.Close(id, trace.size());
    t.tlb_misses = tlbs.tlb->stats().misses;
    if (t.tlb_misses != record_misses) {
      return Mismatch("TLB-only replay misses", t.tlb_misses, record_misses);
    }
  }
  {
    const std::uint64_t lines_before = os.cache.total_lines();
    const std::uint64_t walks_before = os.cache.total_walks();
    id = spans.Open("pt.walks", config.name, cfg);
    WalkPass(opts, os, stream);
    t.walk_s = spans.Close(id, stream.walks.size());
    t.walk_calls = stream.walks.size();
    if (os.cache.total_lines() - lines_before != t.lines) {
      return Mismatch("walk-only replay lines", os.cache.total_lines() - lines_before, t.lines);
    }
    if (os.cache.total_walks() - walks_before != t.walks) {
      return Mismatch("walk-only replay walks", os.cache.total_walks() - walks_before, t.walks);
    }
  }
  if (plan.kind != WorkloadKind::kMapChurn) {
    // Replay workloads unmap nothing; tearing the address spaces down times
    // the unmap path on their inputs.
    const auto blocks = MappedBlocks(input.snapshot, opts.subblock_factor);
    id = spans.Open("os.unmap", config.name, cfg);
    for (unsigned p = 0; p < nprocs; ++p) {
      for (const Vpn first : blocks[p]) {
        spaces[p]->UnmapRange(first, opts.subblock_factor);
      }
    }
    t.unmap_pages = input.snapshot.TotalPages();
    t.unmap_s = spans.Close(id, t.unmap_pages);
    for (unsigned p = 0; p < nprocs; ++p) {
      if (spaces[p]->resident_pages() != 0) {
        return Mismatch("pages resident after teardown", spaces[p]->resident_pages(), 0);
      }
    }
  }
  spans.Close(cfg, t.refs);
  totals.Add(t);
  return "";
}

}  // namespace perfbench
