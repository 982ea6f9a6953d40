// The three workloads: their configurations, their seeded inputs, and how
// one configuration runs on a sim::Machine.
#include <algorithm>
#include <chrono>
#include <cmath>

#include "bench.h"
#include "common/rng.h"
#include "sim/experiments.h"

namespace perfbench {

using cpt::Vpn;
using sim::PtKind;
using sim::TlbKind;

namespace {

double Since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Re-draws a spec seed for a non-default benchmark seed.
std::uint64_t MixSeed(std::uint64_t spec_seed, std::uint64_t seed) {
  if (seed == kDefaultSeed) {
    return spec_seed;
  }
  cpt::Rng rng(spec_seed * 0x9E3779B97F4A7C15ull ^ seed);
  return rng.Next();
}

// A sparse 64-bit address space: `procs` processes x `segs` segments, each
// segment at a distinct random 1GB-aligned slot below 2^47, referenced in a
// random pattern with no reuse of a page before moving on (sojourn 1).
workload::WorkloadSpec SparseSpec(std::string name, std::uint64_t spec_seed, unsigned procs,
                                  unsigned segs, std::uint64_t target_pages, double density,
                                  double burst_mean) {
  constexpr unsigned kSlotShift = 18;  // 2^18 pages = 1GB per slot.
  constexpr std::uint64_t kSlots = std::uint64_t{1} << (47 - 12 - kSlotShift);
  workload::WorkloadSpec spec;
  spec.name = std::move(name);
  spec.seed = spec_seed;
  const std::uint64_t span = std::max<std::uint64_t>(
      16, static_cast<std::uint64_t>(std::llround(static_cast<double>(target_pages) /
                                                  (procs * segs * density))));
  cpt::Rng rng(spec_seed ^ 0x5EEDull);
  std::vector<std::uint64_t> used;
  for (unsigned p = 0; p < procs; ++p) {
    workload::ProcessSpec proc;
    proc.name = spec.name + "-" + std::to_string(p);
    for (unsigned s = 0; s < segs; ++s) {
      std::uint64_t slot = 0;
      do {
        slot = rng.Range(1, kSlots - 1);
      } while (std::find(used.begin(), used.end(), slot) != used.end());
      used.push_back(slot);
      workload::Segment seg;
      seg.base = cpt::VaOf(Vpn{slot << kSlotShift});
      seg.span_pages = span;
      seg.density = density;
      seg.burst_mean = burst_mean;
      seg.pattern = workload::AccessPattern::kRandom;
      seg.sojourn_mean = 1.0;
      seg.kind = workload::SegmentKind::kHeap;
      proc.segments.push_back(seg);
    }
    spec.processes.push_back(std::move(proc));
  }
  return spec;
}

workload::WorkloadSpec PaperSpec(const std::string& name, std::uint64_t seed) {
  workload::WorkloadSpec spec = workload::GetPaperWorkload(name);
  spec.seed = MixSeed(spec.seed, seed);
  return spec;
}

// Figure 11a-d: TLB design x page-table series, exactly as bench_fig11a-d.
struct Fig11Design {
  const char* name;
  TlbKind tlb;
  std::vector<std::pair<const char*, PtKind>> series;
};
const std::vector<Fig11Design>& Fig11Designs() {
  static const std::vector<Fig11Design> kDesigns = {
      {"fig11a",
       TlbKind::kSinglePage,
       {{"linear", PtKind::kLinear1},
        {"fwd-mapped", PtKind::kForward},
        {"hashed", PtKind::kHashed},
        {"clustered", PtKind::kClustered}}},
      {"fig11b",
       TlbKind::kSuperpage,
       {{"linear", PtKind::kLinear1},
        {"fwd-mapped", PtKind::kForward},
        {"hashed-2tbl", PtKind::kHashedMulti},
        {"clustered", PtKind::kClustered}}},
      {"fig11c",
       TlbKind::kPartialSubblock,
       {{"linear", PtKind::kLinear1},
        {"fwd-mapped", PtKind::kForward},
        {"hashed-2tbl", PtKind::kHashedMulti},
        {"clustered", PtKind::kClustered}}},
      {"fig11d",
       TlbKind::kCompleteSubblock,
       {{"linear", PtKind::kLinear1},
        {"fwd-mapped", PtKind::kForward},
        {"hashed", PtKind::kHashed},
        {"clustered", PtKind::kClustered}}},
  };
  return kDesigns;
}

// Figures 9 and 10: every distinct (organization, PTE strategy) pair.
struct SizeConfig {
  const char* name;
  PtKind pt;
  cpt::os::PteStrategy strategy;
};
const std::vector<SizeConfig>& SizeConfigs() {
  using cpt::os::PteStrategy;
  static const std::vector<SizeConfig> kConfigs = {
      {"linear-6level", PtKind::kLinear6, PteStrategy::kBaseOnly},
      {"linear-1level", PtKind::kLinear1, PteStrategy::kBaseOnly},
      {"forward-mapped", PtKind::kForward, PteStrategy::kBaseOnly},
      {"hashed", PtKind::kHashed, PteStrategy::kBaseOnly},
      {"clustered", PtKind::kClustered, PteStrategy::kBaseOnly},
      {"clustered-adaptive", PtKind::kClusteredAdaptive, PteStrategy::kBaseOnly},
      {"clustered+SP", PtKind::kClustered, PteStrategy::kSuperpage},
      {"clustered+PSB", PtKind::kClustered, PteStrategy::kPartialSubblock},
      {"hashed+SP", PtKind::kHashedMulti, PteStrategy::kSuperpage},
  };
  return kConfigs;
}

constexpr PtKind kAllPtKinds[] = {
    PtKind::kLinear6,       PtKind::kLinear1,   PtKind::kLinearHashed,
    PtKind::kForward,       PtKind::kHashed,    PtKind::kHashedMulti,
    PtKind::kHashedSpIndex, PtKind::kClustered, PtKind::kClusteredAdaptive,
    PtKind::kHashedInverted,
};

bool IsChurnBlock(const Input& input, std::size_t proc, Vpn first) {
  const auto& blocks = input.churn_blocks[proc];
  return std::binary_search(blocks.begin(), blocks.end(), first);
}

}  // namespace

const std::vector<WorkloadInfo>& Workloads() {
  static const std::vector<WorkloadInfo> kWorkloads = {
      {"paper-fig11", WorkloadKind::kPaperFig11, 50'000, 6'000'000,
       "references per configuration"},
      {"miss-storm", WorkloadKind::kMissStorm, 400'000, 10'000'000,
       "references per configuration"},
      {"map-churn", WorkloadKind::kMapChurn, 40'000, 1'000'000,
       "mapped pages per seeded snapshot"},
  };
  return kWorkloads;
}

Plan MakePlan(WorkloadKind kind, std::uint64_t seed, std::uint64_t length) {
  Plan plan;
  plan.kind = kind;
  plan.length = length;
  switch (kind) {
    case WorkloadKind::kPaperFig11: {
      for (const std::string& name : sim::TraceWorkloadNames()) {
        plan.inputs.push_back(PaperSpec(name, seed));
      }
      for (const Fig11Design& design : Fig11Designs()) {
        for (std::size_t i = 0; i < plan.inputs.size(); ++i) {
          for (const auto& [label, pt] : design.series) {
            Config c;
            c.name = std::string(design.name) + "/" + label + "/" + plan.inputs[i].name;
            c.input = i;
            c.opts.pt_kind = pt;
            c.opts.tlb_kind = design.tlb;
            plan.configs.push_back(std::move(c));
          }
        }
      }
      break;
    }
    case WorkloadKind::kMissStorm: {
      // 16 TLB entries: linear tables reserve 8, so it must hold more.
      // About 40k pages: page tables small enough that other tenants' memory
      // traffic moves the host time less, still far beyond the TLB's reach.
      plan.inputs.push_back(SparseSpec("storm", MixSeed(0x57024D, seed), 4, 8, 40'000, 0.3, 16.0));
      for (const PtKind pt : kAllPtKinds) {
        Config c;
        c.name = sim::ToString(pt) + "/storm";
        c.opts.pt_kind = pt;
        c.opts.tlb_kind = TlbKind::kSinglePage;
        c.opts.tlb_entries = 16;
        plan.configs.push_back(std::move(c));
      }
      break;
    }
    case WorkloadKind::kMapChurn: {
      for (const std::string& name : sim::AllWorkloadNames()) {
        plan.inputs.push_back(PaperSpec(name, seed));
      }
      // Long bursts fill whole blocks (promotions, demotions); short ones
      // leave them ragged (base and partial-subblock PTEs).  Several modest
      // snapshots carry the volume: one configuration's page tables then
      // stay small enough that other tenants' cache and memory traffic moves
      // the host time less.
      for (std::uint64_t i = 0; i < 2; ++i) {
        const std::string n = std::to_string(i);
        plan.inputs.push_back(SparseSpec("sparse-dense-" + n, MixSeed(0xC4A201 + 2 * i, seed), 4,
                                         8, length, 0.5, 64.0));
        plan.inputs.push_back(SparseSpec("sparse-ragged-" + n, MixSeed(0xC4A202 + 2 * i, seed),
                                         2, 16, length, 0.25, 6.0));
      }
      for (std::size_t i = 0; i < plan.inputs.size(); ++i) {
        for (const SizeConfig& size : SizeConfigs()) {
          Config c;
          c.name = std::string(size.name) + "/" + plan.inputs[i].name;
          c.input = i;
          c.opts.pt_kind = size.pt;
          c.opts.tlb_kind = TlbKind::kSinglePage;
          c.opts.strategy = size.strategy;
          plan.configs.push_back(std::move(c));
        }
      }
      break;
    }
  }
  return plan;
}

Input BuildInput(const workload::WorkloadSpec& spec, WorkloadKind kind) {
  Input input;
  input.snapshot = workload::BuildSnapshot(spec);
  if (kind != WorkloadKind::kMapChurn) {
    return input;
  }
  // A seeded half of each process's mapped blocks, and every 16th mapped
  // page for the sweep.
  cpt::Rng rng(spec.seed ^ 0xC4A2Full);
  input.churn_blocks.resize(spec.processes.size());
  input.sweep.resize(spec.processes.size());
  for (std::size_t p = 0; p < spec.processes.size(); ++p) {
    const std::vector<Vpn> flat = input.snapshot.FlatProcess(p);
    for (std::size_t i = 0; i < flat.size(); i += 16) {
      input.sweep[p].push_back(flat[i]);
    }
    Vpn last{~std::uint64_t{0}};
    for (const Vpn vpn : flat) {
      const Vpn first = BlockStart(vpn, cpt::kDefaultSubblockFactor);
      if (first != last) {
        last = first;
        if (rng.Chance(0.5)) {
          input.churn_blocks[p].push_back(first);
        }
      }
    }
  }
  return input;
}

const std::vector<std::string>& CountFieldNames() {
  static const std::vector<std::string> kNames = {
      "tlb_misses", "block_misses", "subblock_misses", "denominator_misses", "walks",
      "lines",      "pt_bytes",     "mapped_pt_bytes", "unmapped_pages",     "replay_faults",
  };
  return kNames;
}

std::vector<std::uint64_t> CountFields(const Counts& c) {
  return {c.tlb_misses, c.block_misses,    c.subblock_misses, c.denominator_misses,
          c.walks,      c.lines,           c.pt_bytes,        c.mapped_pt_bytes,
          c.unmapped_pages, c.replay_faults};
}

std::uint64_t UnmapChurnBlocks(std::vector<cpt::os::AddressSpace*>& spaces, const Input& input,
                               unsigned subblock_factor) {
  std::uint64_t unmapped = 0;
  for (std::size_t p = 0; p < spaces.size(); ++p) {
    const std::uint64_t before = spaces[p]->resident_pages();
    for (const Vpn first : input.churn_blocks[p]) {
      spaces[p]->UnmapRange(first, subblock_factor);
    }
    unmapped += before - spaces[p]->resident_pages();
  }
  return unmapped;
}

void RemapChurnBlocks(std::vector<cpt::os::AddressSpace*>& spaces, const Input& input,
                      unsigned subblock_factor) {
  // Same page order as Machine::Preload, restricted to the churned blocks.
  for (std::size_t p = 0; p < spaces.size(); ++p) {
    for (const auto& seg_pages : input.snapshot.pages[p]) {
      for (const Vpn vpn : seg_pages) {
        if (IsChurnBlock(input, p, BlockStart(vpn, subblock_factor))) {
          spaces[p]->TouchPage(cpt::VaOf(vpn));
        }
      }
    }
  }
}

std::vector<workload::Reference> MakeTrace(const Plan& plan, const Config& config,
                                           const Input& input) {
  if (plan.kind != WorkloadKind::kMapChurn) {
    workload::TraceGenerator gen(plan.inputs[config.input], input.snapshot);
    return gen.Generate(plan.length);
  }
  std::vector<workload::Reference> trace;
  for (std::size_t p = 0; p < input.sweep.size(); ++p) {
    for (const Vpn vpn : input.sweep[p]) {
      trace.push_back({.asid = static_cast<cpt::tlb::Asid>(p), .va = cpt::VaOf(vpn)});
    }
  }
  return trace;
}

MachineRun RunOnMachine(const Plan& plan, const Config& config, const Input& input,
                        const std::vector<workload::Reference>* trace, obs::WalkTracer* tracer,
                        cpt::check::AuditReport* audit) {
  const workload::WorkloadSpec& spec = plan.inputs[config.input];
  const auto nprocs = static_cast<unsigned>(spec.processes.size());
  MachineRun run;
  Times& t = run.times;

  auto start = std::chrono::steady_clock::now();
  sim::Machine machine(config.opts, nprocs);
  t.ctor_s = Since(start);
  start = std::chrono::steady_clock::now();
  machine.Preload(input.snapshot);
  t.preload_s = Since(start);
  t.map_ops = input.snapshot.TotalPages();
  run.counts.mapped_pt_bytes = machine.TotalPtBytesPaperModel();

  if (plan.kind == WorkloadKind::kMapChurn) {
    std::vector<cpt::os::AddressSpace*> spaces;
    for (unsigned p = 0; p < nprocs; ++p) {
      spaces.push_back(&machine.address_space(p));
    }
    const unsigned factor = config.opts.subblock_factor;
    start = std::chrono::steady_clock::now();
    run.counts.unmapped_pages = UnmapChurnBlocks(spaces, input, factor);
    t.unmap_s = Since(start);
    start = std::chrono::steady_clock::now();
    RemapChurnBlocks(spaces, input, factor);
    t.remap_s = Since(start);
    t.map_ops += 2 * run.counts.unmapped_pages;
  }

  const std::uint64_t faults_before = machine.TotalPageFaults();
  machine.AttachTracer(tracer);
  start = std::chrono::steady_clock::now();
  if (trace != nullptr) {
    for (const workload::Reference& ref : *trace) {
      machine.Access(ref.asid, ref.va);
    }
    t.refs = trace->size();
  } else if (plan.kind == WorkloadKind::kMapChurn) {
    for (unsigned p = 0; p < nprocs; ++p) {
      for (const Vpn vpn : input.sweep[p]) {
        machine.Access(static_cast<cpt::tlb::Asid>(p), cpt::VaOf(vpn));
        ++t.refs;
      }
    }
  } else {
    // The replay loop of sim::MeasureAccessTime.
    workload::TraceGenerator gen(spec, input.snapshot);
    for (std::uint64_t i = 0; i < plan.length; ++i) {
      const workload::Reference ref = gen.Next();
      machine.Access(ref.asid, ref.va);
    }
    t.refs = plan.length;
  }
  t.replay_s = Since(start);
  machine.AttachTracer(nullptr);

  Counts& c = run.counts;
  const cpt::tlb::TlbStats& stats = machine.tlb().stats();
  c.tlb_misses = stats.misses;
  c.block_misses = stats.block_misses;
  c.subblock_misses = stats.subblock_misses;
  c.denominator_misses = machine.DenominatorMisses();
  c.walks = machine.cache().total_walks();
  c.lines = machine.cache().total_lines();
  c.pt_bytes = machine.TotalPtBytesPaperModel();
  c.replay_faults = machine.TotalPageFaults() - faults_before;
  run.grants = machine.frames().grants();
  run.placed_grants = machine.frames().properly_placed_grants();
  if (audit != nullptr) {
    start = std::chrono::steady_clock::now();
    *audit = machine.AuditAll();
    t.audit_s = Since(start);
  }
  return run;
}

double Table1ErrorPct() {
  double sum = 0;
  std::size_t n = 0;
  for (const workload::PaperReference& ref : workload::PaperTable1()) {
    if (ref.name == "kernel") {
      continue;  // Table 1 has no trace for the kernel; Figure 11 skips it too.
    }
    const workload::WorkloadSpec& spec = workload::GetPaperWorkload(ref.name);
    sim::MachineOptions opts;
    opts.pt_kind = PtKind::kHashed;
    opts.tlb_kind = TlbKind::kSinglePage;
    sim::Machine machine(opts, static_cast<unsigned>(spec.processes.size()));
    machine.Preload(workload::BuildSnapshot(spec));
    const double bytes = static_cast<double>(machine.TotalPtBytesPaperModel());
    const double paper = static_cast<double>(ref.hashed_pt_bytes);
    sum += std::fabs(bytes - paper) / paper;
    ++n;
  }
  return 100.0 * sum / static_cast<double>(n);
}

}  // namespace perfbench
