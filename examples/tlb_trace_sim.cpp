// Full-machine trace simulation: run any paper workload on any page table
// and TLB configuration from the command line.
//
//   $ build/examples/tlb_trace_sim [workload] [pt] [tlb] [refs]
//   $ build/examples/tlb_trace_sim coral clustered complete-subblock 1000000
//
// `refs` is an integer in [0, 100000000]; 0 (or omitting it) runs the
// workload's default trace length.  Anything else exits 2.
//
// Prints TLB statistics, cache-lines-per-miss, page-table sizes, and the
// OS's block census — the full set of quantities behind Figures 9-11.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/parse.h"
#include "sim/experiments.h"
#include "sim/machine.h"
#include "workload/workload.h"

using namespace cpt;

namespace {

sim::PtKind ParsePt(const std::string& s) {
  if (s == "linear" || s == "linear-1level") return sim::PtKind::kLinear1;
  if (s == "linear-6level") return sim::PtKind::kLinear6;
  if (s == "forward") return sim::PtKind::kForward;
  if (s == "hashed") return sim::PtKind::kHashed;
  if (s == "hashed-multi") return sim::PtKind::kHashedMulti;
  if (s == "hashed-spindex") return sim::PtKind::kHashedSpIndex;
  if (s == "clustered") return sim::PtKind::kClustered;
  std::fprintf(stderr, "unknown page table '%s'\n", s.c_str());
  std::exit(1);
}

sim::TlbKind ParseTlb(const std::string& s) {
  if (s == "single" || s == "single-page") return sim::TlbKind::kSinglePage;
  if (s == "superpage") return sim::TlbKind::kSuperpage;
  if (s == "partial-subblock" || s == "psb") return sim::TlbKind::kPartialSubblock;
  if (s == "complete-subblock" || s == "csb") return sim::TlbKind::kCompleteSubblock;
  std::fprintf(stderr, "unknown TLB '%s'\n", s.c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string workload = argc > 1 ? argv[1] : "coral";
  sim::MachineOptions opts;
  opts.pt_kind = argc > 2 ? ParsePt(argv[2]) : sim::PtKind::kClustered;
  opts.tlb_kind = argc > 3 ? ParseTlb(argv[3]) : sim::TlbKind::kSinglePage;
  const std::uint64_t refs =
      argc > 4 ? ParseU64OrExit("refs", argv[4], 0, sim::kMaxTraceLength) : 0;

  const workload::WorkloadSpec& spec = workload::GetPaperWorkload(workload);
  const workload::Snapshot snapshot = workload::BuildSnapshot(spec);
  sim::Machine machine(opts, static_cast<unsigned>(spec.processes.size()));
  machine.Preload(snapshot);

  const std::uint64_t n = refs != 0 ? refs : spec.default_trace_length;
  workload::TraceGenerator gen(spec, snapshot);
  for (std::uint64_t i = 0; i < n; ++i) {
    const workload::Reference r = gen.Next();
    machine.Access(r.asid, r.va);
  }

  const auto& tlb = machine.tlb().stats();
  std::printf("workload:   %s (%zu process(es), %llu mapped pages)\n", spec.name.c_str(),
              spec.processes.size(), (unsigned long long)snapshot.TotalPages());
  std::printf("config:     pt=%s  tlb=%s  entries=%u  buckets=%u  line=%uB\n",
              sim::ToString(opts.pt_kind).c_str(), sim::ToString(opts.tlb_kind).c_str(),
              opts.tlb_entries, opts.num_buckets, opts.line_size);
  std::printf("trace:      %llu references\n\n", (unsigned long long)n);
  std::printf("TLB:        hits=%llu misses=%llu (%.3f%%)", (unsigned long long)tlb.hits,
              (unsigned long long)tlb.misses, 100.0 * tlb.MissRatio());
  if (opts.tlb_kind == sim::TlbKind::kCompleteSubblock) {
    std::printf("  block=%llu subblock=%llu", (unsigned long long)tlb.block_misses,
                (unsigned long long)tlb.subblock_misses);
  }
  std::printf("\nwalk cost:  %.3f cache lines per TLB miss (normalized to 64-entry TLB)\n",
              machine.AvgLinesPerMiss());
  std::printf("page table: %llu bytes (paper model), %llu bytes (allocated)\n",
              (unsigned long long)machine.TotalPtBytesPaperModel(),
              (unsigned long long)machine.TotalPtBytesActual());

  os::AddressSpace::BlockCensus census;
  std::uint64_t promotions = 0;
  for (unsigned p = 0; p < machine.num_processes(); ++p) {
    const auto c = machine.address_space(p).Census();
    census.base_blocks += c.base_blocks;
    census.super_blocks += c.super_blocks;
    census.psb_blocks += c.psb_blocks;
    census.mixed_blocks += c.mixed_blocks;
    promotions += machine.address_space(p).stats().promotions;
  }
  std::printf("OS blocks:  base=%llu superpage=%llu psb=%llu mixed=%llu (promotions=%llu)\n",
              (unsigned long long)census.base_blocks, (unsigned long long)census.super_blocks,
              (unsigned long long)census.psb_blocks, (unsigned long long)census.mixed_blocks,
              (unsigned long long)promotions);
  return 0;
}
