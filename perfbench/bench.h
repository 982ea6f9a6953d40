// Shared declarations of the repository benchmark (perfbench/README.md).
//
// The benchmark drives the simulator only through its public entry points:
// workload::BuildSnapshot / TraceGenerator, sim::Machine construction /
// Preload / Access, and os::AddressSpace::TouchPage / UnmapRange.  A
// workload is a fixed list of configurations; one *pass* runs every
// configuration once, and a run repeats passes until its time is up.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "check/auditor.h"
#include "sim/machine.h"
#include "workload/workload.h"

namespace perfbench {

namespace obs = cpt::obs;
namespace sim = cpt::sim;
namespace workload = cpt::workload;

enum class WorkloadKind : std::uint8_t { kPaperFig11, kMissStorm, kMapChurn };

struct WorkloadInfo {
  const char* name;
  WorkloadKind kind;
  std::uint64_t default_length;
  std::uint64_t max_length;
  const char* length_unit;
};

// The three workloads, in the order README.md lists them.
const std::vector<WorkloadInfo>& Workloads();

// Seeds map onto workload specs: kDefaultSeed keeps the paper specs' own
// seeds, any other seed re-draws every spec (and every seeded snapshot).
inline constexpr std::uint64_t kDefaultSeed = 1;

// One configuration: an input (a workload spec, whose snapshot each pass
// rebuilds) replayed on one machine configuration.
struct Config {
  std::string name;
  std::size_t input = 0;
  sim::MachineOptions opts;
};

struct Plan {
  WorkloadKind kind = WorkloadKind::kPaperFig11;
  // References per replay configuration (paper-fig11, miss-storm), or the
  // target mapped pages of each seeded snapshot (map-churn).
  std::uint64_t length = 0;
  std::vector<workload::WorkloadSpec> inputs;
  std::vector<Config> configs;
};

Plan MakePlan(WorkloadKind kind, std::uint64_t seed, std::uint64_t length);

// First VPN of the aligned block of `factor` pages holding `vpn`.
inline cpt::Vpn BlockStart(cpt::Vpn vpn, unsigned factor) {
  return cpt::FirstVpnOfBlock(cpt::VpbnOf(vpn, factor), factor);
}

// An input as one pass uses it: the snapshot, plus (map-churn) per process,
// ascending, the first VPN of every block the churn unmaps and remaps, and
// the pages the sweep after the remap references: every 16th mapped page.
// The sweep proves the remap restored those translations (a missing page
// faults) while keeping TLB and walk work a small share of the workload.
struct Input {
  workload::Snapshot snapshot;
  std::vector<std::vector<cpt::Vpn>> churn_blocks;
  std::vector<std::vector<cpt::Vpn>> sweep;
};
Input BuildInput(const workload::WorkloadSpec& spec, WorkloadKind kind);

// The simulated answers of one configuration; a change that only speeds up
// the simulator must leave every field unchanged.
struct Counts {
  std::uint64_t tlb_misses = 0;
  std::uint64_t block_misses = 0;
  std::uint64_t subblock_misses = 0;
  std::uint64_t denominator_misses = 0;
  std::uint64_t walks = 0;
  std::uint64_t lines = 0;
  std::uint64_t pt_bytes = 0;         // Paper-model bytes at the end.
  std::uint64_t mapped_pt_bytes = 0;  // Paper-model bytes after Preload.
  std::uint64_t unmapped_pages = 0;   // map-churn only.
  std::uint64_t replay_faults = 0;

  friend bool operator==(const Counts&, const Counts&) = default;
};

// Field names and accessors, in golden-file column order.
const std::vector<std::string>& CountFieldNames();
std::vector<std::uint64_t> CountFields(const Counts& c);

// Host seconds of one configuration's phases on a Machine.
struct Times {
  double ctor_s = 0;
  double preload_s = 0;
  double unmap_s = 0;
  double remap_s = 0;
  double replay_s = 0;
  double audit_s = 0;  // AuditAll, outside every timed metric.
  std::uint64_t refs = 0;
  std::uint64_t map_ops = 0;  // Pages mapped (Preload + remap) and unmapped.
};

// Runs one configuration on a fresh Machine exactly as the timed pass does:
// construct, Preload, then replay (trace references generated inline, as in
// sim::MeasureAccessTime) or churn and sweep (map-churn).  `trace`, when
// given, replaces inline generation with pre-generated references; `tracer`
// is attached after Preload; `audit`, when given, receives AuditAll().
struct MachineRun {
  Counts counts;
  Times times;
  std::uint64_t grants = 0;
  std::uint64_t placed_grants = 0;
};
MachineRun RunOnMachine(const Plan& plan, const Config& config, const Input& input,
                        const std::vector<workload::Reference>* trace = nullptr,
                        obs::WalkTracer* tracer = nullptr,
                        cpt::check::AuditReport* audit = nullptr);

// The references a configuration replays: `plan.length` trace references
// (replay workloads) or map-churn's sweep over a sample of the mapped pages.
std::vector<workload::Reference> MakeTrace(const Plan& plan, const Config& config,
                                           const Input& input);

// The OS operations map-churn performs after Preload, shared by the Machine
// run and the traced run's layered os replay.  Returns pages unmapped.
std::uint64_t UnmapChurnBlocks(std::vector<cpt::os::AddressSpace*>& spaces, const Input& input,
                               unsigned subblock_factor);
void RemapChurnBlocks(std::vector<cpt::os::AddressSpace*>& spaces, const Input& input,
                      unsigned subblock_factor);

// Paper-model hashed page-table bytes of the ten trace workloads at the paper
// specs' seeds, and their mean relative error (%) against Table 1.
double Table1ErrorPct();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
