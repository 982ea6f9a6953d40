// Figure 9: page-table size for single-page-size page tables, normalized to
// hashed page-table size, across all workloads.
//
// Series (as in the paper): linear 6-level, linear 1-level, forward-mapped,
// hashed (the 1.0 reference), clustered (subblock factor 16).
#include <cstdio>

#include "bench/bench_flags.h"
#include "sim/experiments.h"
#include "sim/report.h"
#include "workload/workload.h"

using namespace cpt;
using sim::PtKind;
using sim::Report;

int main(int argc, char** argv) {
  bench::BenchIo io("bench_fig9", argc, argv);
  std::printf("=== Figure 9: page table size, single page size (normalized to hashed) ===\n\n");

  const sim::SizeConfig kConfigs[] = {
      {"linear-6level", PtKind::kLinear6, os::PteStrategy::kBaseOnly},
      {"linear-1level", PtKind::kLinear1, os::PteStrategy::kBaseOnly},
      {"forward-mapped", PtKind::kForward, os::PteStrategy::kBaseOnly},
      {"hashed", PtKind::kHashed, os::PteStrategy::kBaseOnly},
      {"clustered", PtKind::kClustered, os::PteStrategy::kBaseOnly},
      // Extension: Section 3's varying-subblock-factor generalization.
      {"clustered-adaptive", PtKind::kClusteredAdaptive, os::PteStrategy::kBaseOnly},
  };

  Report report({"workload", "hashed-KB", "linear-6lvl", "linear-1lvl", "fwd-mapped", "hashed",
                 "clustered", "adaptive"});
  for (const std::string& name : sim::AllWorkloadNames()) {
    const workload::WorkloadSpec& spec = workload::GetPaperWorkload(name);
    std::vector<std::string> row = {name};
    std::string hashed_kb;
    std::vector<std::string> cells;
    for (const sim::SizeConfig& config : kConfigs) {
      const sim::SizeMeasurement m = sim::MeasurePtSize(spec, config);
      io.RecordSize(config.label, m);
      cells.push_back(Report::Fixed(m.normalized, 2));
      hashed_kb = Report::Kb(m.hashed_bytes);
    }
    row.push_back(hashed_kb);
    row.insert(row.end(), cells.begin(), cells.end());
    report.AddRow(std::move(row));
  }
  io.RecordTable("Figure 9: page table size, single page size", report);
  report.Print();
  std::printf(
      "\nExpected shape (paper): clustered < 1.0 everywhere and <= the best\n"
      "conventional table; linear-6level explodes (>5) for sparse gcc/compress;\n"
      "linear-1level competitive only for dense workloads.\n");
  return 0;
}
