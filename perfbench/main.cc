// perfbench: the repository benchmark's driver (see perfbench/README.md).
//
//   perfbench --workload <paper-fig11|miss-storm|map-churn> [--seed <n>]
//             [--length <n>] [--seconds <n>] [--trace <0|1>] [--spans <path>]
//   perfbench --workload <name> --write-golden
//   perfbench --check-fig11 [--length <n>]
//
// A run repeats timed passes over the workload's configurations until
// --seconds have passed and prints each end-to-end metric (median over
// passes) by name and unit.  --trace 1 spends the first third of the time on
// timed passes and the rest on traced passes, and prints per-layer metrics.
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Timing uses std::chrono::steady_clock and getrusage only.
//
// Exit codes: 0 ran (failed configurations are counted, not fatal); 1 the
// golden file is missing or the traced run's layered counts differ from the
// Machine's; 2 a malformed argument.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "layers.h"
#include "sim/experiments.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[noreturn]] void Usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <paper-fig11|miss-storm|map-churn> [--seed <n>]\n"
               "                 [--length <n>] [--seconds <n>] [--trace <0|1>] [--spans <path>]\n"
               "       perfbench --workload <name> --write-golden\n"
               "       perfbench --check-fig11 [--length <n>]\n",
               message.c_str());
  std::exit(2);
}

// A whole number in [lo, hi], written as decimal digits only: no sign,
// exponent, fraction or surrounding text.
std::uint64_t ParseWhole(std::string_view flag, std::string_view text, std::uint64_t lo,
                         std::uint64_t hi) {
  std::uint64_t value = 0;
  const bool digits = !text.empty() && std::all_of(text.begin(), text.end(), [](char ch) {
    return ch >= '0' && ch <= '9';
  });
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (!digits || ec != std::errc() || end != text.data() + text.size() || value < lo ||
      value > hi) {
    Usage(std::string(flag) + ": '" + std::string(text) + "' is not a whole number in [" +
          std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return value;
}

constexpr std::uint64_t kMaxSeconds = 600;

struct Args {
  const WorkloadInfo* workload = nullptr;
  std::uint64_t seed = kDefaultSeed;
  std::uint64_t length = 0;  // 0: the workload's default.
  std::uint64_t seconds = 10;
  bool trace = false;
  std::string spans;
  bool write_golden = false;
  bool check_fig11 = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  std::string_view length_text;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--write-golden") {
      args.write_golden = true;
      continue;
    }
    if (flag == "--check-fig11") {
      args.check_fig11 = true;
      continue;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--length" && flag != "--seconds" &&
        flag != "--trace" && flag != "--spans") {
      Usage("unknown argument '" + std::string(flag) + "'");
    }
    if (i + 1 == argc) {
      Usage(std::string(flag) + ": missing value");
    }
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      for (const WorkloadInfo& w : Workloads()) {
        if (value == w.name) {
          args.workload = &w;
        }
      }
      if (args.workload == nullptr) {
        Usage("--workload: unknown workload '" + std::string(value) +
              "' (expected paper-fig11, miss-storm or map-churn)");
      }
    } else if (flag == "--seed") {
      args.seed = ParseWhole(flag, value, 0, std::numeric_limits<std::uint64_t>::max());
    } else if (flag == "--length") {
      length_text = value;
    } else if (flag == "--seconds") {
      args.seconds = ParseWhole(flag, value, 1, kMaxSeconds);
    } else if (flag == "--trace") {
      args.trace = ParseWhole(flag, value, 0, 1) == 1;
    } else {
      args.spans = value;
    }
  }
  if (args.check_fig11) {
    args.workload = &Workloads()[0];
  }
  if (args.workload == nullptr) {
    Usage("--workload: missing");
  }
  if (!length_text.empty()) {
    args.length = ParseWhole("--length", length_text, 1, args.workload->max_length);
  }
  return args;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

std::string Num(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ---- Timed passes ----

struct PassResult {
  double wall_s = 0;   // The whole pass, audits excluded.
  double setup_s = 0;  // Input builds, Machine construction and Preload.
  double replay_s = 0;
  double map_s = 0;    // Preload, unmap, remap.
  double audit_s = 0;  // Outside every timed metric and the run's budget.
  std::uint64_t refs = 0;
  std::uint64_t map_ops = 0;
  std::vector<Counts> counts;
};

// Runs every configuration once.  AuditAll runs, outside the timed region,
// when `audits` is given.
PassResult TimedPass(const Plan& plan, std::vector<cpt::check::AuditReport>* audits) {
  PassResult r;
  const auto start = Clock::now();
  std::vector<Input> inputs;
  for (const workload::WorkloadSpec& spec : plan.inputs) {
    const auto t = Clock::now();
    inputs.push_back(BuildInput(spec, plan.kind));
    r.setup_s += Since(t);
  }
  for (const Config& config : plan.configs) {
    cpt::check::AuditReport audit;
    const MachineRun run = RunOnMachine(plan, config, inputs[config.input], nullptr, nullptr,
                                        audits != nullptr ? &audit : nullptr);
    r.audit_s += run.times.audit_s;
    r.setup_s += run.times.ctor_s + run.times.preload_s;
    r.replay_s += run.times.replay_s;
    r.map_s += run.times.preload_s + run.times.unmap_s + run.times.remap_s;
    r.refs += run.times.refs;
    r.map_ops += run.times.map_ops;
    r.counts.push_back(run.counts);
    if (audits != nullptr) {
      audits->push_back(std::move(audit));
    }
  }
  r.wall_s = Since(start) - r.audit_s;
  return r;
}

// ---- Golden counts ----

std::string GoldenPath(const WorkloadInfo& w) {
  return std::string(PERFBENCH_GOLDEN_DIR) + "/" + w.name + ".tsv";
}

void WriteGolden(const WorkloadInfo& w, const Plan& plan, const std::vector<Counts>& counts) {
  std::ofstream os(GoldenPath(w));
  os << "# perfbench golden counts: workload " << w.name << ", seed " << kDefaultSeed
     << ", length " << plan.length << "\nconfig";
  for (const std::string& name : CountFieldNames()) {
    os << '\t' << name;
  }
  os << '\n';
  for (std::size_t i = 0; i < counts.size(); ++i) {
    os << plan.configs[i].name;
    for (const std::uint64_t v : CountFields(counts[i])) {
      os << '\t' << v;
    }
    os << '\n';
  }
  os.flush();
  if (!os) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", GoldenPath(w).c_str());
    std::exit(1);
  }
}

// config name -> fields, from the committed golden file.
std::vector<std::pair<std::string, std::vector<std::uint64_t>>> ReadGolden(
    const WorkloadInfo& w) {
  std::ifstream is(GoldenPath(w));
  if (!is) {
    std::fprintf(stderr, "perfbench: golden file %s is missing (perfbench --workload %s "
                 "--write-golden writes it)\n", GoldenPath(w).c_str(), w.name);
    std::exit(1);
  }
  std::vector<std::pair<std::string, std::vector<std::uint64_t>>> rows;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#' || line.rfind("config\t", 0) == 0) {
      continue;
    }
    std::istringstream fields(line);
    std::string name;
    std::getline(fields, name, '\t');
    std::vector<std::uint64_t> values;
    std::uint64_t v = 0;
    while (fields >> v) {
      values.push_back(v);
    }
    rows.emplace_back(std::move(name), std::move(values));
  }
  return rows;
}

// ---- Output ----

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void PrintResultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

// Per-layer metrics of one traced pass.
std::vector<Metric> LayerMetrics(const LayerTotals& t) {
  const auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double refs = static_cast<double>(t.refs);
  const double configs = static_cast<double>(t.configs);
  const double tlb_ns = per(t.tlb_s * 1e9, refs);
  const double access_ns = per(t.access_s * 1e9, refs);
  const double walk_ns_per_ref = per(t.walk_s * 1e9, refs);
  return {
      {"workload.trace_ns_per_ref", per(t.trace_s * 1e9, refs), "ns"},
      {"workload.snapshot_ms", per(t.snapshot_s * 1e3, static_cast<double>(t.snapshots)), "ms"},
      {"tlb.ns_per_ref", tlb_ns, "ns"},
      {"tlb.miss_ratio", per(static_cast<double>(t.tlb_misses), refs), "ratio"},
      {"tlb.misses", static_cast<double>(t.tlb_misses), "count"},
      {"pt.walk_ns_per_miss", per(t.walk_s * 1e9, static_cast<double>(t.walk_calls)), "ns"},
      {"pt.walks", static_cast<double>(t.walks), "count"},
      {"pt.lines_per_walk", per(static_cast<double>(t.lines), static_cast<double>(t.walks)),
       "lines"},
      {"os.map_ns_per_page", per(t.map_s * 1e9, static_cast<double>(t.map_pages)), "ns"},
      {"os.unmap_ns_per_page", per(t.unmap_s * 1e9, static_cast<double>(t.unmap_pages)), "ns"},
      {"os.replay_faults", static_cast<double>(t.replay_faults), "count"},
      {"mem.reservation_ctor_ms", per(t.reservation_ctor_s * 1e3, configs), "ms"},
      {"mem.grants", static_cast<double>(t.grants), "count"},
      {"mem.placed_ratio",
       per(static_cast<double>(t.placed_grants), static_cast<double>(t.grants)), "ratio"},
      {"sim.access_ns_per_ref", access_ns, "ns"},
      {"sim.other_ns_per_ref", access_ns - tlb_ns - walk_ns_per_ref, "ns"},
      {"sim.machine_ctor_ms", per(t.machine_ctor_s * 1e3, configs), "ms"},
      {"sim.preload_ms", per(t.preload_s * 1e3, configs), "ms"},
      {"obs.tracer_ns_per_ref", per((t.traced_access_s - t.access_s) * 1e9, refs), "ns"},
  };
}

// ---- Modes ----

int CheckFig11(const Args& args) {
  // The driver's paper-fig11 counts against sim::MeasureAccessTime, at the
  // paper specs' default trace lengths unless --length is given.
  Plan plan = MakePlan(WorkloadKind::kPaperFig11, kDefaultSeed, args.length);
  std::vector<Input> inputs;
  for (const workload::WorkloadSpec& spec : plan.inputs) {
    inputs.push_back(BuildInput(spec, plan.kind));
  }
  int mismatches = 0;
  for (const Config& config : plan.configs) {
    const workload::WorkloadSpec& spec = plan.inputs[config.input];
    Plan one = plan;
    one.length = args.length != 0 ? args.length : spec.default_trace_length;
    const Counts c = RunOnMachine(one, config, inputs[config.input]).counts;
    const sim::AccessMeasurement m = sim::MeasureAccessTime(spec, config.opts, one.length);
    const bool same = c.tlb_misses == m.effective_misses && c.block_misses == m.block_misses &&
                      c.subblock_misses == m.subblock_misses &&
                      c.denominator_misses == m.denominator_misses &&
                      c.pt_bytes == m.pt_bytes && c.replay_faults == m.page_faults &&
                      (c.denominator_misses == 0 ? 0.0
                                                 : static_cast<double>(c.lines) /
                                                       static_cast<double>(c.denominator_misses)) ==
                          m.avg_lines_per_miss;
    mismatches += same ? 0 : 1;
    std::printf(
        "{\"config\": \"%s\", \"trace_refs\": %llu, \"same_as_measure_access_time\": %s, "
        "\"effective_misses\": %llu, \"block_misses\": %llu, \"subblock_misses\": %llu, "
        "\"denominator_misses\": %llu, \"lines\": %llu, \"pt_bytes\": %llu, "
        "\"page_faults\": %llu}\n",
        config.name.c_str(), static_cast<unsigned long long>(one.length),
        same ? "true" : "false", static_cast<unsigned long long>(c.tlb_misses),
        static_cast<unsigned long long>(c.block_misses),
        static_cast<unsigned long long>(c.subblock_misses),
        static_cast<unsigned long long>(c.denominator_misses),
        static_cast<unsigned long long>(c.lines), static_cast<unsigned long long>(c.pt_bytes),
        static_cast<unsigned long long>(c.replay_faults));
    std::fflush(stdout);
  }
  std::fprintf(stderr, "perfbench: %d of %zu configurations differ from MeasureAccessTime\n",
               mismatches, plan.configs.size());
  return mismatches == 0 ? 0 : 1;
}

int Run(const Args& args) {
  const WorkloadInfo& w = *args.workload;
  const std::uint64_t length = args.length != 0 ? args.length : w.default_length;
  const Plan plan = MakePlan(w.kind, args.seed, length);
  const bool golden_run = args.seed == kDefaultSeed && length == w.default_length;

  if (args.write_golden) {
    if (!golden_run) {
      Usage("--write-golden: needs the default seed and length");
    }
    WriteGolden(w, plan, TimedPass(plan, nullptr).counts);
    std::printf("perfbench: wrote %s\n", GoldenPath(w).c_str());
    return 0;
  }

  std::printf("perfbench: workload %s, seed %llu, length %llu %s, %zu configurations\n", w.name,
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(length), w.length_unit, plan.configs.size());
  std::printf(
      "perfbench: host time from std::chrono::steady_clock and getrusage only; perf_event "
      "counters were not collected\n");

  const double table1_err = Table1ErrorPct();

  // The time budget counts passes, not the checks between them.  A traced
  // run spends a third of it on timed passes (for the tracing overhead), the
  // rest on traced passes.
  const auto run_start = Clock::now();
  double checks_s = 0;
  const double budget = static_cast<double>(args.seconds);
  const double timed_budget = args.trace ? budget / 3 : budget;

  // Pass 1 also audits every Machine and checks the golden counts; later
  // passes must repeat pass 1's counts exactly.
  std::vector<cpt::check::AuditReport> audits;
  std::vector<PassResult> passes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double longest = 0;
  while (passes.empty() || Since(run_start) - checks_s + longest <= timed_budget) {
    PassResult pass = TimedPass(plan, passes.empty() ? &audits : nullptr);
    longest = std::max(longest, pass.wall_s);
    checks_s += pass.audit_s;
    attempted += plan.configs.size();
    if (passes.empty()) {
      std::vector<std::pair<std::string, std::vector<std::uint64_t>>> golden;
      if (golden_run) {
        golden = ReadGolden(w);
      }
      for (std::size_t i = 0; i < plan.configs.size(); ++i) {
        std::string why;
        if (!audits[i].ok()) {
          why = "audit: " + audits[i].Summary();
        } else if (golden_run && (i >= golden.size() || golden[i].first != plan.configs[i].name ||
                                  golden[i].second != CountFields(pass.counts[i]))) {
          why = "counts differ from " + GoldenPath(w);
        }
        if (!why.empty()) {
          ++failed;
          std::printf("FAILED %s: %s\n", plan.configs[i].name.c_str(), why.c_str());
        }
      }
    } else {
      for (std::size_t i = 0; i < plan.configs.size(); ++i) {
        if (!(pass.counts[i] == passes.front().counts[i])) {
          ++failed;
          std::printf("FAILED %s: counts differ from the first pass\n",
                      plan.configs[i].name.c_str());
        }
      }
    }
    passes.push_back(std::move(pass));
  }

  std::vector<double> wall;
  std::vector<double> setup;
  std::vector<double> refs_per_s;
  std::vector<double> map_ops_per_s;
  for (const PassResult& p : passes) {
    std::printf("pass %zu: wall %.4f s, setup %.4f s, replay %.4f s, map/unmap %.4f s\n",
                wall.size() + 1, p.wall_s, p.setup_s, p.replay_s, p.map_s);
    wall.push_back(p.wall_s);
    setup.push_back(p.setup_s);
    refs_per_s.push_back(static_cast<double>(p.refs) / p.replay_s);
    map_ops_per_s.push_back(static_cast<double>(p.map_ops) / p.map_s);
  }
  const std::vector<Metric> end_to_end = {
      {"wall_s", Median(wall), "s"},
      {"refs_per_s", Median(refs_per_s), "1/s"},
      {"map_ops_per_s", Median(map_ops_per_s), "1/s"},
      {"setup_s", Median(setup), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"table1_err_pct", table1_err, "%"},
  };
  std::printf("perfbench: %zu timed passes; %llu references and %llu page map/unmap operations "
              "per pass\n",
              passes.size(), static_cast<unsigned long long>(passes.front().refs),
              static_cast<unsigned long long>(passes.front().map_ops));
  PrintMetrics("end-to-end (median over timed passes):", end_to_end);
  std::printf("  %-28s %14llu of %llu attempted\n", "failed_configs",
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));

  if (!args.trace) {
    PrintResultLine(failed == 0, attempted, failed, end_to_end);
    return 0;
  }

  SpanLog spans;
  std::vector<std::vector<Metric>> traced;
  std::vector<double> traced_wall;
  longest = 0;
  while (traced.empty() || Since(run_start) - checks_s + longest <= budget) {
    const auto pass_start = Clock::now();
    const std::uint64_t pass_span = spans.Open("pass", w.name, 0);
    LayerTotals totals;
    for (const Config& config : plan.configs) {
      const std::string mismatch = TraceConfig(plan, config, pass_span, spans, totals);
      if (!mismatch.empty()) {
        std::fprintf(stderr, "perfbench: traced run: %s: %s\n", config.name.c_str(),
                     mismatch.c_str());
        return 1;
      }
    }
    spans.Close(pass_span, totals.refs);
    traced_wall.push_back(Since(pass_start));
    longest = std::max(longest, traced_wall.back());
    traced.push_back(LayerMetrics(totals));
  }
  std::vector<Metric> layers = traced.front();
  for (std::size_t m = 0; m < layers.size(); ++m) {
    std::vector<double> values;
    for (const auto& pass : traced) {
      values.push_back(pass[m].value);
    }
    layers[m].value = Median(values);
  }
  const double overhead = Median(traced_wall) - Median(wall);
  layers.push_back({"trace_overhead_s", overhead, "s"});

  std::printf("perfbench: %zu traced passes; layered TLB misses, walks and lines equal the "
              "Machine's on every configuration\n",
              traced.size());
  PrintMetrics("per-layer (median over traced passes; pt time includes mem::CacheTouchModel, "
               "which cannot be timed apart from outside):",
               layers);
  if (!args.spans.empty()) {
    std::ofstream os(args.spans);
    spans.WriteJsonl(os);
    os.flush();
    if (!os) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n", args.spans.c_str());
      return 1;
    }
  }
  PrintResultLine(failed == 0, attempted, failed, layers);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  return args.check_fig11 ? perfbench::CheckFig11(args) : perfbench::Run(args);
}
