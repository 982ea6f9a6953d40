// The traced run: re-runs one configuration and times each layer's public
// calls in batches, from outside the simulator.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

// One timed batch of calls into a layer.  Spans are kept in memory and
// written out when the run ends.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: a root span.
  std::string name;          // "<layer>.<operation>", or "pass" / "config".
  std::string config;
  std::int64_t start_ns = 0;  // Since the span log was created.
  std::int64_t end_ns = 0;
  std::uint64_t work = 0;  // References, pages, walks, ... the batch did.
};

class SpanLog {
 public:
  SpanLog();
  // Opens a span now; Close() stamps its end and work.
  std::uint64_t Open(std::string name, std::string config, std::uint64_t parent);
  // Closes span `id` and returns its duration in seconds.
  double Close(std::uint64_t id, std::uint64_t work = 0);
  void WriteJsonl(std::ostream& os) const;

 private:
  std::int64_t Now() const;  // Nanoseconds since construction.

  std::int64_t origin_ns_;
  std::vector<Span> spans_;
};

// Per-layer host time and counts of one configuration (or, summed, a pass).
struct LayerTotals {
  std::uint64_t configs = 0;
  double snapshot_s = 0;
  std::uint64_t snapshots = 0;
  double trace_s = 0;
  std::uint64_t refs = 0;
  double reservation_ctor_s = 0;
  double machine_ctor_s = 0;
  double preload_s = 0;
  double access_s = 0;
  double traced_access_s = 0;
  double tlb_s = 0;
  std::uint64_t tlb_misses = 0;
  double walk_s = 0;
  std::uint64_t walk_calls = 0;  // Counted and uncounted walks replayed.
  std::uint64_t walks = 0;       // Counted walks.
  std::uint64_t lines = 0;
  double map_s = 0;
  std::uint64_t map_pages = 0;
  double unmap_s = 0;
  std::uint64_t unmap_pages = 0;
  std::uint64_t replay_faults = 0;
  std::uint64_t grants = 0;
  std::uint64_t placed_grants = 0;

  void Add(const LayerTotals& o);
};

// Runs the layered replay of one configuration and adds its times to
// `totals`.  Returns "" when the layered counts equal the Machine's, or a
// message naming what differed.
std::string TraceConfig(const Plan& plan, const Config& config, std::uint64_t pass_span,
                        SpanLog& spans, LayerTotals& totals);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
