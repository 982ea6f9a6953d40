// Tests for the telemetry layer (src/obs): JSON emission, the tracer
// implementations, and the end-to-end guarantee the benches rely on — that
// the events a Machine publishes agree with the simulated counters they
// mirror.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "common/stats.h"
#include "obs/json_writer.h"
#include "obs/perfetto.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "sim/machine.h"

namespace cpt::obs {
namespace {

// --- JsonWriter ----------------------------------------------------------

TEST(JsonWriterTest, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonWriter::Escape("plain"), "plain");
  EXPECT_EQ(JsonWriter::Escape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonWriter::Escape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonWriter::Escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(JsonWriter::Escape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
  // Multi-byte UTF-8 passes through untouched.
  EXPECT_EQ(JsonWriter::Escape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JsonWriterTest, CompactDocumentRoundTripsStructure) {
  std::ostringstream os;
  {
    JsonWriter w(os, /*pretty=*/false);
    w.BeginObject();
    w.KV("name", "chain \"walk\"");
    w.KV("count", std::uint64_t{42});
    w.KV("neg", std::int64_t{-7});
    w.KV("ratio", 0.5);
    w.KV("flag", true);
    w.Key("none");
    w.Null();
    w.Key("list");
    w.BeginArray();
    w.Uint(1);
    w.Uint(2);
    w.EndArray();
    w.EndObject();
    EXPECT_TRUE(w.Complete());
  }
  EXPECT_EQ(os.str(),
            "{\"name\":\"chain \\\"walk\\\"\",\"count\":42,\"neg\":-7,"
            "\"ratio\":0.5,\"flag\":true,\"none\":null,\"list\":[1,2]}");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  w.BeginArray();
  w.Double(std::nan(""));
  w.Double(std::numeric_limits<double>::infinity());
  w.EndArray();
  EXPECT_EQ(os.str(), "[null,null]");
}

TEST(JsonWriterTest, DoublesRoundTripThroughText) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  const double value = 1.0 / 3.0;
  w.BeginArray();
  w.Double(value);
  w.EndArray();
  // %.17g carries enough digits that parsing the text recovers the bits.
  std::string text = os.str();
  text = text.substr(1, text.size() - 2);
  EXPECT_EQ(std::stod(text), value);
}

TEST(JsonWriterTest, CompleteOnlyAfterAllContainersClose) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  EXPECT_FALSE(w.Complete());
  w.BeginObject();
  EXPECT_FALSE(w.Complete());
  w.EndObject();
  EXPECT_TRUE(w.Complete());
}

// --- Histogram / RunningStats (satellite hardening) ----------------------

TEST(HistogramTest, OverflowSamplesAreClampedNotAllocated) {
  Histogram h(/*max_buckets=*/8);
  h.Add(3);
  h.Add(1'000'000);  // Must not allocate a million buckets.
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(3), 1u);
  EXPECT_EQ(h.count(1'000'000), 0u);
  EXPECT_LE(h.max_value(), 7u);
  EXPECT_EQ(h.max_seen(), 1'000'000u);
  // Overflow samples still contribute to the mean.
  EXPECT_DOUBLE_EQ(h.mean(), (3.0 + 1'000'000.0) / 2.0);
}

TEST(RunningStatsTest, WelfordVarianceMatchesClosedForm) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, DegenerateCountsAreZero) {
  RunningStats s;
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

// --- RingBufferTracer ----------------------------------------------------

WalkEvent StepEvent(std::uint64_t vpn) {
  return {.kind = EventKind::kWalkStep, .vpn = Vpn{vpn}, .step = 1, .lines = 1};
}

TEST(RingBufferTracerTest, OverflowKeepsNewestOldestFirst) {
  RingBufferTracer ring(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    ring.Record(StepEvent(i));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 2u);
  EXPECT_EQ(ring.total_recorded(), 6u);
  EXPECT_EQ(ring.counts()[EventKind::kWalkStep], 6u)
      << "counts cover dropped events too";
  const auto events = ring.Events();
  ASSERT_EQ(events.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].vpn, Vpn{i + 2}) << "oldest surviving event first";
  }
}

TEST(RingBufferTracerTest, ClearResetsEverything) {
  RingBufferTracer ring(2);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ring.Record(StepEvent(i));
  }
  ring.Clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.total_recorded(), 0u);
  EXPECT_EQ(ring.counts().total(), 0u);
  // The ring is usable again after Clear and fills from the start.
  ring.Record(StepEvent(7));
  const auto events = ring.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].vpn, Vpn{7});
}

TEST(RingBufferTracerTest, WriteJsonlEmitsOneParsableObjectPerEvent) {
  RingBufferTracer ring(8);
  ring.Record({.kind = EventKind::kTlbMiss, .asid = 3, .vpn = Vpn{0x2a}});
  ring.Record({.kind = EventKind::kWalkStep, .vpn = Vpn{0x2a}, .step = 2, .lines = 2});
  ring.Record({.kind = EventKind::kReservationGrant, .vpn = Vpn{1}, .value = 1});
  std::ostringstream os;
  ring.WriteJsonl(os);
  EXPECT_EQ(os.str(),
            "{\"kind\":\"tlb_miss\",\"asid\":3,\"vpn\":42}\n"
            "{\"kind\":\"walk_step\",\"asid\":0,\"vpn\":42,\"step\":2,\"lines\":2}\n"
            "{\"kind\":\"reservation_grant\",\"asid\":0,\"vpn\":1,"
            "\"properly_placed\":true}\n");
}

TEST(RingBufferTracerTest, WriteJsonlAfterWraparoundIsChronological) {
  // The dump a --trace file gets after the ring wrapped: exactly the newest
  // `capacity` events, oldest first, with the overflow visible in dropped().
  RingBufferTracer ring(3);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.Record(StepEvent(i));
  }
  EXPECT_EQ(ring.dropped(), 7u);
  EXPECT_EQ(ring.total_recorded(), 10u);
  std::ostringstream os;
  ring.WriteJsonl(os);
  EXPECT_EQ(os.str(),
            "{\"kind\":\"walk_step\",\"asid\":0,\"vpn\":7,\"step\":1,\"lines\":1}\n"
            "{\"kind\":\"walk_step\",\"asid\":0,\"vpn\":8,\"step\":1,\"lines\":1}\n"
            "{\"kind\":\"walk_step\",\"asid\":0,\"vpn\":9,\"step\":1,\"lines\":1}\n");
  // A wrap that lands mid-buffer (insertion cursor not at slot 0) must still
  // dump in chronological order.
  ring.Clear();
  for (std::uint64_t i = 0; i < 4; ++i) {  // 4 = one past capacity.
    ring.Record(StepEvent(i));
  }
  EXPECT_EQ(ring.dropped(), 1u);
  std::ostringstream os2;
  ring.WriteJsonl(os2);
  EXPECT_EQ(os2.str(),
            "{\"kind\":\"walk_step\",\"asid\":0,\"vpn\":1,\"step\":1,\"lines\":1}\n"
            "{\"kind\":\"walk_step\",\"asid\":0,\"vpn\":2,\"step\":1,\"lines\":1}\n"
            "{\"kind\":\"walk_step\",\"asid\":0,\"vpn\":3,\"step\":1,\"lines\":1}\n");
}

// --- PerfettoExporter track layout --------------------------------------

TEST(PerfettoShardTest, SingleShardTraceHasNoShardSuffixes) {
  // One fixed set of tracks, named once up front in tid order; every event
  // lands on those tids.  Committed traces depend on this exact prefix.
  std::ostringstream os;
  {
    PerfettoExporter exporter(os);
    exporter.Record({.kind = EventKind::kTlbMiss, .vpn = Vpn{0x60}});
    exporter.Finish();
  }
  const std::string trace = os.str();
  EXPECT_EQ(trace.rfind(
                "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
                "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,"
                "\"args\":{\"name\":\"cpt-sim\"}},"
                "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":1,"
                "\"args\":{\"name\":\"TLB\"}},"
                "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":2,"
                "\"args\":{\"name\":\"PT walk\"}},"
                "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":3,"
                "\"args\":{\"name\":\"OS\"}},"
                "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":4,"
                "\"args\":{\"name\":\"allocator\"}},"
                "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":5,"
                "\"args\":{\"name\":\"softTLB\"}},"
                "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":6,"
                "\"args\":{\"name\":\"sections\"}},"
                "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":7,"
                "\"args\":{\"name\":\"timeseries\"}},"
                "{\"ph\":\"i\",\"name\":\"tlb_miss\",\"pid\":0,\"tid\":1,\"ts\":1,\"s\":\"t\"}",
                0),
            0u)
      << trace;
  EXPECT_EQ(trace.find("(shard"), std::string::npos);
  EXPECT_EQ(trace.find("\"tid\":9"), std::string::npos);
}

// --- StatsTracer ---------------------------------------------------------

TEST(StatsTracerTest, ChainLengthCountsStepsPerCountedWalk) {
  StatsTracer stats;
  // Walk 1: two steps, then end.
  stats.Record(StepEvent(1));
  stats.Record(StepEvent(1));
  stats.Record({.kind = EventKind::kWalkEnd, .vpn = Vpn{1}, .lines = 2});
  // Walk 2: one step, then end.
  stats.Record(StepEvent(2));
  stats.Record({.kind = EventKind::kWalkEnd, .vpn = Vpn{2}, .lines = 1});
  EXPECT_EQ(stats.chain_length().total(), 2u);
  EXPECT_EQ(stats.chain_length().count(2), 1u);
  EXPECT_EQ(stats.chain_length().count(1), 1u);
  EXPECT_EQ(stats.lines_per_walk().total(), 2u);
  EXPECT_DOUBLE_EQ(stats.lines_per_walk().mean(), 1.5);
}

TEST(StatsTracerTest, AbortedWalkStepsAreDiscarded) {
  StatsTracer stats;
  // A faulting walk takes three steps and is aborted; the re-run walk takes
  // one step.  Only the re-run belongs in the histogram.
  stats.Record(StepEvent(1));
  stats.Record(StepEvent(1));
  stats.Record(StepEvent(1));
  stats.Record({.kind = EventKind::kWalkAbort, .vpn = Vpn{1}});
  stats.Record(StepEvent(1));
  stats.Record({.kind = EventKind::kWalkEnd, .vpn = Vpn{1}, .lines = 1});
  EXPECT_EQ(stats.chain_length().total(), 1u);
  EXPECT_EQ(stats.chain_length().count(1), 1u);
  EXPECT_EQ(stats.chain_length().count(3), 0u)
      << "aborted steps must not fold into the next counted walk";
}

TEST(StatsTracerTest, ForwardsEveryEventDownstream) {
  RingBufferTracer ring(16);
  StatsTracer stats(&ring);
  stats.Record(StepEvent(1));
  stats.Record({.kind = EventKind::kWalkEnd, .vpn = Vpn{1}, .lines = 1});
  stats.Record({.kind = EventKind::kPageFault, .vpn = Vpn{2}});
  EXPECT_EQ(ring.total_recorded(), 3u);
  EXPECT_EQ(ring.counts()[EventKind::kPageFault], 1u);
}

// --- Timers --------------------------------------------------------------

TEST(TimerTest, ScopedTimerAccumulatesIntoBothSinks) {
  double seconds = 0.0;
  RunningStats samples;
  { ScopedTimer t(&seconds, &samples); }
  { ScopedTimer t(&seconds, &samples); }
  EXPECT_GE(seconds, 0.0);
  EXPECT_EQ(samples.count(), 2u);
}

// --- Machine integration -------------------------------------------------

// The contract the --json benches depend on: a tracer attached to a Machine
// sees exactly the misses the simulator counts, and one counted walk per
// kWalkEnd.
TEST(MachineTracingTest, TracedMissesMatchDenominatorMisses) {
  sim::MachineOptions opts;
  opts.pt_kind = sim::PtKind::kClustered;
  sim::Machine machine(opts, 1);
  StatsTracer stats;
  machine.AttachTracer(&stats);
  // Sweep more pages than the TLB holds, twice, to mix cold faults,
  // capacity misses, and hits.
  for (int round = 0; round < 2; ++round) {
    for (std::uint64_t i = 0; i < 100; ++i) {
      machine.Access(0, VaOf(Vpn{0x1000 + i * 3}));
    }
  }
  EXPECT_GT(stats.counts().TlbMisses(), 0u);
  EXPECT_EQ(stats.counts().TlbMisses(), machine.DenominatorMisses());
  EXPECT_EQ(stats.counts()[EventKind::kTlbHit], machine.tlb().stats().hits);
  EXPECT_EQ(stats.counts()[EventKind::kWalkEnd], machine.cache().total_walks());
  EXPECT_EQ(stats.counts()[EventKind::kPageFault], machine.TotalPageFaults());
  // Every counted walk contributed one chain-length sample.
  EXPECT_EQ(stats.chain_length().total(), machine.cache().total_walks());
  EXPECT_GE(stats.chain_length().mean(), 1.0);
}

// A forward-mapped walk reads one PTP at each of the six inner levels and
// then the leaf PTE, so every counted walk takes seven steps.
TEST(MachineTracingTest, ForwardMappedWalksReportAllSevenLevels) {
  sim::MachineOptions opts;
  opts.pt_kind = sim::PtKind::kForward;
  sim::Machine machine(opts, 1);
  const auto sweep = [&machine] {
    for (std::uint64_t i = 0; i < 100; ++i) {
      machine.Access(0, VaOf(Vpn{0x1000 + i * 3}));
    }
  };
  sweep();  // Fault every page in untraced, so the traced sweep never aborts.
  StatsTracer stats;
  machine.AttachTracer(&stats);
  const std::uint64_t walks_before = machine.cache().total_walks();
  sweep();
  const std::uint64_t walks = machine.cache().total_walks() - walks_before;
  ASSERT_GT(walks, 0u);
  EXPECT_EQ(stats.counts()[EventKind::kWalkAbort], 0u);
  EXPECT_EQ(stats.chain_length().total(), walks);
  EXPECT_DOUBLE_EQ(stats.chain_length().mean(), 7.0);
  EXPECT_EQ(stats.counts()[EventKind::kWalkStep], walks * 7);
}

// A complete-subblock TLB services a block miss with one block walk
// (PageTable::LookupBlock).  Each table's block walk must emit the walk
// steps its Lookup does: the linear table one, the forward-mapped table
// seven, and the clustered tables one per chain node.
struct BlockWalkCase {
  sim::PtKind pt_kind;
  unsigned steps_per_walk;  // 0: one or more, one per chain node.
};

class BlockWalkTracingTest : public ::testing::TestWithParam<BlockWalkCase> {};

TEST_P(BlockWalkTracingTest, BlockWalksReportTheirSteps) {
  sim::MachineOptions opts;
  opts.pt_kind = GetParam().pt_kind;
  opts.tlb_kind = sim::TlbKind::kCompleteSubblock;
  sim::Machine machine(opts, 1);
  // 200 pages in 200 distinct page blocks: more blocks than the TLB holds.
  const auto sweep = [&machine] {
    for (std::uint64_t i = 0; i < 200; ++i) {
      machine.Access(0, VaOf(Vpn{0x1000 + i * 37}));
    }
  };
  sweep();  // Fault every page in untraced, so the traced sweep never aborts.
  StatsTracer stats;
  machine.AttachTracer(&stats);
  const std::uint64_t walks_before = machine.cache().total_walks();
  sweep();
  const std::uint64_t walks = machine.cache().total_walks() - walks_before;
  ASSERT_GT(walks, 0u);
  EXPECT_EQ(stats.counts()[EventKind::kBlockPrefetch], walks) << "every walk is a block walk";
  EXPECT_EQ(stats.counts()[EventKind::kWalkAbort], 0u);
  EXPECT_EQ(stats.chain_length().total(), walks);
  EXPECT_EQ(stats.chain_length().count(0), 0u) << "a block walk reported no step";
  if (const unsigned steps = GetParam().steps_per_walk; steps != 0) {
    EXPECT_EQ(stats.counts()[EventKind::kWalkStep], walks * steps);
    EXPECT_DOUBLE_EQ(stats.chain_length().mean(), steps);
  }
}

INSTANTIATE_TEST_SUITE_P(Tables, BlockWalkTracingTest,
                         ::testing::Values(BlockWalkCase{sim::PtKind::kLinear1, 1},
                                           BlockWalkCase{sim::PtKind::kForward, 7},
                                           BlockWalkCase{sim::PtKind::kClustered, 0},
                                           BlockWalkCase{sim::PtKind::kClusteredAdaptive, 0}),
                         [](const ::testing::TestParamInfo<BlockWalkCase>& param_info) {
                           std::string n = sim::ToString(param_info.param.pt_kind);
                           for (char& c : n) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return n;
                         });

TEST(MachineTracingTest, DetachedMachineCountsAreUnchangedByTracing) {
  const auto run = [](bool traced) {
    sim::MachineOptions opts;
    opts.pt_kind = sim::PtKind::kHashed;
    sim::Machine machine(opts, 1);
    StatsTracer stats;
    if (traced) {
      machine.AttachTracer(&stats);
    }
    for (std::uint64_t i = 0; i < 200; ++i) {
      machine.Access(0, VaOf(Vpn{0x400 + i * 5}));
    }
    return std::pair<std::uint64_t, double>(machine.DenominatorMisses(),
                                            machine.AvgLinesPerMiss());
  };
  // Bit-identical simulated figures with and without a tracer attached.
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace cpt::obs
