// IntervalSnapshotter window semantics and the observer-neutrality pin.
//
// Synthetic-event tests pin the window contract from snapshot.h: lazy
// closing (every event of reference i lands in i's window), the final
// partial window always flushing, short traces yielding exactly one
// window, zero-miss windows appearing with zero deltas, and start_ref
// staying monotonic across Reset().  The machine integration test pins the
// tracer guarantee the report format relies on: simulated metrics are
// bit-identical with and without a snapshotter attached.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/snapshot.h"
#include "obs/trace.h"
#include "sim/experiments.h"
#include "workload/workload.h"

namespace cpt::obs {
namespace {

WalkEvent Ev(EventKind kind, std::uint32_t lines = 0) {
  WalkEvent e;
  e.kind = kind;
  e.lines = lines;
  return e;
}

// One reference plus its walk: a miss touching `lines` cache lines.
void Miss(IntervalSnapshotter& s, std::uint32_t lines) {
  s.Record(Ev(EventKind::kTlbMiss));
  s.Record(Ev(EventKind::kWalkStep, lines));
  s.Record(Ev(EventKind::kWalkEnd, lines));
}

TEST(TimeseriesTest, WindowsCloseLazilyOnNextReference) {
  IntervalSnapshotter snap(4);

  // Exactly one window's worth of references: nothing closes yet, because
  // the walk events of reference 3 may still be in flight.
  for (int i = 0; i < 4; ++i) {
    snap.Record(Ev(EventKind::kTlbHit));
  }
  EXPECT_EQ(snap.windows().size(), 0u);

  // The 5th reference begins window 1 and retroactively closes window 0.
  Miss(snap, 3);
  ASSERT_EQ(snap.windows().size(), 1u);
  const auto& w0 = snap.windows()[0];
  EXPECT_EQ(w0.index, 0u);
  EXPECT_EQ(w0.start_ref, 0u);
  EXPECT_EQ(w0.refs, 4u);
  EXPECT_EQ(w0.events[EventKind::kTlbHit], 4u);
  EXPECT_EQ(w0.Misses(), 0u);
  EXPECT_EQ(w0.lines, 0u);

  // The miss (and its walk_end lines) belongs to the in-progress window.
  snap.Finish();
  ASSERT_EQ(snap.windows().size(), 2u);
  const auto& w1 = snap.windows()[1];
  EXPECT_EQ(w1.index, 1u);
  EXPECT_EQ(w1.start_ref, 4u);
  EXPECT_EQ(w1.refs, 1u);
  EXPECT_EQ(w1.Misses(), 1u);
  EXPECT_EQ(w1.lines, 3u);
}

TEST(TimeseriesTest, TraceShorterThanOneWindowYieldsOnePartialWindow) {
  IntervalSnapshotter snap(1000);
  Miss(snap, 2);
  snap.Record(Ev(EventKind::kTlbHit));
  EXPECT_EQ(snap.windows().size(), 0u);

  snap.Finish();
  ASSERT_EQ(snap.windows().size(), 1u);
  EXPECT_EQ(snap.windows()[0].refs, 2u);
  EXPECT_EQ(snap.windows()[0].Misses(), 1u);
  EXPECT_EQ(snap.total_refs(), 2u);
}

TEST(TimeseriesTest, FinishIsIdempotentAndSkipsEmptyPartial) {
  IntervalSnapshotter snap(2);
  for (int i = 0; i < 4; ++i) {
    snap.Record(Ev(EventKind::kTlbHit));
  }
  // 4 refs / window 2: one closed window, one full-but-unclosed window,
  // no in-flight partial beyond it.
  snap.Finish();
  EXPECT_EQ(snap.windows().size(), 2u);
  snap.Finish();
  EXPECT_EQ(snap.windows().size(), 2u);

  // All non-final windows are full; only the final one may be partial.
  for (std::size_t i = 0; i + 1 < snap.windows().size(); ++i) {
    EXPECT_EQ(snap.windows()[i].refs, snap.window_refs());
  }
}

TEST(TimeseriesTest, ZeroMissWindowStillAppearsWithZeroRates) {
  IntervalSnapshotter snap(2);
  snap.Record(Ev(EventKind::kTlbHit));
  snap.Record(Ev(EventKind::kTlbHit));
  snap.Finish();
  ASSERT_EQ(snap.windows().size(), 1u);
  const auto& w = snap.windows()[0];
  EXPECT_EQ(w.refs, 2u);
  EXPECT_DOUBLE_EQ(w.MissRate(), 0.0);
  EXPECT_DOUBLE_EQ(w.LinesPerMiss(), 0.0);
}

TEST(TimeseriesTest, MissRateAndLinesPerMissDeriveFromDeltas) {
  IntervalSnapshotter snap(4);
  Miss(snap, 5);
  Miss(snap, 3);
  snap.Record(Ev(EventKind::kTlbHit));
  snap.Record(Ev(EventKind::kTlbHit));
  snap.Finish();
  ASSERT_EQ(snap.windows().size(), 1u);
  const auto& w = snap.windows()[0];
  EXPECT_EQ(w.refs, 4u);
  EXPECT_EQ(w.Misses(), 2u);
  EXPECT_EQ(w.lines, 8u);
  EXPECT_DOUBLE_EQ(w.MissRate(), 0.5);
  EXPECT_DOUBLE_EQ(w.LinesPerMiss(), 4.0);
}

TEST(TimeseriesTest, ResetKeepsGlobalReferenceCounterMonotonic) {
  IntervalSnapshotter snap(2);
  for (int i = 0; i < 3; ++i) {
    snap.Record(Ev(EventKind::kTlbHit));
  }
  snap.Finish();
  EXPECT_EQ(snap.total_refs(), 3u);
  EXPECT_EQ(snap.windows().size(), 2u);

  // A new section starts empty, but start_ref continues from the global
  // count so sections concatenate on one time axis.
  snap.Reset();
  EXPECT_EQ(snap.windows().size(), 0u);
  EXPECT_EQ(snap.total_refs(), 3u);

  snap.Record(Ev(EventKind::kTlbHit));
  snap.Finish();
  ASSERT_EQ(snap.windows().size(), 1u);
  EXPECT_EQ(snap.windows()[0].index, 0u);
  EXPECT_EQ(snap.windows()[0].start_ref, 3u);
  EXPECT_EQ(snap.total_refs(), 4u);
}

TEST(TimeseriesTest, WriteJsonlEmitsOneObjectPerWindow) {
  IntervalSnapshotter snap(2);
  Miss(snap, 2);
  snap.Record(Ev(EventKind::kTlbHit));
  snap.Record(Ev(EventKind::kTlbHit));
  snap.Finish();
  ASSERT_EQ(snap.windows().size(), 2u);

  std::ostringstream os;
  snap.WriteJsonl(os);
  std::istringstream lines(os.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    EXPECT_NE(line.find("\"type\":\"window\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"miss_rate\""), std::string::npos) << line;
    ++count;
  }
  EXPECT_EQ(count, 2);
  // Zero-count event kinds are elided from the per-window events object.
  EXPECT_NE(os.str().find("\"tlb_miss\":1"), std::string::npos);
  EXPECT_EQ(os.str().find("\"page_fault\""), std::string::npos);
}

// The tracer guarantee: a snapshotter observes and never steers.  Every
// simulated metric of a measured run must be bit-identical with one
// attached or detached; only host timing may differ.
TEST(TimeseriesTest, SnapshotterDoesNotPerturbSimulatedMetrics) {
  const auto& spec = workload::GetPaperWorkload("compress");
  sim::MachineOptions opts;
  opts.pt_kind = sim::PtKind::kClustered;
  constexpr std::uint64_t kTraceLen = 50'000;

  const auto plain = sim::MeasureAccessTime(spec, opts, kTraceLen);

  IntervalSnapshotter snap(1024);
  sim::MeasureHooks hooks;
  hooks.tracer = &snap;
  const auto traced = sim::MeasureAccessTime(spec, opts, kTraceLen, hooks);
  snap.Finish();

  EXPECT_EQ(traced.denominator_misses, plain.denominator_misses);
  EXPECT_EQ(traced.effective_misses, plain.effective_misses);
  EXPECT_DOUBLE_EQ(traced.avg_lines_per_miss, plain.avg_lines_per_miss);
  EXPECT_DOUBLE_EQ(traced.miss_ratio, plain.miss_ratio);
  EXPECT_EQ(traced.pt_bytes, plain.pt_bytes);
  EXPECT_EQ(traced.page_faults, plain.page_faults);
  EXPECT_EQ(traced.trace_refs, plain.trace_refs);

  // The snapshotter saw exactly the measured trace: per-window refs sum to
  // trace_refs, every non-final window is full, and indexes are contiguous.
  std::uint64_t refs = 0;
  for (std::size_t i = 0; i < snap.windows().size(); ++i) {
    const auto& w = snap.windows()[i];
    EXPECT_EQ(w.index, i);
    if (i + 1 < snap.windows().size()) {
      EXPECT_EQ(w.refs, snap.window_refs());
    }
    refs += w.refs;
  }
  EXPECT_EQ(refs, traced.trace_refs);
  EXPECT_EQ(snap.total_refs(), traced.trace_refs);
}

}  // namespace
}  // namespace cpt::obs
