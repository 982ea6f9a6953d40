#include "obs/snapshot.h"

#include "common/check.h"
#include "obs/json_writer.h"
#include "obs/perfetto.h"

namespace cpt::obs {

namespace {

bool IsReference(EventKind kind) {
  // Machine::Access publishes exactly one TLB probe event per reference.
  return kind == EventKind::kTlbHit || kind == EventKind::kTlbMiss ||
         kind == EventKind::kTlbBlockMiss || kind == EventKind::kTlbSubblockMiss;
}

}  // namespace

double IntervalSnapshotter::Window::MissRate() const {
  return refs == 0 ? 0.0 : static_cast<double>(Misses()) / static_cast<double>(refs);
}

double IntervalSnapshotter::Window::LinesPerMiss() const {
  const std::uint64_t misses = Misses();
  return misses == 0 ? 0.0 : static_cast<double>(lines) / static_cast<double>(misses);
}

IntervalSnapshotter::IntervalSnapshotter(std::uint64_t window_refs,
                                         PerfettoExporter* perfetto)
    : window_refs_(window_refs), perfetto_(perfetto) {
  CPT_CHECK(window_refs_ > 0, "IntervalSnapshotter window must be at least one reference");
}

void IntervalSnapshotter::Record(const WalkEvent& event) {
  CPT_DCHECK(!finished_, "IntervalSnapshotter::Record() after Finish() (Reset() first)");
  if (IsReference(event.kind)) {
    // Close lazily at the *start* of the next reference, so every event of
    // reference i (probe, walk steps, faults, fills) stays in i's window.
    if (current_.refs == window_refs_) {
      CloseWindow();
    }
    if (current_.refs == 0) {
      current_.start_ref = total_refs_;
    }
    ++current_.refs;
    ++total_refs_;
  }
  current_.events[event.kind] += 1;
  if (event.kind == EventKind::kWalkEnd) {
    current_.lines += event.lines;
  }
}

void IntervalSnapshotter::Finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  if (current_.refs > 0) {
    CloseWindow();
  }
}

void IntervalSnapshotter::Reset() {
  windows_.clear();
  current_ = Window{};
  finished_ = false;
}

void IntervalSnapshotter::CloseWindow() {
  current_.index = windows_.empty() ? 0 : windows_.back().index + 1;
  if (perfetto_ != nullptr) {
    perfetto_->CounterTrack(
        "window", {{"miss_rate", current_.MissRate()},
                   {"lines_per_miss", current_.LinesPerMiss()},
                   {"page_faults",
                    static_cast<double>(current_.events[EventKind::kPageFault])},
                   {"promotions",
                    static_cast<double>(current_.events[EventKind::kPtePromotion])}});
  }
  windows_.push_back(current_);
  const std::uint64_t next_index = current_.index + 1;
  current_ = Window{};
  current_.index = next_index;
  current_.start_ref = total_refs_;
}

void IntervalSnapshotter::WriteJsonl(std::ostream& os) const {
  for (const Window& win : windows_) {
    {
      JsonWriter w(os, /*pretty=*/false);
      w.BeginObject();
      w.KV("type", "window");
      w.KV("window", win.index);
      w.KV("start_ref", win.start_ref);
      w.KV("refs", win.refs);
      w.KV("lines", win.lines);
      w.KV("miss_rate", win.MissRate());
      w.KV("lines_per_miss", win.LinesPerMiss());
      w.Key("events");
      w.BeginObject();
      for (std::size_t k = 0; k < kEventKindCount; ++k) {
        const auto kind = static_cast<EventKind>(k);
        if (const std::uint64_t n = win.events[kind]; n != 0) {
          w.KV(ToString(kind), n);
        }
      }
      w.EndObject();
      w.EndObject();
    }
    os << '\n';
  }
}

}  // namespace cpt::obs
