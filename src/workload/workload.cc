#include "workload/workload.h"

#include <algorithm>

#include "common/check.h"

namespace cpt::workload {

std::uint64_t Snapshot::TotalPages() const {
  std::uint64_t total = 0;
  for (const auto& proc : pages) {
    for (const auto& seg : proc) {
      total += seg.size();
    }
  }
  return total;
}

std::uint64_t Snapshot::ProcessPages(std::size_t process) const {
  std::uint64_t total = 0;
  for (const auto& seg : pages[process]) {
    total += seg.size();
  }
  return total;
}

std::vector<Vpn> Snapshot::FlatProcess(std::size_t process) const {
  std::vector<Vpn> flat;
  flat.reserve(ProcessPages(process));
  for (const auto& seg : pages[process]) {
    flat.insert(flat.end(), seg.begin(), seg.end());
  }
  std::sort(flat.begin(), flat.end());
  return flat;
}

namespace {

// Lays out one segment's mapped pages as alternating mapped runs and gaps,
// with run lengths around burst_mean and gap lengths chosen so the overall
// mapped fraction approaches `density`.
std::vector<Vpn> LayoutSegment(const Segment& seg, Rng& rng) {
  CPT_CHECK(seg.density > 0.0 && seg.density <= 1.0);
  std::vector<Vpn> mapped;
  mapped.reserve(static_cast<std::size_t>(static_cast<double>(seg.span_pages) * seg.density) + 8);
  const Vpn first = VpnOf(seg.base);
  const double gap_mean = seg.burst_mean * (1.0 - seg.density) / seg.density;
  std::uint64_t pos = 0;
  while (pos < seg.span_pages) {
    std::uint64_t run = rng.BurstLength(seg.burst_mean);
    run = std::min(run, seg.span_pages - pos);
    for (std::uint64_t i = 0; i < run; ++i) {
      mapped.push_back(first + pos + i);
    }
    pos += run;
    if (gap_mean > 0.0) {
      pos += rng.BurstLength(gap_mean);
    }
  }
  return mapped;
}

}  // namespace

Snapshot BuildSnapshot(const WorkloadSpec& spec) {
  Rng rng(spec.seed);
  Snapshot snap;
  snap.pages.resize(spec.processes.size());
  for (std::size_t p = 0; p < spec.processes.size(); ++p) {
    const ProcessSpec& proc = spec.processes[p];
    snap.pages[p].reserve(proc.segments.size());
    for (const Segment& seg : proc.segments) {
      snap.pages[p].push_back(LayoutSegment(seg, rng));
    }
  }
  return snap;
}

TraceGenerator::TraceGenerator(const WorkloadSpec& spec, const Snapshot& snapshot)
    : spec_(spec), rng_(spec.seed ^ 0x9E3779B97F4A7C15ull), slice_left_(spec.timeslice) {
  procs_.resize(spec.processes.size());
  for (std::size_t p = 0; p < spec.processes.size(); ++p) {
    ProcessState& ps = procs_[p];
    const auto& segs = spec.processes[p].segments;
    ps.segments.resize(segs.size());
    double cum = 0.0;
    for (std::size_t s = 0; s < segs.size(); ++s) {
      SegmentState& st = ps.segments[s];
      st.spec = &segs[s];
      st.pages = &snapshot.pages[p][s];
      cum += segs[s].weight;
      ps.cumulative_weight.push_back(cum);
    }
    ps.total_weight = cum;
  }
  if (spec.sequential_processes && !procs_.empty()) {
    slice_left_ = std::max<std::uint64_t>(1, spec.default_trace_length / procs_.size());
  }
}

void TraceGenerator::PickNewPage(ProcessState& p) {
  // Choose a segment in proportion to its weight.
  const double r = rng_.NextDouble() * p.total_weight;
  std::size_t si = 0;
  while (si + 1 < p.segments.size() && p.cumulative_weight[si] <= r) {
    ++si;
  }
  SegmentState& st = p.segments[si];
  const auto& pages = *st.pages;
  if (pages.empty()) {
    p.current_page = VpnOf(st.spec->base);
    return;
  }
  const std::uint64_t n = pages.size();
  switch (st.spec->pattern) {
    case AccessPattern::kSequential:
      st.cursor = (st.cursor + 1) % n;
      break;
    case AccessPattern::kStrided:
      // A +/-1 jitter breaks exact stride resonance with the TLB capacity
      // (real loop nests have prologues, remainders and neighbours).
      st.cursor = (st.cursor + st.spec->stride_pages + rng_.Below(3) + n - 1) % n;
      break;
    case AccessPattern::kRandom:
      st.cursor = rng_.Below(n);
      break;
    case AccessPattern::kPointerChase: {
      if (st.chase_perm.empty()) {
        // One fixed random cyclic permutation: every access chases to a new,
        // unpredictable page, like traversing a linked heap.
        st.chase_perm.resize(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          st.chase_perm[i] = i;
        }
        // Sattolo's algorithm: a single n-cycle.
        for (std::uint64_t i = n - 1; i > 0; --i) {
          const std::uint64_t j = rng_.Below(i);
          std::swap(st.chase_perm[i], st.chase_perm[j]);
        }
      }
      st.cursor = st.chase_perm[st.cursor % n];
      break;
    }
  }
  p.current_segment = &st;
  p.current_page = pages[st.cursor];
}

Reference TraceGenerator::EmitFrom(ProcessState& p, tlb::Asid asid) {
  if (p.sojourn_left == 0 || p.current_segment == nullptr) {
    PickNewPage(p);
    const double mean = p.current_segment != nullptr ? p.current_segment->spec->sojourn_mean : 1.0;
    p.sojourn_left = rng_.BurstLength(mean);
  }
  --p.sojourn_left;
  const double write_fraction =
      p.current_segment != nullptr ? p.current_segment->spec->write_fraction : 0.0;
  // Touch a pseudo-random offset within the page; the TLB only sees the VPN.
  return Reference{asid, VaOf(p.current_page) + (rng_.Next() & 0xFF8),
                   rng_.Chance(write_fraction)};
}

Reference TraceGenerator::Next() {
  if (spec_.sequential_processes) {
    // Each process runs for an equal share of the default trace length, then
    // the next one starts; wraps around at the end.
    const std::uint64_t share =
        std::max<std::uint64_t>(1, spec_.default_trace_length / procs_.size());
    if (slice_left_ == 0) {
      active_proc_ = (active_proc_ + 1) % procs_.size();
      slice_left_ = share;
    }
    --slice_left_;
    return EmitFrom(procs_[active_proc_], static_cast<tlb::Asid>(active_proc_));
  }
  if (procs_.size() > 1) {
    if (slice_left_ == 0) {
      active_proc_ = (active_proc_ + 1) % procs_.size();
      slice_left_ = std::max<std::uint64_t>(1, spec_.timeslice);
    }
    --slice_left_;
  }
  return EmitFrom(procs_[active_proc_], static_cast<tlb::Asid>(active_proc_));
}

std::vector<Reference> TraceGenerator::Generate(std::uint64_t n) {
  std::vector<Reference> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(Next());
  }
  return out;
}

}  // namespace cpt::workload
