// Wall-clock timing for simulator-throughput telemetry.
//
// The paper's metrics are counted cache lines, but the ROADMAP's
// "measurably faster" mandate needs host-side throughput too: how many
// trace references and TLB misses the *simulator* retires per second.
// ScopedTimer measures one bracketed region; it is the only clock read
// cpt_lint.py's timing-discipline rule allows in src/, bench/, examples/
// and tests/.  Per-layer and before/after host time come from perfbench/.
#ifndef CPT_OBS_TIMER_H_
#define CPT_OBS_TIMER_H_

#include <chrono>

#include "common/stats.h"

namespace cpt::obs {

// Adds the region's elapsed seconds to a double and/or a RunningStats
// sample stream on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(double* out_seconds, RunningStats* out_stats = nullptr)
      : out_(out_seconds), stats_(out_stats), start_(Clock::now()) {}
  ~ScopedTimer() {
    const double s = Elapsed();
    if (out_ != nullptr) {
      *out_ += s;
    }
    if (stats_ != nullptr) {
      stats_->Add(s);
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  double Elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  double* out_;
  RunningStats* stats_;
  Clock::time_point start_;
};

}  // namespace cpt::obs

#endif  // CPT_OBS_TIMER_H_
