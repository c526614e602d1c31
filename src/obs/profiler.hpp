// Hop profiler — where does the event loop spend its wall-clock time?
//
// net::Network's event loop records one "hop" span per switch-work event
// (the pipeline pass of one packet at one switch). Spans export as Chrome
// trace-event JSON ("X" complete events, microsecond timestamps), loadable
// directly in Perfetto / chrome://tracing, and their durations feed the
// fixed-bucket "engine.phase.compute_us" histogram in the metrics registry.
//
// Disabled discipline: the event loop holds a raw EngineProfiler pointer
// that is null unless profiling is armed — the entire disabled cost is one
// branch per hop. Span timestamps are wall-clock (this is a profiler), so
// trace exports are NOT run-deterministic.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace hydra::obs {

class EngineProfiler {
 public:
  EngineProfiler();

  // Microseconds since this profiler was constructed (wall clock).
  double now_us() const;

  // Registers the hop histogram in `reg` (net::Network::
  // rewire_observability).
  void attach(Registry& reg);

  // One switch hop, [t0_us, t1_us].
  void hop(double t0_us, double t1_us);

  // {"displayTimeUnit": ..., "traceEvents": [...]} — Chrome trace-event
  // format, with a thread_name metadata event for the loop's track.
  std::string to_chrome_trace_json() const;
  void clear();  // drops spans, keeps wiring
  std::size_t span_count() const { return spans_.size(); }
  std::uint64_t dropped_spans() const { return dropped_; }

 private:
  // A bounded ring would reorder the timeline; instead recording stops at
  // a cap and counts what it dropped.
  static constexpr std::size_t kMaxSpans = 1u << 18;

  struct Span {
    double ts_us = 0.0;
    double dur_us = 0.0;
  };

  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  std::chrono::steady_clock::time_point epoch_;
  Histogram hop_us_;
};

}  // namespace hydra::obs
