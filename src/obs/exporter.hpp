// Streaming export surface for the obs registry.
//
// Two pieces live here:
//
//  * Prometheus text exposition (`to_prometheus`): a deterministic
//    serialization of a Registry snapshot. Metrics registered with a
//    family + labels (see Registry::counter(name, family, labels)) are
//    grouped into labeled samples; legacy flat names get a family derived
//    mechanically from the name. Families are emitted in sorted order and
//    samples within a family in sorted label order, so the output is a
//    pure function of the registry contents.
//
//  * Windowed series (`ExportScheduler`): a bounded ring of per-interval
//    deltas over the cumulative totals the Network hands in at each
//    virtual-time tick. Ticks are driven from the Network's event loop: a
//    tick at T fires after every event with t < T has run and before any
//    event with t >= T runs, so the sample sequence is a function of the
//    event timeline. The scheduler itself is passive — it never reads the
//    registry; the Network assembles an ExportCumulative at each tick and
//    the scheduler only diffs it against the previous tick's snapshot.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace hydra::obs {

// Escapes a label value per the Prometheus text format: backslash, double
// quote, and newline become \\, \", and \n.
std::string prom_escape(const std::string& v);

// Derives a Prometheus family name from a flat snapshot name: characters
// outside [a-zA-Z0-9_:] become '_', a "hydra_" prefix is added, and
// counters gain the conventional "_total" suffix.
std::string prom_family_from_name(const std::string& name, MetricKind kind);

// Full text exposition of the registry: `# TYPE` line per family, families
// sorted, histogram buckets cumulative and terminated by `+Inf`, plus the
// `_sum` / `_count` series. Throws std::invalid_argument if two metrics of
// different kinds map to the same family.
//
// The exposition ends with exactly one trailing newline and is what HTTP
// consumers must receive under `Content-Type: text/plain; version=0.0.4`
// (the Prometheus text-format identifier served by obs::HttpServer and
// written verbatim by hydrastat/hydrascope --prom).
std::string to_prometheus(const Registry& reg);

// A pre-rendered exposition family merged into to_prometheus output by
// the overload below. Used for values that live outside the Registry
// (e.g. top-K sketch entries, whose label sets churn as keys are
// evicted). Samples are emitted in sorted label-body order; an empty
// sample list suppresses the family entirely.
struct PromFamily {
  struct Sample {
    std::string label_body;  // `k1="v1",k2="v2"` — keys sorted, no braces
    std::string value;       // pre-formatted number
  };
  std::string name;
  MetricKind kind = MetricKind::kGauge;
  std::vector<Sample> samples;
};

// to_prometheus with extra synthesized families interleaved in sorted
// order with the registry-derived ones. Throws std::invalid_argument if an
// extra family collides with a registry family name.
std::string to_prometheus(const Registry& reg,
                          const std::vector<PromFamily>& extra);

// Prometheus-style interpolated quantile over non-cumulative bucket counts
// (`buckets.size() == bounds.size() + 1`, last bucket is overflow).
// Quiet/degenerate inputs never produce NaN or Inf: an empty or all-zero
// bucket window, missing bounds, or a non-finite `q` all return 0, and `q`
// clamps to [0, 1]. Values that land in the overflow bucket clamp to the
// highest finite bound.
double histogram_quantile(double q, const std::vector<double>& bounds,
                          const std::vector<std::uint64_t>& buckets);

// Cumulative totals at one tick boundary. The same struct doubles as the
// per-window delta inside WindowSample.
struct ExportCumulative {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t rejected = 0;
  std::uint64_t fwd_dropped = 0;
  std::uint64_t queue_dropped = 0;
  std::uint64_t fault_dropped = 0;
  std::uint64_t reports = 0;
  // Telemetry damaged in flight and rejected fail-closed, and reports
  // suppressed by checker cold-start — the burn-rate inputs for health
  // evaluation (summed across deployments).
  std::uint64_t decode_rejects = 0;
  std::uint64_t cold_suppressed = 0;
  // Per-property attribution, sorted by property name.
  struct Property {
    std::string name;
    std::uint64_t rejects = 0;
    std::uint64_t reports = 0;
    std::uint64_t check_runs = 0;
    std::uint64_t tele_runs = 0;
  };
  std::vector<Property> properties;
  // Delivered-latency histogram state (bounds fixed at arm time; empty
  // until the first delivery).
  std::vector<std::uint64_t> latency_buckets;
  std::uint64_t latency_count = 0;
  double latency_sum = 0.0;
};

// One captured interval: [t0, t1) deltas plus derived rates/percentiles.
struct WindowSample {
  std::uint64_t index = 0;  // monotone across ring evictions
  double t0 = 0.0;
  double t1 = 0.0;
  ExportCumulative delta;
  double pps = 0.0;           // delivered / interval
  double rejects_per_s = 0.0; // rejected / interval
  double latency_p50 = 0.0;
  double latency_p90 = 0.0;
  double latency_p99 = 0.0;
};

class ExportScheduler {
 public:
  // Invoked on the main thread immediately after a sample is captured;
  // used by tools for --watch style periodic rewrites.
  using TickCallback = std::function<void(const WindowSample&)>;

  ExportScheduler(double interval_s, double first_tick,
                  std::vector<double> latency_bounds,
                  std::size_t ring_capacity);

  // The next virtual-time boundary at which a sample is due. Engines fire
  // every due tick before running any event with t >= next_tick().
  // Computed multiplicatively (first + k * interval), not by repeated
  // addition, so boundaries carry no accumulated rounding drift.
  double next_tick() const {
    return first_tick_ + interval_ * static_cast<double>(ticks_);
  }
  std::uint64_t captured() const { return captured_; }
  std::uint64_t ticks() const { return ticks_; }
  double first_tick() const { return first_tick_; }
  const std::deque<WindowSample>& windows() const { return ring_; }
  const std::vector<double>& latency_bounds() const { return latency_bounds_; }

  void set_on_tick(TickCallback cb) { on_tick_ = std::move(cb); }

  // Captures the window ending at next_tick(): diffs `cum` against the
  // previous tick's snapshot, derives rates and latency percentiles,
  // pushes the sample (evicting the oldest past ring capacity), advances
  // the tick, and fires the callback.
  void tick(const ExportCumulative& cum);

  // Re-anchors the delta baseline at `cum` and drops captured windows;
  // used when the underlying metrics are reset mid-run.
  void rebaseline(const ExportCumulative& cum);

  // The delta baseline: cumulative totals as of the last fired tick. The
  // events between that tick and a mid-window snapshot are NOT yet in any
  // window — a restore that re-anchors the baseline at the snapshot's
  // totals would silently drop them from the next window, so full-state
  // snapshots serialize this and reinstate it verbatim.
  const ExportCumulative& baseline() const { return prev_; }

  // Full-state restore: the restarted process resumes the SNAPSHOT's
  // export state — its delta baseline, capture count and retained windows
  // (the oldest dropped past ring capacity), and its tick clock. Both
  // anchor and tick count are reinstated verbatim: boundaries are computed
  // as first_tick_ + k * interval_, so restoring the exact (anchor, count)
  // pair reproduces the original run's window edges bit-for-bit (a
  // re-derived anchor with a different count splits the same product
  // differently and drifts in the last ulp).
  void restore(ExportCumulative baseline, std::uint64_t captured,
               std::deque<WindowSample> windows, double first_tick,
               std::uint64_t ticks);

  // Deterministic JSON: interval, capture count, and the retained windows
  // (oldest first) with per-property attribution.
  std::string series_json() const;

 private:
  double interval_ = 0.0;
  double first_tick_ = 0.0;
  std::uint64_t ticks_ = 0;  // boundaries fired, monotone across rebaselines
  std::vector<double> latency_bounds_;
  std::size_t ring_capacity_ = 0;
  std::deque<WindowSample> ring_;
  std::uint64_t captured_ = 0;
  ExportCumulative prev_;
  TickCallback on_tick_;
};

}  // namespace hydra::obs
