// SLO evaluation over the streaming window series.
//
// evaluate_health folds the most recent N captured windows into one
// aggregate (summed deltas, merged latency buckets) and grades four
// signals against configurable degraded/failing thresholds:
//
//   * reject rate          — checker rejects / injected packets
//   * delivered p99        — interpolated from the merged latency buckets
//   * fault-drop burn rate — fault-plan drops / injected packets
//   * cold-suppression burn— suppressed reports / (reports + suppressed)
//
// The verdict is `ok | degraded | failing` plus machine-readable reasons,
// and is a pure function of (windows, bounds, thresholds): windows are
// captured at virtual-time boundaries, so the verdict — like everything
// else on the live plane — is deterministic for a fixed seed. A threshold <= 0 disables that grade for its
// signal, and an empty window set grades `ok` (nothing measured yet).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/exporter.hpp"

namespace hydra::obs {

enum class HealthStatus { kOk = 0, kDegraded = 1, kFailing = 2 };

const char* health_status_name(HealthStatus s);

struct HealthThresholds {
  // Most recent windows folded into the rolling aggregate.
  std::size_t windows = 10;
  // Rates are dimensionless fractions; latency is seconds.
  double reject_rate_degraded = 0.01;
  double reject_rate_failing = 0.10;
  double latency_p99_degraded_s = 0.0;  // <= 0 disables
  double latency_p99_failing_s = 0.0;
  double fault_drop_rate_degraded = 0.01;
  double fault_drop_rate_failing = 0.10;
  double cold_suppression_degraded = 0.5;
  double cold_suppression_failing = 0.9;
};

struct HealthVerdict {
  HealthStatus status = HealthStatus::kOk;
  std::vector<std::string> reasons;  // empty iff ok
  // Measured signal values over the evaluated span.
  std::size_t windows_evaluated = 0;
  double reject_rate = 0.0;
  double latency_p99_s = 0.0;
  double fault_drop_rate = 0.0;
  double cold_suppression_rate = 0.0;
  // {"status": "...", "reasons": [...], "signals": {...}} — deterministic.
  std::string to_json() const;
};

HealthVerdict evaluate_health(const std::deque<WindowSample>& windows,
                              const std::vector<double>& latency_bounds,
                              const HealthThresholds& thresholds);

}  // namespace hydra::obs
