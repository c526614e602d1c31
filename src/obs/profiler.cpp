#include "obs/profiler.hpp"

#include <cstdio>

namespace hydra::obs {

namespace {

// Hop latencies span ~100 ns (a bare forward) to ~100 ms (a hop whose
// report callbacks do heavy control-plane work).
std::vector<double> hop_bounds() {
  return {0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
          5000.0, 25000.0, 100000.0};
}

std::string format_us(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

EngineProfiler::EngineProfiler() : epoch_(std::chrono::steady_clock::now()) {}

double EngineProfiler::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void EngineProfiler::attach(Registry& reg) {
  hop_us_ = reg.histogram("engine.phase.compute_us", hop_bounds());
}

void EngineProfiler::hop(double t0_us, double t1_us) {
  hop_us_.observe(t1_us - t0_us);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back({t0_us, t1_us - t0_us});
}

std::string EngineProfiler::to_chrome_trace_json() const {
  std::string out =
      "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
      " {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"name\": \"engine\"}}";
  for (const Span& s : spans_) {
    out += ",\n {\"name\": \"hop\", \"ph\": \"X\", \"pid\": 1, \"tid\": 0, "
           "\"ts\": " +
           format_us(s.ts_us) + ", \"dur\": " + format_us(s.dur_us) + "}";
  }
  out += "\n]}\n";
  return out;
}

void EngineProfiler::clear() {
  spans_.clear();
  dropped_ = 0;
}

}  // namespace hydra::obs
