#include "obs/exporter.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <stdexcept>
#include <utility>

namespace hydra::obs {

using detail::format_double;

std::string prom_escape(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string prom_family_from_name(const std::string& name, MetricKind kind) {
  std::string fam = "hydra_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    fam += ok ? c : '_';
  }
  const std::string total = "_total";
  if (kind == MetricKind::kCounter &&
      (fam.size() < total.size() ||
       fam.compare(fam.size() - total.size(), total.size(), total) != 0)) {
    fam += total;
  }
  return fam;
}

namespace {

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "untyped";
}

// Renders `key="value"` pairs sorted by key, comma-joined, no braces.
std::string label_body(const std::vector<Label>& labels) {
  std::vector<const Label*> sorted;
  sorted.reserve(labels.size());
  for (const Label& l : labels) sorted.push_back(&l);
  std::sort(sorted.begin(), sorted.end(),
            [](const Label* a, const Label* b) { return a->key < b->key; });
  std::string body;
  for (const Label* l : sorted) {
    if (!body.empty()) body += ',';
    body += l->key + "=\"" + prom_escape(l->value) + "\"";
  }
  return body;
}

std::string braced(const std::string& body) {
  return body.empty() ? std::string() : "{" + body + "}";
}

}  // namespace

namespace {

// Renders every registry family into its own text block, keyed by family
// name; concatenating the (sorted) map values reproduces the classic
// single-argument exposition byte for byte.
std::map<std::string, std::string> registry_family_blocks(const Registry& reg) {
  struct Sample {
    std::string body;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    const HistogramData* hist = nullptr;
  };
  // map => families come out sorted regardless of registration order.
  std::map<std::string, std::pair<MetricKind, std::vector<Sample>>> families;
  reg.visit([&families](const Registry::MetricView& v) {
    const std::string fam =
        v.family.empty() ? prom_family_from_name(v.name, v.kind) : v.family;
    auto [it, fresh] =
        families.try_emplace(fam, v.kind, std::vector<Sample>{});
    if (!fresh && it->second.first != v.kind) {
      throw std::invalid_argument("to_prometheus: family '" + fam +
                                  "' maps to metrics of different kinds");
    }
    Sample s;
    s.body = label_body(v.labels);
    s.counter = v.counter_value;
    s.gauge = v.gauge_value;
    s.hist = v.hist;
    it->second.second.push_back(std::move(s));
  });

  std::map<std::string, std::string> blocks;
  for (auto& [fam, entry] : families) {
    auto& [kind, samples] = entry;
    std::sort(samples.begin(), samples.end(),
              [](const Sample& a, const Sample& b) { return a.body < b.body; });
    std::string out = "# TYPE " + fam + " " + kind_name(kind) + "\n";
    for (const Sample& s : samples) {
      switch (kind) {
        case MetricKind::kCounter:
          out += fam + braced(s.body) + " " + std::to_string(s.counter) + "\n";
          break;
        case MetricKind::kGauge:
          out += fam + braced(s.body) + " " + format_double(s.gauge) + "\n";
          break;
        case MetricKind::kHistogram: {
          const HistogramData& h = *s.hist;
          std::uint64_t cum = 0;
          for (std::size_t i = 0; i < h.buckets.size(); ++i) {
            cum += h.buckets[i];
            const std::string le =
                i < h.bounds.size() ? format_double(h.bounds[i]) : "+Inf";
            std::string body = s.body;
            if (!body.empty()) body += ',';
            body += "le=\"" + le + "\"";
            out += fam + "_bucket{" + body + "} " + std::to_string(cum) + "\n";
          }
          out += fam + "_sum" + braced(s.body) + " " + format_double(h.sum) +
                 "\n";
          out += fam + "_count" + braced(s.body) + " " +
                 std::to_string(h.count) + "\n";
          break;
        }
      }
    }
    blocks.emplace(fam, std::move(out));
  }
  return blocks;
}

}  // namespace

std::string to_prometheus(const Registry& reg) {
  return to_prometheus(reg, {});
}

std::string to_prometheus(const Registry& reg,
                          const std::vector<PromFamily>& extra) {
  std::map<std::string, std::string> blocks = registry_family_blocks(reg);
  for (const PromFamily& f : extra) {
    if (f.samples.empty()) continue;
    std::vector<const PromFamily::Sample*> sorted;
    sorted.reserve(f.samples.size());
    for (const auto& s : f.samples) sorted.push_back(&s);
    std::sort(sorted.begin(), sorted.end(),
              [](const PromFamily::Sample* a, const PromFamily::Sample* b) {
                return a->label_body < b->label_body;
              });
    std::string out = "# TYPE " + f.name + " " + kind_name(f.kind) + "\n";
    for (const PromFamily::Sample* s : sorted) {
      out += f.name + braced(s->label_body) + " " + s->value + "\n";
    }
    auto [it, fresh] = blocks.emplace(f.name, std::move(out));
    if (!fresh) {
      throw std::invalid_argument("to_prometheus: extra family '" + f.name +
                                  "' collides with a registry family");
    }
  }
  std::string out;
  for (const auto& [fam, block] : blocks) out += block;
  return out;
}

double histogram_quantile(double q, const std::vector<double>& bounds,
                          const std::vector<std::uint64_t>& buckets) {
  // Quiet-interval hardening: a window with no observations (or no bucket
  // layout yet) must read as 0, never NaN/Inf, and a hostile q must not
  // walk off either end of the distribution.
  if (!(q >= 0.0)) q = 0.0;  // also catches NaN
  if (q > 1.0) q = 1.0;
  std::uint64_t total = 0;
  for (std::uint64_t b : buckets) total += b;
  if (total == 0 || bounds.empty() || buckets.empty()) return 0.0;
  const double rank = q * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cum + in_bucket) >= rank) {
      // Values past the last finite bound clamp to it (the overflow bucket
      // has no upper edge to interpolate toward).
      if (i >= bounds.size()) return bounds.back();
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      const double upper = bounds[i];
      const double frac =
          (rank - static_cast<double>(cum)) / static_cast<double>(in_bucket);
      return lower + (upper - lower) * (frac < 0.0 ? 0.0 : frac);
    }
    cum += in_bucket;
  }
  return bounds.back();
}

ExportScheduler::ExportScheduler(double interval_s, double first_tick,
                                 std::vector<double> latency_bounds,
                                 std::size_t ring_capacity)
    : interval_(interval_s),
      first_tick_(first_tick),
      latency_bounds_(std::move(latency_bounds)),
      ring_capacity_(ring_capacity) {
  if (interval_s <= 0.0) {
    throw std::invalid_argument("ExportScheduler: interval must be positive");
  }
  if (ring_capacity == 0) {
    throw std::invalid_argument(
        "ExportScheduler: ring capacity must be positive");
  }
}

namespace {

// Elementwise cur - prev; `prev` may be shorter (histogram registered
// after the baseline was taken), in which case missing entries are zero.
std::vector<std::uint64_t> diff_buckets(const std::vector<std::uint64_t>& cur,
                                        const std::vector<std::uint64_t>& prev) {
  std::vector<std::uint64_t> out(cur.size(), 0);
  for (std::size_t i = 0; i < cur.size(); ++i) {
    out[i] = cur[i] - (i < prev.size() ? prev[i] : 0);
  }
  return out;
}

}  // namespace

void ExportScheduler::tick(const ExportCumulative& cum) {
  WindowSample w;
  w.index = captured_;
  w.t1 = next_tick();
  // The previous boundary, recomputed the same multiplicative way so
  // adjacent windows share exact edge values.
  w.t0 = ticks_ == 0 ? first_tick_ - interval_
                     : first_tick_ + interval_ * static_cast<double>(ticks_ - 1);
  w.delta.injected = cum.injected - prev_.injected;
  w.delta.delivered = cum.delivered - prev_.delivered;
  w.delta.rejected = cum.rejected - prev_.rejected;
  w.delta.fwd_dropped = cum.fwd_dropped - prev_.fwd_dropped;
  w.delta.queue_dropped = cum.queue_dropped - prev_.queue_dropped;
  w.delta.fault_dropped = cum.fault_dropped - prev_.fault_dropped;
  w.delta.reports = cum.reports - prev_.reports;
  w.delta.decode_rejects = cum.decode_rejects - prev_.decode_rejects;
  w.delta.cold_suppressed = cum.cold_suppressed - prev_.cold_suppressed;
  w.delta.properties.reserve(cum.properties.size());
  for (const auto& p : cum.properties) {
    ExportCumulative::Property d;
    d.name = p.name;
    // Properties deployed after the previous tick simply have no baseline.
    for (const auto& q : prev_.properties) {
      if (q.name == p.name) {
        d.rejects = q.rejects;
        d.reports = q.reports;
        d.check_runs = q.check_runs;
        d.tele_runs = q.tele_runs;
        break;
      }
    }
    d.rejects = p.rejects - d.rejects;
    d.reports = p.reports - d.reports;
    d.check_runs = p.check_runs - d.check_runs;
    d.tele_runs = p.tele_runs - d.tele_runs;
    w.delta.properties.push_back(std::move(d));
  }
  w.delta.latency_buckets = diff_buckets(cum.latency_buckets,
                                         prev_.latency_buckets);
  w.delta.latency_count = cum.latency_count - prev_.latency_count;
  w.delta.latency_sum = cum.latency_sum - prev_.latency_sum;
  w.pps = static_cast<double>(w.delta.delivered) / interval_;
  w.rejects_per_s = static_cast<double>(w.delta.rejected) / interval_;
  w.latency_p50 = histogram_quantile(0.50, latency_bounds_,
                                     w.delta.latency_buckets);
  w.latency_p90 = histogram_quantile(0.90, latency_bounds_,
                                     w.delta.latency_buckets);
  w.latency_p99 = histogram_quantile(0.99, latency_bounds_,
                                     w.delta.latency_buckets);

  prev_ = cum;
  ring_.push_back(std::move(w));
  if (ring_.size() > ring_capacity_) ring_.pop_front();
  ++captured_;
  ++ticks_;
  if (on_tick_) on_tick_(ring_.back());
}

void ExportScheduler::rebaseline(const ExportCumulative& cum) {
  prev_ = cum;
  ring_.clear();
  captured_ = 0;
}

void ExportScheduler::restore(ExportCumulative baseline,
                              std::uint64_t captured,
                              std::deque<WindowSample> windows,
                              double first_tick, std::uint64_t ticks) {
  while (windows.size() > ring_capacity_) windows.pop_front();
  prev_ = std::move(baseline);
  ring_ = std::move(windows);
  captured_ = captured;
  first_tick_ = first_tick;
  ticks_ = ticks;
}

std::string ExportScheduler::series_json() const {
  std::string out = "{\n";
  out += "  \"interval_s\": " + format_double(interval_) + ",\n";
  out += "  \"ring_capacity\": " + std::to_string(ring_capacity_) + ",\n";
  out += "  \"captured\": " + std::to_string(captured_) + ",\n";
  out += "  \"windows\": [";
  bool first = true;
  for (const WindowSample& w : ring_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"index\": " + std::to_string(w.index) +
           ", \"t0\": " + format_double(w.t0) +
           ", \"t1\": " + format_double(w.t1) +
           ", \"injected\": " + std::to_string(w.delta.injected) +
           ", \"delivered\": " + std::to_string(w.delta.delivered) +
           ", \"rejected\": " + std::to_string(w.delta.rejected) +
           ", \"fwd_dropped\": " + std::to_string(w.delta.fwd_dropped) +
           ", \"queue_dropped\": " + std::to_string(w.delta.queue_dropped) +
           ", \"fault_dropped\": " + std::to_string(w.delta.fault_dropped) +
           ", \"reports\": " + std::to_string(w.delta.reports) +
           ", \"decode_rejects\": " + std::to_string(w.delta.decode_rejects) +
           ", \"cold_suppressed\": " + std::to_string(w.delta.cold_suppressed) +
           ", \"pps\": " + format_double(w.pps) +
           ", \"rejects_per_s\": " + format_double(w.rejects_per_s) + ",\n";
    out += "     \"latency\": {\"count\": " +
           std::to_string(w.delta.latency_count) +
           ", \"sum\": " + format_double(w.delta.latency_sum) +
           ", \"p50\": " + format_double(w.latency_p50) +
           ", \"p90\": " + format_double(w.latency_p90) +
           ", \"p99\": " + format_double(w.latency_p99) + "},\n";
    out += "     \"properties\": [";
    bool pfirst = true;
    for (const auto& p : w.delta.properties) {
      out += pfirst ? "" : ", ";
      pfirst = false;
      out += "{\"property\": \"" + p.name +
             "\", \"rejects\": " + std::to_string(p.rejects) +
             ", \"reports\": " + std::to_string(p.reports) +
             ", \"check_runs\": " + std::to_string(p.check_runs) +
             ", \"tele_runs\": " + std::to_string(p.tele_runs) + "}";
    }
    out += "]}";
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace hydra::obs
