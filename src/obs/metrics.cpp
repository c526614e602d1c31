#include "obs/metrics.hpp"

#include <cstdio>
#include <stdexcept>

namespace hydra::obs {

namespace detail {

// Shortest-roundtrip float formatting; %.17g would round-trip too but
// litters exports with noise digits, so try increasing precision.
std::string format_double(double v) {
  char buf[64];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    double back = 0.0;
    std::sscanf(buf, "%lf", &back);
    if (back == v) break;
  }
  return buf;
}

std::string format_time(double t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", t);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace detail

using detail::format_double;

void Histogram::observe(double v) const {
  if (data_ == nullptr) return;
  std::size_t b = 0;
  while (b < data_->bounds.size() && v > data_->bounds[b]) ++b;
  ++data_->buckets[b];
  ++data_->count;
  data_->sum += v;
}

const Registry::Meta& Registry::require(const std::string& name, Kind kind,
                                        const std::string* family,
                                        const std::vector<Label>* labels) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    if (it->second.kind != kind) {
      throw std::invalid_argument("metric '" + name +
                                  "' already registered with another kind");
    }
    return it->second;
  }
  Meta m;
  m.kind = kind;
  if (family != nullptr) m.family = *family;
  if (labels != nullptr) m.labels = *labels;
  switch (kind) {
    case Kind::kCounter:
      m.slot = counters_.size();
      counters_.push_back(0);
      break;
    case Kind::kGauge:
      m.slot = gauges_.size();
      gauges_.push_back(0.0);
      break;
    case Kind::kHistogram:
      m.slot = histograms_.size();
      histograms_.emplace_back();
      break;
  }
  return by_name_.emplace(name, m).first->second;
}

Counter Registry::counter(const std::string& name) {
  return Counter(&counters_[require(name, Kind::kCounter).slot]);
}

Gauge Registry::gauge(const std::string& name) {
  return Gauge(&gauges_[require(name, Kind::kGauge).slot]);
}

Histogram Registry::histogram(const std::string& name,
                              std::vector<double> bounds) {
  return histogram(name, std::string(), {}, std::move(bounds));
}

Counter Registry::counter(const std::string& name, const std::string& family,
                          std::vector<Label> labels) {
  return Counter(
      &counters_[require(name, Kind::kCounter, &family, &labels).slot]);
}

Gauge Registry::gauge(const std::string& name, const std::string& family,
                      std::vector<Label> labels) {
  return Gauge(&gauges_[require(name, Kind::kGauge, &family, &labels).slot]);
}

Histogram Registry::histogram(const std::string& name,
                              const std::string& family,
                              std::vector<Label> labels,
                              std::vector<double> bounds) {
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    if (bounds[i] <= bounds[i - 1]) {
      throw std::invalid_argument("histogram '" + name +
                                  "': bounds must be ascending");
    }
  }
  const bool fresh = by_name_.find(name) == by_name_.end();
  HistogramData& h =
      histograms_[require(name, Kind::kHistogram, &family, &labels).slot];
  if (fresh) {
    h.bounds = std::move(bounds);
    h.buckets.assign(h.bounds.size() + 1, 0);
  }
  return Histogram(&h);
}

std::uint64_t Registry::counter_value(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end() || it->second.kind != Kind::kCounter) return 0;
  return counters_[it->second.slot];
}

double Registry::gauge_value(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end() || it->second.kind != Kind::kGauge) return 0.0;
  return gauges_[it->second.slot];
}

std::string Registry::snapshot_text() const {
  std::string out;
  for (const auto& [name, m] : by_name_) {
    switch (m.kind) {
      case Kind::kCounter:
        out += "counter " + name + " " + std::to_string(counters_[m.slot]) +
               "\n";
        break;
      case Kind::kGauge:
        break;  // recomputed after restart
      case Kind::kHistogram: {
        const HistogramData& h = histograms_[m.slot];
        out += "hist " + name + " " + std::to_string(h.count) + " " +
               format_double(h.sum) + " " + std::to_string(h.buckets.size());
        for (std::uint64_t b : h.buckets) {
          out.append(" ").append(std::to_string(b));
        }
        out += "\n";
        break;
      }
    }
  }
  return out;
}

void Registry::restore_counter(const std::string& name, std::uint64_t v) {
  counters_[require(name, Kind::kCounter).slot] += v;
}

void Registry::restore_histogram(const std::string& name, std::uint64_t count,
                                 double sum,
                                 const std::vector<std::uint64_t>& buckets) {
  const auto it = by_name_.find(name);
  if (it == by_name_.end() || it->second.kind != Kind::kHistogram) return;
  HistogramData& h = histograms_[it->second.slot];
  if (h.buckets.size() != buckets.size()) {
    throw std::invalid_argument("restore_histogram: '" + name +
                                "' bucket layout changed since snapshot");
  }
  for (std::size_t i = 0; i < buckets.size(); ++i) h.buckets[i] += buckets[i];
  h.count += count;
  h.sum += sum;
}

void Registry::reset() {
  for (auto& c : counters_) c = 0;
  for (auto& g : gauges_) g = 0.0;
  for (auto& h : histograms_) {
    h.buckets.assign(h.bounds.size() + 1, 0);
    h.count = 0;
    h.sum = 0.0;
  }
}

std::string Registry::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, m] : by_name_) {
    if (m.kind != Kind::kCounter) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": " + std::to_string(counters_[m.slot]);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, m] : by_name_) {
    if (m.kind != Kind::kGauge) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": " + format_double(gauges_[m.slot]);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, m] : by_name_) {
    if (m.kind != Kind::kHistogram) continue;
    const HistogramData& h = histograms_[m.slot];
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": {\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i > 0) out += ", ";
      out += format_double(h.bounds[i]);
    }
    out += "], \"buckets\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(h.buckets[i]);
    }
    out += "], \"count\": " + std::to_string(h.count) +
           ", \"sum\": " + format_double(h.sum) + "}";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

void Registry::visit(const std::function<void(const MetricView&)>& fn) const {
  for (const auto& [name, m] : by_name_) {
    MetricView v{name, m.family, m.labels, m.kind};
    switch (m.kind) {
      case Kind::kCounter:
        v.counter_value = counters_[m.slot];
        break;
      case Kind::kGauge:
        v.gauge_value = gauges_[m.slot];
        break;
      case Kind::kHistogram:
        v.hist = &histograms_[m.slot];
        break;
    }
    fn(v);
  }
}

}  // namespace hydra::obs
