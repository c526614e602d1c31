// Metrics registry — the measurement substrate for the runtime.
//
// Designed around one constraint: the packet hot path must not pay for
// observability it did not ask for. Instrumented components hold *handles*
// (Counter / Gauge / Histogram), which are a single raw pointer into
// registry-owned storage. A default-constructed handle is detached
// (nullptr) and every operation on it is one predictable branch — that is
// the entire disabled-path cost. When a Registry hands out a handle, the
// increment is a direct pointer write with no lock, no lookup, and no
// allocation. The registry is single-threaded: every slot is a plain
// value, written only by the simulation thread.
//
// Slots live in deques so handles stay valid as more metrics register.
// Registration is idempotent: asking for the same name (and kind) again
// returns a handle to the same slot, so independently-wired components can
// share an aggregate counter. Snapshots iterate names in sorted order, so
// exports are deterministic regardless of registration order.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace hydra::obs {

class Registry;

enum class MetricKind { kCounter, kGauge, kHistogram };

// One structured dimension of a metric (e.g. {"property", "waypoint"}).
// Labels are export-side metadata: the registry stays keyed on the flat
// compatibility name, so JSON snapshots are unaffected, while the
// Prometheus exporter groups same-family metrics into labeled samples.
struct Label {
  std::string key;
  std::string value;
};

namespace detail {
// Shortest-roundtrip float formatting shared by every obs serializer.
std::string format_double(double v);
// The trace and forensics JSON writers' time ("%.9g") and string escape
// (a backslash before '"' and '\\').
std::string format_time(double t);
std::string json_escape(const std::string& s);
}  // namespace detail

// Monotonic event count (table hits, packets forwarded, rejects...).
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1) const {
    if (slot_ != nullptr) *slot_ += n;
  }
  std::uint64_t value() const { return slot_ != nullptr ? *slot_ : 0; }
  bool attached() const { return slot_ != nullptr; }

 private:
  friend class Registry;
  explicit Counter(std::uint64_t* slot) : slot_(slot) {}
  std::uint64_t* slot_ = nullptr;
};

// Point-in-time level (entry counts, utilization). Set, not accumulated.
class Gauge {
 public:
  Gauge() = default;
  void set(double v) const {
    if (slot_ != nullptr) *slot_ = v;
  }
  void add(double v) const {
    if (slot_ != nullptr) *slot_ += v;
  }
  double value() const { return slot_ != nullptr ? *slot_ : 0.0; }
  bool attached() const { return slot_ != nullptr; }

 private:
  friend class Registry;
  explicit Gauge(double* slot) : slot_(slot) {}
  double* slot_ = nullptr;
};

// Fixed-bucket histogram: `bounds` are inclusive upper bounds in ascending
// order; one overflow bucket is implicit. No rebinning ever happens, so
// observe() is a linear probe over a handful of bounds.
struct HistogramData {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1
  std::uint64_t count = 0;
  double sum = 0.0;
};

class Histogram {
 public:
  Histogram() = default;
  void observe(double v) const;
  std::uint64_t count() const { return data_ != nullptr ? data_->count : 0; }
  double sum() const { return data_ != nullptr ? data_->sum : 0.0; }
  const HistogramData* data() const { return data_; }
  bool attached() const { return data_ != nullptr; }

 private:
  friend class Registry;
  explicit Histogram(HistogramData* data) : data_(data) {}
  HistogramData* data_ = nullptr;
};

class Registry {
 public:
  // Registering an existing name returns a handle to the existing slot;
  // registering it as a different kind throws std::invalid_argument.
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  // `bounds` must be ascending; ignored if `name` is already registered.
  Histogram histogram(const std::string& name, std::vector<double> bounds);

  // Labeled registration: `name` remains the snapshot key (JSON output
  // is byte-for-byte what the unlabeled overload produces), while
  // `family` + `labels` describe the Prometheus identity of the same slot
  // (e.g. hydra_checker_rejects_total{property="waypoint"}). Family and
  // labels are fixed by the first registration of `name`.
  Counter counter(const std::string& name, const std::string& family,
                  std::vector<Label> labels);
  Gauge gauge(const std::string& name, const std::string& family,
              std::vector<Label> labels);
  Histogram histogram(const std::string& name, const std::string& family,
                      std::vector<Label> labels, std::vector<double> bounds);

  std::size_t size() const { return by_name_.size(); }
  // Point reads by name for tests and tools; 0 when absent.
  std::uint64_t counter_value(const std::string& name) const;
  double gauge_value(const std::string& name) const;

  // Zeroes every value but keeps all registrations (handles stay valid).
  void reset();

  // ---- snapshot/restore (obs persistence) -------------------------------
  // Deterministic line-oriented dump of every counter and histogram, names
  // sorted: `counter <name> <value>` / `hist <name> <count> <sum> <n>
  // <bucket>...`. Gauges are derived levels and are recomputed after a
  // restart, so they are not persisted.
  std::string snapshot_text() const;
  // Adds `v` into `name`'s slot, registering a plain counter if absent
  // (Prometheus identity attaches when the owning component re-registers
  // it). Additive, so restoring on top of freshly re-registered metrics
  // resumes the pre-restart totals.
  void restore_counter(const std::string& name, std::uint64_t v);
  // Bucket-wise add into an EXISTING histogram (the bounds live with the
  // registration, not the snapshot); unknown names are ignored and a
  // bucket-count mismatch throws std::invalid_argument.
  void restore_histogram(const std::string& name, std::uint64_t count,
                         double sum, const std::vector<std::uint64_t>& buckets);

  // Deterministic exports: names sorted, stable float formatting.
  // JSON: {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  std::string to_json() const;

  // Read-only walk over every metric in name order (so visitors inherit
  // the registry's deterministic iteration). `family` is empty for metrics
  // registered without Prometheus identity; exporters derive one.
  struct MetricView {
    const std::string& name;
    const std::string& family;
    const std::vector<Label>& labels;
    MetricKind kind;
    std::uint64_t counter_value = 0;
    double gauge_value = 0.0;
    const HistogramData* hist = nullptr;  // non-null iff kind == kHistogram
  };
  void visit(const std::function<void(const MetricView&)>& fn) const;

 private:
  using Kind = MetricKind;
  struct Meta {
    Kind kind = Kind::kCounter;
    std::size_t slot = 0;
    // Prometheus identity; empty family => exporter derives one from name.
    std::string family;
    std::vector<Label> labels;
  };

  const Meta& require(const std::string& name, Kind kind,
                      const std::string* family = nullptr,
                      const std::vector<Label>* labels = nullptr);

  std::map<std::string, Meta> by_name_;  // ordered => deterministic export
  // deque: slots never relocate, so handles survive growth.
  std::deque<std::uint64_t> counters_;
  std::deque<double> gauges_;
  std::deque<HistogramData> histograms_;
};

}  // namespace hydra::obs
