#include "obs/topk.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace hydra::obs {

using detail::format_double;

namespace {

std::atomic<std::uint64_t> g_topk_allocations{0};

std::string ip_str(std::uint32_t ip) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (ip >> 24) & 0xFF,
                (ip >> 16) & 0xFF, (ip >> 8) & 0xFF, ip & 0xFF);
  return buf;
}

std::size_t pow2_at_least(std::size_t n) {
  std::size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

std::uint64_t topk_allocations() {
  return g_topk_allocations.load(std::memory_order_relaxed);
}

SpaceSaving::SpaceSaving(std::size_t capacity) : slots_cap_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("SpaceSaving: capacity must be positive");
  }
  slots_.reserve(slots_cap_);
  index_.assign(pow2_at_least(4 * slots_cap_), 0);
  mask_ = index_.size() - 1;
  g_topk_allocations.fetch_add(2, std::memory_order_relaxed);
}

std::uint64_t SpaceSaving::hash(const TopKKey& key) {
  // splitmix64-style mix over both words; fixed constants keep slot
  // placement a pure function of the key stream.
  std::uint64_t h = key.hi * 0x9E3779B97F4A7C15ULL;
  h ^= h >> 32;
  h += key.lo;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 29;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 32;
  return h;
}

std::size_t SpaceSaving::probe(const TopKKey& key) const {
  std::size_t i = static_cast<std::size_t>(hash(key)) & mask_;
  while (index_[i] != 0 && !(slots_[index_[i] - 1].key == key)) {
    i = (i + 1) & mask_;
  }
  return i;
}

void SpaceSaving::index_erase(const TopKKey& key) {
  std::size_t hole = probe(key);
  if (index_[hole] == 0) return;
  // Backward-shift deletion: pull displaced entries back over the hole so
  // linear probing stays correct without tombstones (no allocation).
  std::size_t j = hole;
  while (true) {
    j = (j + 1) & mask_;
    if (index_[j] == 0) break;
    const std::size_t home =
        static_cast<std::size_t>(hash(slots_[index_[j] - 1].key)) & mask_;
    const bool movable = j > hole ? (home <= hole || home > j)
                                  : (home <= hole && home > j);
    if (movable) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = 0;
}

void SpaceSaving::add(const TopKKey& key, std::uint64_t w) {
  total_ += w;
  const std::size_t ip = probe(key);
  if (index_[ip] != 0) {
    slots_[index_[ip] - 1].count += w;
    return;
  }
  if (slots_.size() < slots_cap_) {
    Entry e;
    e.key = key;
    e.count = w;
    e.stamp = stamp_++;
    slots_.push_back(e);  // within reserve(): no allocation
    index_[ip] = static_cast<std::uint32_t>(slots_.size());
    return;
  }
  // Space-Saving eviction: replace the minimum, charging the newcomer the
  // victim's count as its overcount bound. Ties break on the older stamp
  // so the victim is schedule-independent.
  std::size_t victim = 0;
  for (std::size_t i = 1; i < slots_.size(); ++i) {
    const Entry& a = slots_[i];
    const Entry& b = slots_[victim];
    if (a.count < b.count || (a.count == b.count && a.stamp < b.stamp)) {
      victim = i;
    }
  }
  Entry& e = slots_[victim];
  index_erase(e.key);
  const std::uint64_t min_count = e.count;
  e.key = key;
  e.error = min_count;
  e.count = min_count + w;
  e.stamp = stamp_++;
  const std::size_t np = probe(key);
  index_[np] = static_cast<std::uint32_t>(victim + 1);
}

void SpaceSaving::erase(const TopKKey& key) {
  const std::size_t ip = probe(key);
  if (index_[ip] == 0) return;
  const std::size_t slot = index_[ip] - 1;
  index_erase(key);
  const std::size_t last = slots_.size() - 1;
  if (slot != last) {
    slots_[slot] = slots_[last];
    // The moved entry's index cell still points at the old last slot;
    // repoint it (probe is valid again after the backward-shift above).
    index_[probe(slots_[slot].key)] = static_cast<std::uint32_t>(slot + 1);
  }
  slots_.pop_back();
}

std::vector<SpaceSaving::Entry> SpaceSaving::ranked() const {
  std::vector<Entry> out = slots_;
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.count != b.count) return a.count > b.count;
    if (a.stamp != b.stamp) return a.stamp < b.stamp;
    return a.key.hi != b.key.hi ? a.key.hi < b.key.hi : a.key.lo < b.key.lo;
  });
  return out;
}

void SpaceSaving::clear() {
  slots_.clear();  // keeps capacity
  std::fill(index_.begin(), index_.end(), 0);
  total_ = 0;
  stamp_ = 0;
}

void SpaceSaving::restore_entry(const TopKKey& key, std::uint64_t count,
                                std::uint64_t error) {
  const std::size_t ip = probe(key);
  if (index_[ip] != 0) {
    slots_[index_[ip] - 1].count += count;
    return;
  }
  if (slots_.size() >= slots_cap_) return;  // snapshot from a larger K
  Entry e;
  e.key = key;
  e.count = count;
  e.error = error;
  e.stamp = stamp_++;
  slots_.push_back(e);
  index_[ip] = static_cast<std::uint32_t>(slots_.size());
}

TopKKey pack_flow(const TopKFlow& f) {
  TopKKey k;
  k.hi = (static_cast<std::uint64_t>(f.src_ip) << 32) | f.dst_ip;
  k.lo = (static_cast<std::uint64_t>(f.src_port) << 32) |
         (static_cast<std::uint64_t>(f.dst_port) << 16) |
         (static_cast<std::uint64_t>(f.proto) << 8) | (f.parsed ? 1u : 0u);
  return k;
}

TopKFlow unpack_flow(const TopKKey& k) {
  TopKFlow f;
  f.src_ip = static_cast<std::uint32_t>(k.hi >> 32);
  f.dst_ip = static_cast<std::uint32_t>(k.hi);
  f.src_port = static_cast<std::uint16_t>(k.lo >> 32);
  f.dst_port = static_cast<std::uint16_t>((k.lo >> 16) & 0xFFFF);
  f.proto = static_cast<std::uint8_t>((k.lo >> 8) & 0xFF);
  f.parsed = (k.lo & 1u) != 0;
  return f;
}

TopKAttribution::TopKAttribution(TopKConfig cfg,
                                 std::vector<std::string> properties)
    : cfg_(cfg),
      properties_(std::move(properties)),
      flow_packets_(cfg.k),
      flow_rejects_(cfg.k),
      flow_reports_(cfg.k),
      session_packets_(cfg.k),
      session_rejects_(cfg.k),
      session_reports_(cfg.k),
      property_rejects_(cfg.k),
      property_reports_(cfg.k) {}

bool TopKAttribution::session_key(const TopKFlow& flow, TopKKey* out) const {
  if (cfg_.session_mask == 0 || !flow.parsed) return false;
  if ((flow.src_ip & cfg_.session_mask) ==
      (cfg_.session_net & cfg_.session_mask)) {
    out->hi = flow.src_ip;
    out->lo = 0;
    return true;
  }
  if ((flow.dst_ip & cfg_.session_mask) ==
      (cfg_.session_net & cfg_.session_mask)) {
    out->hi = flow.dst_ip;
    out->lo = 0;
    return true;
  }
  return false;
}

void TopKAttribution::on_delivered(const TopKFlow& flow) {
  flow_packets_.add(pack_flow(flow));
  TopKKey sk;
  if (session_key(flow, &sk)) session_packets_.add(sk);
}

void TopKAttribution::on_rejected(const TopKFlow& flow,
                                  std::uint64_t dep_mask) {
  flow_rejects_.add(pack_flow(flow));
  TopKKey sk;
  if (session_key(flow, &sk)) session_rejects_.add(sk);
  for (int d = 0; d < 64 && dep_mask != 0; ++d) {
    if (dep_mask & (1ULL << d)) {
      property_rejects_.add(
          TopKKey{static_cast<std::uint64_t>(d), 0});
      dep_mask &= ~(1ULL << d);
    }
  }
}

void TopKAttribution::redefine_property(int deployment, std::string name) {
  if (deployment < 0 || deployment >= 64) return;
  const std::size_t d = static_cast<std::size_t>(deployment);
  if (properties_.size() <= d) properties_.resize(d + 1);
  properties_[d] = std::move(name);
  const TopKKey key{static_cast<std::uint64_t>(d), 0};
  property_rejects_.erase(key);
  property_reports_.erase(key);
}

void TopKAttribution::on_report(const TopKFlow& flow, int deployment) {
  flow_reports_.add(pack_flow(flow));
  TopKKey sk;
  if (session_key(flow, &sk)) session_reports_.add(sk);
  if (deployment >= 0 && deployment < 64) {
    property_reports_.add(TopKKey{static_cast<std::uint64_t>(deployment), 0});
  }
}

std::string TopKAttribution::property_label(const TopKKey& key) const {
  const std::size_t dep = static_cast<std::size_t>(key.hi);
  if (dep < properties_.size() && !properties_[dep].empty()) {
    return properties_[dep];
  }
  return "dep" + std::to_string(dep);
}

namespace {

enum class Domain { kFlow, kSession, kProperty };

struct SketchRef {
  const char* tag;        // snapshot + family suffix
  Domain domain;
  const SpaceSaving* sk;
};

std::string flow_label_body(const TopKFlow& f) {
  if (!f.parsed) return "flow=\"unparsed\"";
  // Keys emitted pre-sorted (dst < proto < src) to honor the exposition's
  // sorted-label contract.
  return "dst=\"" + ip_str(f.dst_ip) + ":" + std::to_string(f.dst_port) +
         "\",proto=\"" + std::to_string(f.proto) + "\",src=\"" +
         ip_str(f.src_ip) + ":" + std::to_string(f.src_port) + "\"";
}

}  // namespace

void TopKAttribution::prom_families(std::vector<PromFamily>& out) const {
  const SketchRef refs[] = {
      {"flow_packets", Domain::kFlow, &flow_packets_},
      {"flow_rejects", Domain::kFlow, &flow_rejects_},
      {"flow_reports", Domain::kFlow, &flow_reports_},
      {"session_packets", Domain::kSession, &session_packets_},
      {"session_rejects", Domain::kSession, &session_rejects_},
      {"session_reports", Domain::kSession, &session_reports_},
      {"property_rejects", Domain::kProperty, &property_rejects_},
      {"property_reports", Domain::kProperty, &property_reports_},
  };
  for (const SketchRef& r : refs) {
    if (r.sk->size() == 0) continue;  // no TYPE line for an empty sketch
    PromFamily f;
    f.name = std::string("hydra_topk_") + r.tag;
    f.kind = MetricKind::kGauge;  // entries are evictable, not monotone
    for (const SpaceSaving::Entry& e : r.sk->ranked()) {
      PromFamily::Sample s;
      switch (r.domain) {
        case Domain::kFlow:
          s.label_body = flow_label_body(unpack_flow(e.key));
          break;
        case Domain::kSession:
          s.label_body =
              "session=\"" + ip_str(static_cast<std::uint32_t>(e.key.hi)) +
              "\"";
          break;
        case Domain::kProperty:
          s.label_body = "property=\"" + prom_escape(property_label(e.key)) +
                         "\"";
          break;
      }
      s.value = std::to_string(e.count);
      f.samples.push_back(std::move(s));
    }
    out.push_back(std::move(f));
  }
  std::sort(out.begin(), out.end(),
            [](const PromFamily& a, const PromFamily& b) {
              return a.name < b.name;
            });
}

std::string TopKAttribution::to_json() const {
  const SketchRef refs[] = {
      {"flow_packets", Domain::kFlow, &flow_packets_},
      {"flow_rejects", Domain::kFlow, &flow_rejects_},
      {"flow_reports", Domain::kFlow, &flow_reports_},
      {"session_packets", Domain::kSession, &session_packets_},
      {"session_rejects", Domain::kSession, &session_rejects_},
      {"session_reports", Domain::kSession, &session_reports_},
      {"property_rejects", Domain::kProperty, &property_rejects_},
      {"property_reports", Domain::kProperty, &property_reports_},
  };
  std::string out = "{\n  \"k\": " + std::to_string(cfg_.k) + ",\n";
  bool first_sk = true;
  for (const SketchRef& r : refs) {
    out += first_sk ? "" : ",\n";
    first_sk = false;
    out += "  \"" + std::string(r.tag) +
           "\": {\"total\": " + std::to_string(r.sk->total()) +
           ", \"entries\": [";
    bool first_e = true;
    for (const SpaceSaving::Entry& e : r.sk->ranked()) {
      out += first_e ? "" : ", ";
      first_e = false;
      out += "{";
      switch (r.domain) {
        case Domain::kFlow: {
          const TopKFlow f = unpack_flow(e.key);
          if (f.parsed) {
            out += "\"src\": \"" + ip_str(f.src_ip) + ":" +
                   std::to_string(f.src_port) + "\", \"dst\": \"" +
                   ip_str(f.dst_ip) + ":" + std::to_string(f.dst_port) +
                   "\", \"proto\": " + std::to_string(f.proto);
          } else {
            out += "\"flow\": \"unparsed\"";
          }
          break;
        }
        case Domain::kSession:
          out += "\"session\": \"" +
                 ip_str(static_cast<std::uint32_t>(e.key.hi)) + "\"";
          break;
        case Domain::kProperty:
          out += "\"property\": \"" + property_label(e.key) + "\"";
          break;
      }
      out += ", \"count\": " + std::to_string(e.count) +
             ", \"error\": " + std::to_string(e.error) + "}";
    }
    out += "]}";
  }
  out += "\n}\n";
  return out;
}

std::string TopKAttribution::snapshot_text() const {
  const SketchRef refs[] = {
      {"flow_packets", Domain::kFlow, &flow_packets_},
      {"flow_rejects", Domain::kFlow, &flow_rejects_},
      {"flow_reports", Domain::kFlow, &flow_reports_},
      {"session_packets", Domain::kSession, &session_packets_},
      {"session_rejects", Domain::kSession, &session_rejects_},
      {"session_reports", Domain::kSession, &session_reports_},
      {"property_rejects", Domain::kProperty, &property_rejects_},
      {"property_reports", Domain::kProperty, &property_reports_},
  };
  std::string out;
  for (const SketchRef& r : refs) {
    out += "topk " + std::string(r.tag) + " " + std::to_string(r.sk->total()) +
           "\n";
    // Stamp order = insertion order; replaying in this order re-issues the
    // same relative stamps, so ranking tie-breaks survive the restart.
    std::vector<SpaceSaving::Entry> entries = r.sk->slots();
    std::sort(entries.begin(), entries.end(),
              [](const SpaceSaving::Entry& a, const SpaceSaving::Entry& b) {
                return a.stamp < b.stamp;
              });
    for (const SpaceSaving::Entry& e : entries) {
      out += "tke " + std::string(r.tag) + " " + std::to_string(e.key.hi) +
             " " + std::to_string(e.key.lo) + " " + std::to_string(e.count) +
             " " + std::to_string(e.error) + "\n";
    }
  }
  return out;
}

bool TopKAttribution::restore_line(const std::string& line) {
  SpaceSaving* const by_tag[] = {
      &flow_packets_,    &flow_rejects_,    &flow_reports_,
      &session_packets_, &session_rejects_, &session_reports_,
      &property_rejects_, &property_reports_,
  };
  static const char* kTags[] = {
      "flow_packets",    "flow_rejects",    "flow_reports",
      "session_packets", "session_rejects", "session_reports",
      "property_rejects", "property_reports",
  };
  std::istringstream in(line);
  std::string kw, tag;
  in >> kw >> tag;
  if (kw != "topk" && kw != "tke") return false;
  SpaceSaving* sk = nullptr;
  for (std::size_t i = 0; i < 8; ++i) {
    if (tag == kTags[i]) {
      sk = by_tag[i];
      break;
    }
  }
  if (sk == nullptr) return true;  // topk line from an unknown sketch: skip
  if (kw == "topk") {
    std::uint64_t total = 0;
    in >> total;
    if (in.fail()) return false;
    sk->restore_total(total);
    return true;
  }
  TopKKey key;
  std::uint64_t count = 0;
  std::uint64_t error = 0;
  in >> key.hi >> key.lo >> count >> error;
  if (in.fail()) return false;
  sk->restore_entry(key, count, error);
  return true;
}

}  // namespace hydra::obs
