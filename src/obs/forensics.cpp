#include "obs/forensics.hpp"

#include <atomic>
#include <cstdio>

#include "obs/metrics.hpp"

namespace hydra::obs {

namespace {

std::atomic<std::uint64_t> g_forensics_allocations{0};

void note_allocation(std::uint64_t n = 1) {
  g_forensics_allocations.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace

using detail::format_time;
using detail::json_escape;

std::uint64_t forensics_allocations() {
  return g_forensics_allocations.load(std::memory_order_relaxed);
}

namespace detail {
void note_forensics_allocation(std::uint64_t n) { note_allocation(n); }
}  // namespace detail

// ---- HopRecord ------------------------------------------------------------

void HopRecord::reset() { *this = HopRecord{}; }

void HopRecord::add_table_hit(std::int16_t table, std::int32_t entry,
                              bool hit) {
  if (n_table_hits >= kMaxTableHits) {
    truncated |= kTruncTableHits;
    return;
  }
  table_hits[n_table_hits++] = {table, entry, hit};
}

void HopRecord::add_reg_touch(std::int16_t reg, bool wrote,
                              std::uint64_t before, std::uint64_t after) {
  if (n_reg_touches >= kMaxRegTouches) {
    truncated |= kTruncRegTouches;
    return;
  }
  reg_touches[n_reg_touches++] = {reg, wrote, before, after};
}

void HopRecord::add_tele(std::int16_t field, std::uint64_t value) {
  if (n_tele >= kMaxTele) {
    truncated |= kTruncTele;
    return;
  }
  tele[n_tele++] = {field, value};
}

void HopRecord::add_reports(std::size_t n) {
  const std::size_t total = report_count + n;
  report_count = static_cast<std::uint8_t>(total < 255 ? total : 255);
}

// ---- FlightRecorder -------------------------------------------------------

FlightRecorder::FlightRecorder(int switches, std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  rings_.resize(static_cast<std::size_t>(switches));
  for (auto& r : rings_) r.slots.resize(capacity_);
  // One charge per ring: after this, append() never allocates.
  note_allocation(rings_.size() + 1);
}

std::uint64_t FlightRecorder::recorded() const {
  std::uint64_t total = 0;
  for (const auto& r : rings_) total += r.total;
  return total;
}

HopRecord& FlightRecorder::append(int sw, const HopRecord& rec) {
  Ring& r = rings_[static_cast<std::size_t>(sw)];
  HopRecord& slot = r.slots[r.next];
  r.next = (r.next + 1) % capacity_;
  if (r.count < capacity_) ++r.count;
  ++r.total;
  slot = rec;
  return slot;
}

void FlightRecorder::collect(std::uint64_t packet_id,
                             std::vector<const HopRecord*>& out) const {
  for (const auto& r : rings_) {
    // Oldest -> newest: the oldest retained slot is `next` when the ring
    // has wrapped, 0 otherwise.
    const std::size_t start = r.count == capacity_ ? r.next : 0;
    for (std::size_t i = 0; i < r.count; ++i) {
      const HopRecord& rec = r.slots[(start + i) % capacity_];
      if (rec.packet_id == packet_id) out.push_back(&rec);
    }
  }
}

void FlightRecorder::clear() {
  for (auto& r : rings_) {
    r.next = 0;
    r.count = 0;
    r.total = 0;
  }
}

// ---- ViolationReport serialization ----------------------------------------

namespace {

void append_checker_json(std::string& out, const ViolationHopChecker& c) {
  out += "{\"checker\": \"" + json_escape(c.checker) + "\"";
  std::string blocks;
  if (c.ran_init) blocks += "init+";
  if (c.ran_tele) blocks += "tele+";
  if (c.ran_check) blocks += "check+";
  if (!blocks.empty()) blocks.pop_back();
  out += ", \"blocks\": \"" + blocks + "\"";
  out += ", \"reject\": ";
  out += c.reject ? "true" : "false";
  out += ", \"reports\": " + std::to_string(c.report_count);
  out += ", \"table_hits\": [";
  for (std::size_t i = 0; i < c.table_hits.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"table\": \"" + json_escape(c.table_hits[i].table) +
           "\", \"entry\": " + std::to_string(c.table_hits[i].entry) +
           ", \"hit\": ";
    out += c.table_hits[i].hit ? "true" : "false";
    out += "}";
  }
  out += "], \"registers\": [";
  for (std::size_t i = 0; i < c.reg_touches.size(); ++i) {
    if (i > 0) out += ", ";
    const auto& r = c.reg_touches[i];
    out += "{\"register\": \"" + json_escape(r.reg) + "\", \"op\": \"";
    out += r.wrote ? "write" : "read";
    out += "\", \"before\": " + std::to_string(r.before) +
           ", \"after\": " + std::to_string(r.after) + "}";
  }
  out += "], \"tele\": {";
  for (std::size_t i = 0; i < c.tele.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::string("\"") + json_escape(c.tele[i].name) +
           "\": " + std::to_string(c.tele[i].value);
  }
  out += "}";
  if (!c.fault_note.empty()) {
    out += ", \"fault_note\": \"" + json_escape(c.fault_note) + "\"";
  }
  if (c.provenance_truncated) out += ", \"provenance_truncated\": true";
  out += "}";
}

void append_report_json(std::string& out, const ViolationReport& v) {
  out += "  {\"packet_id\": " + std::to_string(v.packet_id) +
         ", \"flow\": \"" + json_escape(v.flow) + "\", \"kind\": \"" +
         json_escape(v.kind) + "\"";
  if (!v.reason.empty()) {
    out += ", \"reason\": \"" + json_escape(v.reason) + "\"";
  }
  out += ",\n   \"checkers\": [";
  for (std::size_t i = 0; i < v.checkers.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::string("\"") + json_escape(v.checkers[i]) + "\"";
  }
  out += "], \"switch\": \"" + json_escape(v.switch_name) +
         "\", \"switch_id\": " + std::to_string(v.switch_id) +
         ", \"time\": " + format_time(v.time) +
         ", \"hop_count\": " + std::to_string(v.hop_count) +
         ", \"truncated\": ";
  out += v.truncated ? "true" : "false";
  out += ",\n   \"report_payloads\": [";
  for (std::size_t i = 0; i < v.report_payloads.size(); ++i) {
    if (i > 0) out += ", ";
    out += "[";
    for (std::size_t j = 0; j < v.report_payloads[i].size(); ++j) {
      if (j > 0) out += ", ";
      out += std::to_string(v.report_payloads[i][j]);
    }
    out += "]";
  }
  out += "],\n   \"hops\": [";
  bool first_hop = true;
  for (const auto& h : v.hops) {
    out += first_hop ? "\n" : ",\n";
    first_hop = false;
    out += "    {\"hop\": " + std::to_string(h.hop) +
           ", \"switch\": \"" + json_escape(h.switch_name) +
           "\", \"switch_id\": " + std::to_string(h.switch_id) +
           ", \"time\": " + format_time(h.time) +
           ", \"in_port\": " + std::to_string(h.in_port) +
           ", \"eg_port\": " + std::to_string(h.eg_port) +
           ", \"first_hop\": ";
    out += h.first_hop ? "true" : "false";
    out += ", \"last_hop\": ";
    out += h.last_hop ? "true" : "false";
    out += ", \"fwd_drop\": ";
    out += h.fwd_drop ? "true" : "false";
    if (!h.fwd_reason.empty()) {
      out += ", \"fwd_reason\": \"" + json_escape(h.fwd_reason) + "\"";
    }
    out += ",\n     \"checkers\": [";
    for (std::size_t i = 0; i < h.checkers.size(); ++i) {
      out += i == 0 ? "\n      " : ",\n      ";
      append_checker_json(out, h.checkers[i]);
    }
    out += h.checkers.empty() ? "]}" : "\n     ]}";
  }
  out += first_hop ? "]}" : "\n   ]}";
}

}  // namespace

std::string violation_json(const ViolationReport& report) {
  std::string out;
  append_report_json(out, report);
  return out;
}

std::string violations_json(const std::vector<ViolationReport>& reports) {
  std::string out = "[";
  bool first = true;
  for (const auto& v : reports) {
    out += first ? "\n" : ",\n";
    first = false;
    append_report_json(out, v);
  }
  out += first ? "]\n" : "\n]\n";
  return out;
}

std::string violation_narrative(const ViolationReport& v) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "VIOLATION (%s) packet %llu  %s\n  verdict at %s (hop %d, "
                "t=%.3fus) by:",
                v.kind.c_str(), static_cast<unsigned long long>(v.packet_id),
                v.flow.c_str(), v.switch_name.c_str(), v.hop_count,
                v.time * 1e6);
  std::string out = buf;
  for (const auto& c : v.checkers) out += " " + c;
  out += "\n";
  if (!v.reason.empty() && v.reason != "checker_reject" &&
      v.reason != "checker_report") {
    out += "  reason: " + v.reason + "\n";
  }
  if (v.truncated) {
    out += "  (flight recorder wrapped: earliest hops evicted)\n";
  }
  for (const auto& h : v.hops) {
    std::snprintf(buf, sizeof(buf), "  hop %d  t=%.3fus  %s  in:%d -> %s%s%s\n",
                  h.hop, h.time * 1e6, h.switch_name.c_str(), h.in_port,
                  h.fwd_drop ? "DROP"
                             : ("out:" + std::to_string(h.eg_port)).c_str(),
                  h.first_hop ? "  [first]" : "",
                  h.last_hop ? "  [last]" : "");
    out += buf;
    if (!h.fwd_reason.empty()) {
      out += "      forwarding drop reason: " + h.fwd_reason + "\n";
    }
    for (const auto& c : h.checkers) {
      std::string blocks;
      if (c.ran_init) blocks += "init+";
      if (c.ran_tele) blocks += "tele+";
      if (c.ran_check) blocks += "check+";
      if (!blocks.empty()) blocks.pop_back();
      out += "    " + c.checker + " [" + blocks + "]";
      if (c.reject) out += "  VERDICT: reject";
      if (c.report_count > 0) {
        out += "  reports: " + std::to_string(c.report_count);
      }
      if (!c.fault_note.empty()) out += "  fault: " + c.fault_note;
      out += "\n";
      for (const auto& th : c.table_hits) {
        out += "      table " + th.table +
               (th.hit ? (th.entry >= 0
                              ? ": hit entry " + std::to_string(th.entry)
                              : std::string(": hit (default)"))
                       : std::string(": MISS"));
        out += "\n";
      }
      for (const auto& rt : c.reg_touches) {
        out += "      reg " + rt.reg + (rt.wrote ? " write " : " read ") +
               std::to_string(rt.before);
        if (rt.wrote) out += " -> " + std::to_string(rt.after);
        out += "\n";
      }
      for (const auto& tv : c.tele) {
        out += "      " + tv.name + " = " + std::to_string(tv.value) + "\n";
      }
    }
  }
  return out;
}

}  // namespace hydra::obs
