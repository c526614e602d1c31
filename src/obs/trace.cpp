#include "obs/trace.hpp"

#include <cstdio>

#include "obs/metrics.hpp"

namespace hydra::obs {

using detail::format_time;
using detail::json_escape;

const char* fate_name(PacketFate fate) {
  switch (fate) {
    case PacketFate::kInFlight: return "in_flight";
    case PacketFate::kDelivered: return "delivered";
    case PacketFate::kFwdDropped: return "fwd_dropped";
    case PacketFate::kRejected: return "rejected";
    case PacketFate::kQueueDropped: return "queue_dropped";
    case PacketFate::kFaultDropped: return "fault_dropped";
  }
  return "unknown";
}

PacketTrace& TraceSink::begin(std::uint64_t packet_id, double created_at,
                              std::string flow) {
  PacketTrace t;
  t.packet_id = packet_id;
  t.created_at = created_at;
  t.flow = std::move(flow);
  traces_.push_back(std::move(t));
  active_[packet_id] = traces_.size() - 1;
  return traces_.back();
}

PacketTrace* TraceSink::active(std::uint64_t packet_id) {
  const auto it = active_.find(packet_id);
  return it == active_.end() ? nullptr : &traces_[it->second];
}

void TraceSink::finish(std::uint64_t packet_id, PacketFate fate,
                       double time) {
  PacketTrace* t = active(packet_id);
  if (t == nullptr) return;
  t->fate = fate;
  t->finished_at = time;
  active_.erase(packet_id);
}

void TraceSink::clear() {
  traces_.clear();
  active_.clear();
}

std::string TraceSink::to_json() const {
  std::string out = "[";
  bool first_trace = true;
  for (const auto& t : traces_) {
    out += first_trace ? "\n" : ",\n";
    first_trace = false;
    out += "  {\"packet_id\": " + std::to_string(t.packet_id) +
           ", \"flow\": \"" + json_escape(t.flow) +
           "\", \"created_at\": " + format_time(t.created_at) +
           ", \"fate\": \"" + fate_name(t.fate) +
           "\", \"finished_at\": " + format_time(t.finished_at) +
           ", \"hops\": [";
    bool first_hop = true;
    for (const auto& h : t.hops) {
      out += first_hop ? "\n" : ",\n";
      first_hop = false;
      out += "    {\"hop\": " + std::to_string(h.hop) +
             ", \"switch_id\": " + std::to_string(h.switch_id) +
             ", \"switch\": \"" + json_escape(h.switch_name) +
             "\", \"time\": " + format_time(h.time) +
             ", \"in_port\": " + std::to_string(h.in_port) +
             ", \"eg_port\": " + std::to_string(h.eg_port) +
             ", \"first_hop\": " + (h.first_hop ? "true" : "false") +
             ", \"last_hop\": " + (h.last_hop ? "true" : "false") +
             ", \"fwd_drop\": " + (h.fwd_drop ? "true" : "false") +
             ", \"rejected\": " + (h.rejected ? "true" : "false") +
             ", \"wire_bytes\": " + std::to_string(h.wire_bytes) +
             ", \"forwarding\": \"" + json_escape(h.forwarding) +
             "\", \"checkers\": [";
      bool first_chk = true;
      for (const auto& c : h.checkers) {
        out += first_chk ? "\n" : ",\n";
        first_chk = false;
        out += "      {\"checker\": \"" + json_escape(c.checker) +
               "\", \"ran_init\": " + (c.ran_init ? "true" : "false") +
               ", \"ran_tele\": " + (c.ran_tele ? "true" : "false") +
               ", \"ran_check\": " + (c.ran_check ? "true" : "false") +
               ", \"reject\": " + (c.reject ? "true" : "false") +
               ", \"reports\": [";
        for (std::size_t ri = 0; ri < c.reports.size(); ++ri) {
          if (ri > 0) out += ", ";
          out += "[";
          for (std::size_t vi = 0; vi < c.reports[ri].size(); ++vi) {
            if (vi > 0) out += ", ";
            out += std::to_string(c.reports[ri][vi]);
          }
          out += "]";
        }
        out += "], \"tele\": {";
        for (std::size_t fi = 0; fi < c.tele.size(); ++fi) {
          if (fi > 0) out += ", ";
          out += std::string("\"") + json_escape(c.tele[fi].name) + "\": [" +
                 std::to_string(c.tele[fi].before) + ", " +
                 std::to_string(c.tele[fi].after) + "]";
        }
        out += "}}";
      }
      out += first_chk ? "]}" : "\n    ]}";
    }
    out += first_hop ? "]}" : "\n  ]}";
  }
  out += first_trace ? "]\n" : "\n]\n";
  return out;
}

std::string TraceSink::narrative(const PacketTrace& t) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "packet %llu  %s\n  fate: %s after %zu hop%s\n",
                static_cast<unsigned long long>(t.packet_id), t.flow.c_str(),
                fate_name(t.fate), t.hops.size(),
                t.hops.size() == 1 ? "" : "s");
  std::string out = buf;
  for (const auto& h : t.hops) {
    std::snprintf(buf, sizeof(buf),
                  "  hop %d  t=%.3fus  %s  in:%d -> %s%s%s  fwd=%s\n", h.hop,
                  h.time * 1e6, h.switch_name.c_str(), h.in_port,
                  h.fwd_drop ? "DROP"
                             : ("out:" + std::to_string(h.eg_port)).c_str(),
                  h.first_hop ? "  [first]" : "",
                  h.last_hop ? "  [last]" : "", h.forwarding.c_str());
    out += buf;
    for (const auto& c : h.checkers) {
      std::string blocks;
      if (c.ran_init) blocks += "init+";
      if (c.ran_tele) blocks += "tele+";
      if (c.ran_check) blocks += "check+";
      if (!blocks.empty()) blocks.pop_back();
      out += "    " + c.checker + " [" + blocks + "]";
      if (c.reject) out += "  VERDICT: reject";
      for (const auto& r : c.reports) {
        out += "  report(";
        for (std::size_t i = 0; i < r.size(); ++i) {
          if (i > 0) out += ", ";
          out += std::to_string(r[i]);
        }
        out += ")";
      }
      out += "\n";
      for (const auto& f : c.tele) {
        if (f.before == f.after) continue;  // only narrate what changed
        out += "      " + f.name + ": " + std::to_string(f.before) + " -> " +
               std::to_string(f.after) + "\n";
      }
    }
  }
  return out;
}

}  // namespace hydra::obs
