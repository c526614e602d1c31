// Packet trace facility — follows a sampled packet hop by hop.
//
// This module is the pure data model plus the sink that stores and exports
// traces; the *instrumentation* (deciding which packets to sample and
// filling in hops) lives in net::Network, which is the only layer that
// sees packets, checkers, and the clock together. Keeping the model free
// of packet/IR types lets tools and tests consume traces without linking
// the simulator.
//
// One trace records, per hop: the switch, the time, ports, the forwarding
// decision, each deployed checker's telemetry values before and after its
// blocks ran, and the checker verdict (reject + report payloads). That is
// exactly the evidence chain needed to replay a §5.2-style diagnosis as a
// readable narrative — see TraceSink::narrative().
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

namespace hydra::obs {

// One telemetry field's value entering and leaving a hop.
struct TraceFieldValue {
  std::string name;
  std::uint64_t before = 0;
  std::uint64_t after = 0;
};

// What one deployed checker did at one hop.
struct CheckerHopRecord {
  std::string checker;
  bool ran_init = false;
  bool ran_tele = false;
  bool ran_check = false;
  bool reject = false;
  std::vector<std::vector<std::uint64_t>> reports;  // payload values
  std::vector<TraceFieldValue> tele;                // telemetry before/after
};

struct TraceHop {
  int hop = 0;  // 1-based position in the journey
  int switch_id = -1;
  std::string switch_name;
  double time = 0.0;
  int in_port = -1;
  int eg_port = -1;  // -1 on drop
  bool first_hop = false;
  bool last_hop = false;
  bool fwd_drop = false;
  bool rejected = false;  // any checker rejected here
  int wire_bytes = 0;
  std::string forwarding;  // forwarding program name, or "none"
  std::vector<CheckerHopRecord> checkers;
};

enum class PacketFate {
  kInFlight,      // still traversing (or vanished on an unconnected port)
  kDelivered,     // reached a host
  kFwdDropped,    // dropped by the forwarding program
  kRejected,      // dropped by a Hydra checker
  kQueueDropped,  // tail-dropped at a full link buffer
  kFaultDropped,  // dropped by the fault injector (loss or downed link)
};

const char* fate_name(PacketFate fate);

struct PacketTrace {
  std::uint64_t packet_id = 0;
  double created_at = 0.0;
  std::string flow;  // human-readable flow identity, e.g. "a:p -> b:q udp"
  PacketFate fate = PacketFate::kInFlight;
  double finished_at = 0.0;
  std::vector<TraceHop> hops;
};

// Stores completed and in-flight traces up to kCapacity; once full, no new
// traces start (finished ones keep their data — this is a diagnostic tool,
// not a ring buffer, so early evidence is never overwritten).
class TraceSink {
 public:
  static constexpr std::size_t kCapacity = 64;
  bool has_capacity() const { return traces_.size() < kCapacity; }

  PacketTrace& begin(std::uint64_t packet_id, double created_at,
                     std::string flow);
  // The trace for a still-in-flight packet, or nullptr if it is not traced.
  PacketTrace* active(std::uint64_t packet_id);
  void finish(std::uint64_t packet_id, PacketFate fate, double time);

  const std::deque<PacketTrace>& traces() const { return traces_; }
  bool empty() const { return traces_.empty(); }
  // True while any traced packet is still in flight — the cheap guard the
  // per-hop instrumentation checks before the id lookup.
  bool tracing() const { return !active_.empty(); }
  void clear();

  std::string to_json() const;
  // A per-hop story of one trace, for terminal output.
  static std::string narrative(const PacketTrace& trace);

 private:
  std::deque<PacketTrace> traces_;  // deque: stable refs as traces start
  std::unordered_map<std::uint64_t, std::size_t> active_;
};

}  // namespace hydra::obs
