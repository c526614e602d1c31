// Streaming million-subscriber session churn for the Aether UPF (§5.2).
//
// Drives a large UE population through PFCP attach/detach churn while a
// fraction of the active sessions send GTP-U uplink traffic — the workload
// that exercises the shared-Applications-table optimization (and its
// teardown path) at scale.
//
// Memory is bounded and slot-indexed: a subscriber's imsi / UE IP / TEID
// are all DERIVED from its slot number, so per-subscriber state reduces to
// the active-set bookkeeping (two uint32 vectors) regardless of how many
// attach/detach cycles run. Packet construction is pooled and in-place, so
// steady-state generation allocates nothing on the hot path (the arena
// audit counter stays flat after warmup).
//
// The generator is one TickTarget driving a superposed Poisson process:
// each tick is a churn event (attach or detach of a random subscriber)
// with probability churn_rate / (churn_rate + packet_rate), else an uplink
// packet from a random active session. Attach/detach mutate UPF and
// checker tables synchronously from tick(), between hops.
#pragma once

#include <cstdint>
#include <vector>

#include "aether/controller.hpp"
#include "net/event.hpp"
#include "net/network.hpp"
#include "util/rng.hpp"

namespace hydra::aether {

class SessionChurnGenerator : public net::TickTarget {
 public:
  struct Config {
    std::uint32_t sessions = 10000;  // subscriber population (slot count)
    double churn_per_s = 0.0;        // attach/detach events per second
    double packets_per_s = 1000.0;   // uplink packets per second
    std::uint32_t slice_id = 1;
    int enb_host = 0;          // host injecting GTP-U uplinks (the eNB)
    std::uint32_t enb_ip = 0;  // outer GTP-U source
    std::uint32_t n3_ip = 0;   // outer GTP-U destination (UPF N3)
    std::uint32_t app_ip = 0;  // inner destination (application server)
    std::uint16_t app_port = 81;
    int payload_bytes = 64;
    std::uint64_t seed = 1;
  };

  SessionChurnGenerator(net::Network& net, AetherController& ctl,
                        Config cfg);

  // Attaches the whole subscriber population up front (control-plane only;
  // schedules no simulation events). Each attach is wall-clock timed into
  // attach_latencies() — the rule-push latency a PFCP establishment sees.
  void prefill();

  // Runs the tick chain from `t0` until `t0 + duration_s`. On a chain
  // that still has a tick pending it only moves the deadline, so the
  // chain goes on (or stops) with its own RNG draws: start(0, 1),
  // run_until(0.5), start(0.5, 1) runs exactly like start(0, 1.5).
  void start(double t0, double duration_s);
  void tick(net::SimTime now) override;

  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t attaches() const { return attaches_; }
  std::uint64_t detaches() const { return detaches_; }
  std::size_t active_sessions() const { return active_.size(); }

  // Wall-clock seconds per attach (prefill + churn). Excluded from any
  // deterministic metrics output — sim-domain results never depend on it.
  const std::vector<double>& attach_latencies() const {
    return attach_latencies_;
  }
  void set_latency_sampling(bool on) { sample_latency_ = on; }

  // Slot -> subscriber identity. Derivations, not storage: a slot that
  // detaches and later re-attaches is the same subscriber (same imsi, so
  // the controller's client-id binding is reused).
  std::uint64_t imsi_of(std::uint32_t slot) const {
    return kImsiBase + slot;
  }
  std::uint32_t ue_ip_of(std::uint32_t slot) const { return kUeBase + slot; }
  std::uint32_t teid_of(std::uint32_t slot) const { return 1 + slot; }

 private:
  // UE addresses live in 20.0.0.0/6 — disjoint from the 10.x fabric and
  // host space for populations up to tens of millions.
  static constexpr std::uint64_t kImsiBase = 123450000ULL;
  static constexpr std::uint32_t kUeBase = 0x50000001u;

  void attach_next_free();
  void detach_random();
  void send_uplink();

  net::Network& net_;
  AetherController& ctl_;
  Config cfg_;
  Rng rng_;
  double deadline_ = 0.0;
  bool pending_ = false;  // a tick of this chain is in the event queue
  std::uint64_t packets_sent_ = 0;
  std::uint64_t attaches_ = 0;
  std::uint64_t detaches_ = 0;
  bool sample_latency_ = true;
  std::vector<std::uint32_t> active_;      // attached slots, unordered
  std::vector<std::uint32_t> free_slots_;  // detached slots, LIFO
  std::vector<double> attach_latencies_;
};

}  // namespace hydra::aether
