// Aether's P4-based 5G User Plane Function (§5.2, Figure 11).
//
// The UPF splits processing across three kinds of tables to save ASIC
// resources — exactly the design whose sharing behaviour hides the bug the
// paper's Hydra checker catches:
//
//   * Sessions      — identifies direction and client: uplink packets are
//                     GTP-U encapsulated and matched by TEID (then
//                     decapsulated); downlink packets are matched by UE IP
//                     (then encapsulated towards the base station).
//   * Applications  — shared per-slice classifier: matches (slice, app IP
//                     prefix, L4 port range, proto) with a priority and
//                     assigns an app ID. Entries are SHARED by all clients
//                     of a slice.
//   * Terminations  — per-client: (client ID, app ID) -> forward or drop.
//                     A miss drops the packet ("app not allowed").
//
// After UPF processing the packet is routed by the fabric's IPv4 ECMP.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "forwarding/ipv4_ecmp.hpp"
#include "net/switch_node.hpp"
#include "p4rt/table.hpp"

namespace hydra::fwd {

class UpfProgram : public net::ForwardingProgram {
 public:
  // `router` handles post-UPF (and non-UPF) forwarding on this switch.
  explicit UpfProgram(std::shared_ptr<Ipv4EcmpProgram> router);

  // ---- Sessions -----------------------------------------------------------
  void add_uplink_session(std::uint32_t teid, std::uint32_t client_id,
                          std::uint32_t slice_id);
  void add_downlink_session(std::uint32_t ue_ip, std::uint32_t client_id,
                            std::uint32_t slice_id, std::uint32_t teid,
                            std::uint32_t enb_ip, std::uint32_t n3_ip);
  // PFCP session teardown. O(1) hash-probe removals (the churn hot path);
  // return the number of entries removed (0 or 1).
  int remove_uplink_session(std::uint32_t teid);
  int remove_downlink_session(std::uint32_t ue_ip);

  // ---- Applications (shared within a slice) -------------------------------
  void add_application(std::uint32_t slice_id, int priority,
                       std::uint32_t app_prefix, int prefix_len,
                       std::optional<std::uint8_t> proto,
                       std::uint16_t port_lo, std::uint16_t port_hi,
                       std::uint32_t app_id);
  // Removes the shared entry with this exact match (priority/app id are not
  // part of the identity; the controller never installs two entries with
  // the same match). Returns the number removed.
  int remove_application(std::uint32_t slice_id, std::uint32_t app_prefix,
                         int prefix_len, std::optional<std::uint8_t> proto,
                         std::uint16_t port_lo, std::uint16_t port_hi);

  // ---- Terminations (per client) -------------------------------------------
  void add_termination(std::uint32_t client_id, std::uint32_t app_id,
                       bool allow);
  int remove_termination(std::uint32_t client_id, std::uint32_t app_id);

  Decision process(p4rt::Packet& pkt, int in_port, int switch_id) override;
  std::string name() const override { return "aether-upf"; }
  // Registers all four UPF tables under fwd.upf.<table>.*.
  void attach_metrics(obs::Registry* registry) override;

  // Full-state snapshot: the four tables (in storage order, preserving
  // churn-dependent tie-breaks) plus the drop totals. Session state is
  // runtime-mutable — exactly what a restarted hydrad cannot rebuild from
  // the scenario.
  bool has_state() const override { return true; }
  void save_state(std::ostream& out) const override;
  void load_state(std::istream& in) override;

  void invalidate_caches() override {
    sessions_ul_.invalidate_cache();
    sessions_dl_.invalidate_cache();
    applications_.invalidate_cache();
    terminations_.invalidate_cache();
    if (router_ != nullptr) router_->invalidate_caches();
  }

  std::uint64_t termination_drops() const { return termination_drops_; }
  std::uint64_t session_miss_drops() const { return session_miss_drops_; }
  std::size_t application_entries() const { return applications_.size(); }

 private:
  // NOTE: the four tables below are instance-wide, so one UpfProgram
  // instance models one UPF switch (the paper's deployment shape — the UPF
  // runs on one fabric switch). Install a separate instance per switch to
  // model several.
  std::shared_ptr<Ipv4EcmpProgram> router_;

  p4rt::Table sessions_ul_{"sessions_uplink",
                           {{p4rt::MatchKind::kExact, 32}}};  // teid
  p4rt::Table sessions_dl_{"sessions_downlink",
                           {{p4rt::MatchKind::kExact, 32}}};  // ue ip
  p4rt::Table applications_{"applications",
                            {{p4rt::MatchKind::kExact, 32},    // slice
                             {p4rt::MatchKind::kTernary, 32},  // app ip
                             {p4rt::MatchKind::kRange, 16},    // l4 port
                             {p4rt::MatchKind::kTernary, 8}}}; // proto
  p4rt::Table terminations_{"terminations",
                            {{p4rt::MatchKind::kExact, 32},    // client
                             {p4rt::MatchKind::kExact, 32}}};  // app

  std::uint64_t termination_drops_ = 0;
  std::uint64_t session_miss_drops_ = 0;
};

}  // namespace hydra::fwd
