// IPv4 longest-prefix-match routing with ECMP groups — the fabric's L3
// forwarding (Aether routes IPv4 over the spines with ECMP, §5.2).
//
// One program instance serves every switch: each switch id gets its own
// LPM table whose action data selects an ECMP group; the egress port is
// chosen by a 5-tuple hash, so a flow sticks to one path while flows
// spread across the fabric.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "net/switch_node.hpp"
#include "net/topology.hpp"
#include "p4rt/table.hpp"

namespace hydra::fwd {

class Ipv4EcmpProgram : public net::ForwardingProgram {
 public:
  // Adds a route on `switch_id`: dst/len -> ECMP group of egress ports.
  // Throws std::invalid_argument for a length outside [0, 32].
  void add_route(int switch_id, std::uint32_t prefix, int prefix_len,
                 std::vector<int> ports);

  Decision process(p4rt::Packet& pkt, int in_port, int switch_id) override;
  std::string name() const override { return "ipv4-ecmp"; }
  // Route-table lookups are reported under fwd.ipv4_ecmp.routes.* — one
  // aggregate name however many switches this program serves.
  void attach_metrics(obs::Registry* registry) override;

  void invalidate_caches() override {
    for (auto& sw : switches_) sw.routes.invalidate_cache();
  }

  // 5-tuple hash used for ECMP member selection (exposed for tests).
  static std::uint64_t flow_hash(const p4rt::Packet& pkt);

  std::uint64_t ttl_drops() const { return ttl_drops_; }
  std::uint64_t miss_drops() const { return miss_drops_; }

 private:
  struct PerSwitch {
    p4rt::Table routes{"routes",
                       {{p4rt::MatchKind::kLpm, 32}}};
    std::vector<std::vector<int>> groups;  // empty: no route on this switch
  };
  void wire_switch(PerSwitch& sw);

  std::vector<PerSwitch> switches_;  // indexed by switch id
  obs::Registry* registry_ = nullptr;  // null while observability is off
  std::uint64_t ttl_drops_ = 0;
  std::uint64_t miss_drops_ = 0;
};

// Builds and installs leaf-spine routing: each leaf owns 10.0.<leaf+1>.0/24
// with /32 host routes on host-facing ports and an ECMP default towards
// all spines; each spine routes each leaf subnet down its leaf port.
std::shared_ptr<Ipv4EcmpProgram> install_leaf_spine_routing(
    net::Network& net, const net::LeafSpine& fabric);

// Fat-tree routing: edges own /24 host routes + ECMP default up; aggs
// route pod /24s down + ECMP default up to their core group; cores route
// each pod /16 down its pod port.
std::shared_ptr<Ipv4EcmpProgram> install_fat_tree_routing(
    net::Network& net, const net::FatTree& ft);

}  // namespace hydra::fwd
