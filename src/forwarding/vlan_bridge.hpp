// L2 bridging with VLAN isolation within a rack (one of the Aether fabric
// features, §5.2): forwarding matches (vlan, dst MAC), and a frame may only
// egress ports configured for its VLAN. The Hydra "VLAN isolation" checker
// verifies the isolation property independently of this implementation.
#pragma once

#include <cstdint>
#include <map>
#include <set>

#include "net/switch_node.hpp"
#include "p4rt/table.hpp"

namespace hydra::fwd {

class VlanBridgeProgram : public net::ForwardingProgram {
 public:
  // Port membership: which VLANs a port carries on a given switch.
  void add_member(int switch_id, int port, std::uint16_t vid);
  // Static L2 entry: (vid, mac) -> port.
  void add_l2_entry(int switch_id, std::uint16_t vid, std::uint64_t mac,
                    int port);

  Decision process(p4rt::Packet& pkt, int in_port, int switch_id) override;
  std::string name() const override { return "vlan-bridge"; }

  void invalidate_caches() override {
    for (auto& [id, sw] : switches_) sw.l2.invalidate_cache();
  }

  std::uint64_t membership_drops() const { return membership_drops_; }
  std::uint64_t l2_miss_drops() const { return l2_miss_drops_; }

 private:
  // Mutable lookup state is per switch.
  struct PerSwitch {
    std::map<int, std::set<std::uint16_t>> members;  // port -> vids
    p4rt::Table l2{"l2",
                   {{p4rt::MatchKind::kExact, 16},
                    {p4rt::MatchKind::kExact, 48}}};
  };
  std::map<int, PerSwitch> switches_;
  std::uint64_t membership_drops_ = 0;
  std::uint64_t l2_miss_drops_ = 0;
};

}  // namespace hydra::fwd
