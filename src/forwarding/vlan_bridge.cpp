#include "forwarding/vlan_bridge.hpp"

namespace hydra::fwd {

void VlanBridgeProgram::add_member(int switch_id, int port,
                                   std::uint16_t vid) {
  switches_[switch_id].members[port].insert(vid);
}

void VlanBridgeProgram::add_l2_entry(int switch_id, std::uint16_t vid,
                                     std::uint64_t mac, int port) {
  switches_[switch_id].l2.insert_exact(
      {BitVec(16, vid), BitVec(48, mac)},
      {BitVec(16, static_cast<std::uint64_t>(port))});
}

VlanBridgeProgram::Decision VlanBridgeProgram::process(p4rt::Packet& pkt,
                                                       int in_port,
                                                       int switch_id) {
  Decision d;
  const auto it = switches_.find(switch_id);
  if (it == switches_.end() || !pkt.vlan) {
    d.drop = true;
    d.reason = "no_vlan";
    return d;
  }
  PerSwitch& sw = it->second;
  const std::uint16_t vid = pkt.vlan->vid;
  // Ingress VLAN membership check.
  const auto mem = sw.members.find(in_port);
  if (mem == sw.members.end() || mem->second.count(vid) == 0U) {
    ++membership_drops_;
    d.drop = true;
    d.reason = "ingress_membership";
    return d;
  }
  const std::uint64_t l2_key[] = {vid, pkt.eth.dst & BitVec::mask(48)};
  const p4rt::TableEntry* e = sw.l2.lookup(l2_key);
  if (e == nullptr) {
    ++l2_miss_drops_;
    d.drop = true;
    d.reason = "l2_miss";
    return d;
  }
  const int out = static_cast<int>(e->action_data[0].value());
  const auto out_mem = sw.members.find(out);
  if (out_mem == sw.members.end() || out_mem->second.count(vid) == 0U) {
    ++membership_drops_;
    d.drop = true;
    d.reason = "egress_membership";
    return d;
  }
  d.eg_port = out;
  return d;
}

}  // namespace hydra::fwd
