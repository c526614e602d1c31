#include "forwarding/source_route.hpp"

#include <algorithm>
#include <stdexcept>

namespace hydra::fwd {

SourceRouteProgram::Decision SourceRouteProgram::process(p4rt::Packet& pkt,
                                                         int /*in_port*/,
                                                         int /*switch_id*/) {
  Decision d;
  if (!pkt.has_sr || pkt.sr_stack.empty()) {
    ++underflow_drops_;
    d.drop = true;
    d.reason = "sr_underflow";
    return d;
  }
  d.eg_port = pkt.sr_stack.back();
  pkt.sr_stack.pop_back();
  if (pkt.sr_stack.empty()) pkt.has_sr = false;  // last hop strips the stack
  return d;
}

void set_source_route(p4rt::Packet& pkt, const std::vector<int>& ports) {
  pkt.sr_stack.clear();
  for (auto it = ports.rbegin(); it != ports.rend(); ++it) {
    pkt.sr_stack.push_back(static_cast<std::uint16_t>(*it));
  }
  pkt.has_sr = true;
}

std::vector<int> leaf_spine_route(const net::LeafSpine& fabric, int src_host,
                                  int dst_host, int via_spine_index) {
  auto locate = [&fabric](int host) -> std::pair<int, int> {
    for (std::size_t l = 0; l < fabric.hosts.size(); ++l) {
      const auto& hs = fabric.hosts[l];
      const auto it = std::find(hs.begin(), hs.end(), host);
      if (it != hs.end()) {
        return {static_cast<int>(l), static_cast<int>(it - hs.begin())};
      }
    }
    throw std::invalid_argument("host not in fabric");
  };
  const auto [src_leaf, src_idx] = locate(src_host);
  const auto [dst_leaf, dst_idx] = locate(dst_host);
  std::vector<int> ports;
  if (src_leaf == dst_leaf) {
    ports.push_back(fabric.leaf_host_port(dst_idx));
    return ports;
  }
  ports.push_back(fabric.leaf_uplink_port(via_spine_index));  // at src leaf
  ports.push_back(fabric.spine_down_port(dst_leaf));          // at spine
  ports.push_back(fabric.leaf_host_port(dst_idx));            // at dst leaf
  return ports;
}

}  // namespace hydra::fwd
