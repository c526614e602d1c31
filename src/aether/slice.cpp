#include "aether/slice.hpp"

#include "p4rt/packet.hpp"
#include "util/bitvec.hpp"
#include "util/strings.hpp"

namespace hydra::aether {

std::string FilteringRule::to_string() const {
  std::string proto_s = "any";
  if (proto) {
    proto_s = *proto == p4rt::kProtoUdp   ? "UDP"
              : *proto == p4rt::kProtoTcp ? "TCP"
                                          : std::to_string(*proto);
  }
  std::string port_s = "any";
  if (!(port_lo == 0 && port_hi == 0xffff)) {
    port_s = std::to_string(port_lo);
    if (port_hi != port_lo) port_s.append("-").append(std::to_string(port_hi));
  }
  return std::to_string(priority) + ":" + str::ipv4_to_string(app_prefix) +
         "/" + std::to_string(prefix_len) + ":" + proto_s + ":" + port_s +
         ":" + (action == FilterAction::kAllow ? "allow" : "deny");
}

bool FilteringRule::matches(std::uint32_t ip, std::uint8_t proto_v,
                            std::uint16_t port) const {
  const auto mask =
      static_cast<std::uint32_t>(BitVec::prefix_mask(32, prefix_len));
  if ((ip & mask) != (app_prefix & mask)) return false;
  if (proto && *proto != proto_v) return false;
  return port_lo <= port && port <= port_hi;
}

bool FilteringRule::same_match(const FilteringRule& other) const {
  return app_prefix == other.app_prefix && prefix_len == other.prefix_len &&
         proto == other.proto && port_lo == other.port_lo &&
         port_hi == other.port_hi && priority == other.priority &&
         action == other.action;
}

FilterAction Slice::decide(std::uint32_t app_ip, std::uint8_t proto,
                           std::uint16_t port) const {
  const FilteringRule* best = nullptr;
  for (const auto& r : rules) {
    if (!r.matches(app_ip, proto, port)) continue;
    if (best == nullptr || r.priority > best->priority) best = &r;
  }
  return best != nullptr ? best->action : FilterAction::kDeny;
}

Slice example_camera_slice(std::uint32_t id) {
  Slice s;
  s.id = id;
  s.name = "camera-slice";
  FilteringRule deny_all;
  deny_all.priority = 10;
  deny_all.action = FilterAction::kDeny;
  FilteringRule allow_udp81;
  allow_udp81.priority = 20;
  allow_udp81.proto = p4rt::kProtoUdp;
  allow_udp81.port_lo = 81;
  allow_udp81.port_hi = 81;
  allow_udp81.action = FilterAction::kAllow;
  s.rules = {deny_all, allow_udp81};
  return s;
}

}  // namespace hydra::aether
