#include "net/switch_node.hpp"

#include <charconv>
#include <stdexcept>
#include <string_view>

namespace hydra::net {

namespace {

struct NamedHeader {
  const char* annotation;
  HeaderKind kind;
};

// Every accepted annotation; aliases name the same kind.
constexpr NamedHeader kHeaders[] = {
    // Intrinsics.
    {"std.last_hop", HeaderKind::kLastHop},
    {"std.first_hop", HeaderKind::kFirstHop},
    {"std.packet_length", HeaderKind::kPacketLength},
    // Hop / switch state.
    {"in_port", HeaderKind::kInPort},
    {"ig_port", HeaderKind::kInPort},
    {"standard_metadata.ingress_port", HeaderKind::kInPort},
    {"eg_port", HeaderKind::kEgPort},
    {"egress_port", HeaderKind::kEgPort},
    {"standard_metadata.egress_port", HeaderKind::kEgPort},
    {"switch_id", HeaderKind::kSwitchId},
    {"to_be_dropped", HeaderKind::kToBeDropped},
    // Ethernet / VLAN.
    {"eth_src", HeaderKind::kEthSrc},
    {"hdr.ethernet.src_addr", HeaderKind::kEthSrc},
    {"eth_dst", HeaderKind::kEthDst},
    {"hdr.ethernet.dst_addr", HeaderKind::kEthDst},
    {"eth_type", HeaderKind::kEthType},
    {"hdr.ethernet.ether_type", HeaderKind::kEthType},
    {"vlan_is_valid", HeaderKind::kVlanValid},
    {"vlan_id", HeaderKind::kVlanId},
    {"hdr.vlan.vid", HeaderKind::kVlanId},
    // Outer IPv4 (both the bare names and the explicit outer_ prefix).
    {"ipv4_is_valid", HeaderKind::kIpv4Valid},
    {"ipv4_src", HeaderKind::kIpv4Src},
    {"outer_ipv4_src", HeaderKind::kIpv4Src},
    {"hdr.ipv4.src_addr", HeaderKind::kIpv4Src},
    {"ipv4_dst", HeaderKind::kIpv4Dst},
    {"outer_ipv4_dst", HeaderKind::kIpv4Dst},
    {"hdr.ipv4.dst_addr", HeaderKind::kIpv4Dst},
    {"ipv4_proto", HeaderKind::kIpv4Proto},
    {"outer_ipv4_proto", HeaderKind::kIpv4Proto},
    {"hdr.ipv4.protocol", HeaderKind::kIpv4Proto},
    {"ipv4_ttl", HeaderKind::kIpv4Ttl},
    {"ipv4_dscp", HeaderKind::kIpv4Dscp},
    // Outer L4.
    {"tcp_is_valid", HeaderKind::kTcpValid},
    {"udp_is_valid", HeaderKind::kUdpValid},
    {"tcp_sport", HeaderKind::kTcpSport},
    {"outer_tcp_sport", HeaderKind::kTcpSport},
    {"tcp_dport", HeaderKind::kTcpDport},
    {"outer_tcp_dport", HeaderKind::kTcpDport},
    {"udp_sport", HeaderKind::kUdpSport},
    {"outer_udp_sport", HeaderKind::kUdpSport},
    {"udp_dport", HeaderKind::kUdpDport},
    {"outer_udp_dport", HeaderKind::kUdpDport},
    {"l4_sport", HeaderKind::kL4Sport},
    {"l4_dport", HeaderKind::kL4Dport},
    // GTP-U tunnel.
    {"gtpu_is_valid", HeaderKind::kGtpuValid},
    {"gtpu_teid", HeaderKind::kGtpuTeid},
    // Inner headers (Aether uplink direction).
    {"inner_ipv4_is_valid", HeaderKind::kInnerIpv4Valid},
    {"inner_ipv4_src", HeaderKind::kInnerIpv4Src},
    {"inner_ipv4_dst", HeaderKind::kInnerIpv4Dst},
    {"inner_ipv4_proto", HeaderKind::kInnerIpv4Proto},
    {"inner_tcp_is_valid", HeaderKind::kInnerTcpValid},
    {"inner_udp_is_valid", HeaderKind::kInnerUdpValid},
    {"inner_tcp_sport", HeaderKind::kInnerTcpSport},
    {"inner_tcp_dport", HeaderKind::kInnerTcpDport},
    {"inner_udp_sport", HeaderKind::kInnerUdpSport},
    {"inner_udp_dport", HeaderKind::kInnerUdpDport},
    // Source routing (sr_port_<i> is bound in bind_header).
    {"sr_is_valid", HeaderKind::kSrValid},
    {"sr_depth", HeaderKind::kSrDepth},
};

// L4 fields read as zero unless the IPv4 protocol says TCP/UDP.
const p4rt::L4H* l4_if(const std::optional<p4rt::Ipv4H>& ip,
                       const std::optional<p4rt::L4H>& l4,
                       std::uint8_t proto) {
  return ip && ip->proto == proto && l4 ? &*l4 : nullptr;
}

std::uint64_t sport(const p4rt::L4H* l4) { return l4 ? l4->sport : 0; }
std::uint64_t dport(const p4rt::L4H* l4) { return l4 ? l4->dport : 0; }

std::uint64_t port_or_invalid(int port) {
  return static_cast<std::uint64_t>(port < 0 ? 0xff : port);
}

}  // namespace

BoundHeader bind_header(const std::string& annotation) {
  for (const NamedHeader& h : kHeaders) {
    if (annotation == h.annotation) return {h.kind, 0};
  }
  // sr_port_<i> is the i-th remaining hop in travel order.
  constexpr std::string_view kSrPort = "sr_port_";
  if (annotation.size() > kSrPort.size() &&
      annotation.compare(0, kSrPort.size(), kSrPort) == 0) {
    const char* first = annotation.data() + kSrPort.size();
    const char* last = annotation.data() + annotation.size();
    std::uint32_t i = 0;
    const auto [end, ec] = std::from_chars(first, last, i);
    if (ec == std::errc() && end == last) return {HeaderKind::kSrPort, i};
  }
  throw std::invalid_argument("unknown header annotation '" + annotation +
                              "'");
}

std::vector<BoundHeader> bind_headers(const ir::CheckerIR& ir) {
  std::vector<BoundHeader> out;
  for (ir::FieldId f : p4rt::header_fields(ir)) {
    const ir::Field& field = ir.field(f);
    try {
      out.push_back(bind_header(field.annotation));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("header '" + field.name + "': " + e.what());
    }
  }
  return out;
}

std::uint64_t read_header(BoundHeader h, const p4rt::Packet& pkt,
                          const HopContext& ctx) {
  const auto& ip = pkt.ipv4;
  const auto& iip = pkt.inner_ipv4;
  switch (h.kind) {
    case HeaderKind::kLastHop: return ctx.last_hop;
    case HeaderKind::kFirstHop: return ctx.first_hop;
    case HeaderKind::kPacketLength:
      return static_cast<std::uint32_t>(ctx.wire_bytes);
    case HeaderKind::kInPort: return port_or_invalid(ctx.in_port);
    case HeaderKind::kEgPort: return port_or_invalid(ctx.eg_port);
    case HeaderKind::kSwitchId: return ctx.switch_tag;
    case HeaderKind::kToBeDropped: return ctx.fwd_drop;
    case HeaderKind::kEthSrc: return pkt.eth.src;
    case HeaderKind::kEthDst: return pkt.eth.dst;
    case HeaderKind::kEthType: return pkt.eth.ethertype;
    case HeaderKind::kVlanValid: return pkt.vlan.has_value();
    case HeaderKind::kVlanId: return pkt.vlan ? pkt.vlan->vid : 0;
    case HeaderKind::kIpv4Valid: return ip.has_value();
    case HeaderKind::kIpv4Src: return ip ? ip->src : 0;
    case HeaderKind::kIpv4Dst: return ip ? ip->dst : 0;
    case HeaderKind::kIpv4Proto: return ip ? ip->proto : 0;
    case HeaderKind::kIpv4Ttl: return ip ? ip->ttl : 0;
    case HeaderKind::kIpv4Dscp: return ip ? ip->dscp : 0;
    case HeaderKind::kTcpValid:
      return l4_if(ip, pkt.l4, p4rt::kProtoTcp) != nullptr;
    case HeaderKind::kUdpValid:
      return l4_if(ip, pkt.l4, p4rt::kProtoUdp) != nullptr;
    case HeaderKind::kTcpSport:
      return sport(l4_if(ip, pkt.l4, p4rt::kProtoTcp));
    case HeaderKind::kTcpDport:
      return dport(l4_if(ip, pkt.l4, p4rt::kProtoTcp));
    case HeaderKind::kUdpSport:
      return sport(l4_if(ip, pkt.l4, p4rt::kProtoUdp));
    case HeaderKind::kUdpDport:
      return dport(l4_if(ip, pkt.l4, p4rt::kProtoUdp));
    case HeaderKind::kL4Sport: return sport(pkt.l4 ? &*pkt.l4 : nullptr);
    case HeaderKind::kL4Dport: return dport(pkt.l4 ? &*pkt.l4 : nullptr);
    case HeaderKind::kGtpuValid: return pkt.gtpu.has_value();
    case HeaderKind::kGtpuTeid: return pkt.gtpu ? pkt.gtpu->teid : 0;
    case HeaderKind::kInnerIpv4Valid: return iip.has_value();
    case HeaderKind::kInnerIpv4Src: return iip ? iip->src : 0;
    case HeaderKind::kInnerIpv4Dst: return iip ? iip->dst : 0;
    case HeaderKind::kInnerIpv4Proto: return iip ? iip->proto : 0;
    case HeaderKind::kInnerTcpValid:
      return l4_if(iip, pkt.inner_l4, p4rt::kProtoTcp) != nullptr;
    case HeaderKind::kInnerUdpValid:
      return l4_if(iip, pkt.inner_l4, p4rt::kProtoUdp) != nullptr;
    case HeaderKind::kInnerTcpSport:
      return sport(l4_if(iip, pkt.inner_l4, p4rt::kProtoTcp));
    case HeaderKind::kInnerTcpDport:
      return dport(l4_if(iip, pkt.inner_l4, p4rt::kProtoTcp));
    case HeaderKind::kInnerUdpSport:
      return sport(l4_if(iip, pkt.inner_l4, p4rt::kProtoUdp));
    case HeaderKind::kInnerUdpDport:
      return dport(l4_if(iip, pkt.inner_l4, p4rt::kProtoUdp));
    // Source routing. The stack is popped from the back, so travel order
    // runs backwards; at the first hop, before any pop, this is the
    // sender's declared route.
    case HeaderKind::kSrValid: return pkt.has_sr;
    case HeaderKind::kSrDepth: return pkt.sr_stack.size();
    case HeaderKind::kSrPort:
      return h.index < pkt.sr_stack.size()
                 ? pkt.sr_stack[pkt.sr_stack.size() - 1 - h.index]
                 : 0;
  }
  return 0;
}

}  // namespace hydra::net
