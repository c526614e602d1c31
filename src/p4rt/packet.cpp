#include "p4rt/packet.hpp"

#include "util/strings.hpp"

namespace hydra::p4rt {

std::string FlowId::to_string() const {
  if (!parsed) return "<no-ipv4>";
  std::string s = str::ipv4_to_string(src_ip);
  if (src_port != 0 || dst_port != 0) {
    s.append(":").append(std::to_string(src_port));
  }
  s += " -> " + str::ipv4_to_string(dst_ip);
  if (src_port != 0 || dst_port != 0) {
    s.append(":").append(std::to_string(dst_port));
  }
  switch (proto) {
    case kProtoTcp: s += " tcp"; break;
    case kProtoUdp: s += " udp"; break;
    case kProtoIcmp: s += " icmp"; break;
    default: s += " proto=" + std::to_string(proto); break;
  }
  return s;
}

FlowId flow_of(const Packet& pkt) {
  FlowId f;
  const Ipv4H* ip = pkt.inner_ipv4 ? &*pkt.inner_ipv4
                                   : (pkt.ipv4 ? &*pkt.ipv4 : nullptr);
  if (ip == nullptr) return f;
  const L4H* l4 = pkt.inner_ipv4 ? (pkt.inner_l4 ? &*pkt.inner_l4 : nullptr)
                                 : (pkt.l4 ? &*pkt.l4 : nullptr);
  f.parsed = true;
  f.src_ip = ip->src;
  f.dst_ip = ip->dst;
  f.proto = ip->proto;
  if (l4 != nullptr) {
    f.src_port = l4->sport;
    f.dst_port = l4->dport;
  }
  return f;
}

void Packet::reuse() {
  id = 0;
  created_at = 0.0;
  hops = 0;
  eth = EthernetH{};
  vlan.reset();
  sr_stack.clear();
  has_sr = false;
  ipv4.reset();
  l4.reset();
  icmp.reset();
  gtpu.reset();
  inner_ipv4.reset();
  inner_l4.reset();
  payload_bytes = 0;
  retire_frames();
}

TeleFrame& Packet::add_frame(int checker, int wire_bytes) {
  tele_bytes += wire_bytes;
  while (first_free < tele.size() && tele[first_free].live()) ++first_free;
  if (first_free == tele.size()) tele.emplace_back();
  TeleFrame& f = tele[first_free++];
  f.checker = checker;
  return f;
}

void Packet::retire_frames() {
  for (auto& f : tele) f.retire();
  tele_bytes = 0;
  first_free = 0;
}

int Packet::base_wire_bytes() const {
  int bytes = EthernetH::kBytes;
  if (vlan) bytes += VlanH::kBytes;
  if (has_sr) bytes += 2 * static_cast<int>(sr_stack.size()) + 1;
  if (ipv4) bytes += Ipv4H::kBytes;
  if (l4) {
    bytes += ipv4 && ipv4->proto == kProtoTcp ? L4H::kTcpBytes
                                              : L4H::kUdpBytes;
  }
  if (icmp) bytes += IcmpH::kBytes;
  if (gtpu) bytes += GtpuH::kBytes;
  if (inner_ipv4) bytes += Ipv4H::kBytes;
  if (inner_l4) {
    bytes += inner_ipv4 && inner_ipv4->proto == kProtoTcp ? L4H::kTcpBytes
                                                          : L4H::kUdpBytes;
  }
  return bytes + payload_bytes;
}

Packet make_udp(std::uint32_t src_ip, std::uint32_t dst_ip,
                std::uint16_t sport, std::uint16_t dport, int payload_bytes) {
  Packet p;
  make_udp_into(p, src_ip, dst_ip, sport, dport, payload_bytes);
  return p;
}

Packet make_tcp(std::uint32_t src_ip, std::uint32_t dst_ip,
                std::uint16_t sport, std::uint16_t dport, int payload_bytes) {
  Packet p;
  make_tcp_into(p, src_ip, dst_ip, sport, dport, payload_bytes);
  return p;
}

Packet make_icmp_echo(std::uint32_t src_ip, std::uint32_t dst_ip,
                      std::uint16_t ident, std::uint16_t seq) {
  Packet p;
  make_icmp_echo_into(p, src_ip, dst_ip, ident, seq);
  return p;
}

Packet gtpu_encap(const Packet& inner, std::uint32_t outer_src,
                  std::uint32_t outer_dst, std::uint32_t teid) {
  Packet p = inner;
  gtpu_encap_inplace(p, outer_src, outer_dst, teid);
  return p;
}

Packet gtpu_decap(const Packet& outer) {
  Packet p = outer;
  gtpu_decap_inplace(p);
  return p;
}

void gtpu_encap_inplace(Packet& p, std::uint32_t outer_src,
                        std::uint32_t outer_dst, std::uint32_t teid) {
  p.inner_ipv4 = p.ipv4;
  p.inner_l4 = p.l4;
  p.ipv4 = Ipv4H{outer_src, outer_dst, kProtoUdp, 64, 0};
  p.l4 = L4H{kGtpuPort, kGtpuPort};
  p.gtpu = GtpuH{teid};
}

void gtpu_decap_inplace(Packet& p) {
  p.ipv4 = p.inner_ipv4;
  p.l4 = p.inner_l4;
  p.gtpu.reset();
  p.inner_ipv4.reset();
  p.inner_l4.reset();
}

void make_udp_into(Packet& p, std::uint32_t src_ip, std::uint32_t dst_ip,
                   std::uint16_t sport, std::uint16_t dport,
                   int payload_bytes) {
  p.ipv4 = Ipv4H{src_ip, dst_ip, kProtoUdp, 64, 0};
  p.l4 = L4H{sport, dport};
  p.payload_bytes = payload_bytes;
}

void make_tcp_into(Packet& p, std::uint32_t src_ip, std::uint32_t dst_ip,
                   std::uint16_t sport, std::uint16_t dport,
                   int payload_bytes) {
  p.ipv4 = Ipv4H{src_ip, dst_ip, kProtoTcp, 64, 0};
  p.l4 = L4H{sport, dport};
  p.payload_bytes = payload_bytes;
}

void make_icmp_echo_into(Packet& p, std::uint32_t src_ip,
                         std::uint32_t dst_ip, std::uint16_t ident,
                         std::uint16_t seq) {
  p.ipv4 = Ipv4H{src_ip, dst_ip, kProtoIcmp, 64, 0};
  p.icmp = IcmpH{8, ident, seq};
  p.payload_bytes = 56;  // standard ping payload
}

void make_gtpu_udp_into(Packet& p, std::uint32_t outer_src,
                        std::uint32_t outer_dst, std::uint32_t teid,
                        std::uint32_t inner_src, std::uint32_t inner_dst,
                        std::uint16_t sport, std::uint16_t dport,
                        int payload_bytes) {
  p.inner_ipv4 = Ipv4H{inner_src, inner_dst, kProtoUdp, 64, 0};
  p.inner_l4 = L4H{sport, dport};
  p.ipv4 = Ipv4H{outer_src, outer_dst, kProtoUdp, 64, 0};
  p.l4 = L4H{kGtpuPort, kGtpuPort};
  p.gtpu = GtpuH{teid};
  p.payload_bytes = payload_bytes;
}

}  // namespace hydra::p4rt
