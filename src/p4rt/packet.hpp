// Simulation packet model. Headers are typed structs rather than raw bytes
// — the simulator never needs byte-exact serialization, but wire sizes are
// computed faithfully (including Hydra telemetry bytes) so that
// serialization delay and throughput numbers are meaningful.
//
// The header set covers everything the paper's deployments need:
// Ethernet/VLAN, IPv4, TCP/UDP/ICMP, GTP-U encapsulation (Aether UPF), a
// source-routing port stack (§5.1), and per-checker Hydra telemetry frames.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace hydra::p4rt {

struct EthernetH {
  std::uint64_t dst = 0;  // 48 bits used
  std::uint64_t src = 0;
  std::uint16_t ethertype = 0x0800;
  static constexpr int kBytes = 14;
};

struct VlanH {
  std::uint16_t vid = 0;
  static constexpr int kBytes = 4;
};

struct Ipv4H {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint8_t proto = 17;
  std::uint8_t ttl = 64;
  std::uint8_t dscp = 0;
  static constexpr int kBytes = 20;
};

// Unified TCP/UDP view; which one it is follows from ipv4.proto.
struct L4H {
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  static constexpr int kUdpBytes = 8;
  static constexpr int kTcpBytes = 20;
};

struct IcmpH {
  std::uint8_t type = 8;  // echo request
  std::uint16_t ident = 0;
  std::uint16_t seq = 0;
  static constexpr int kBytes = 8;
};

// GTP-U tunnel header (outer UDP dport 2152 in Aether).
struct GtpuH {
  std::uint32_t teid = 0;
  static constexpr int kBytes = 8;
};

inline constexpr std::uint8_t kProtoIcmp = 1;
inline constexpr std::uint8_t kProtoTcp = 6;
inline constexpr std::uint8_t kProtoUdp = 17;
inline constexpr std::uint16_t kGtpuPort = 2152;

// Telemetry carried for one deployed checker: one word per tele field, in
// the order of its TelemetryLayout::entries (tele fields in FieldId order),
// each holding the field's value at the entry's width. A live frame always
// has exactly as many words as the layout of the generation that stamped it.
struct TeleFrame {
  int checker = -1;  // deployment id assigned by the network
  std::vector<std::uint64_t> words;

  // Fault-injection wire damage (net/faults.hpp). When a corruption fault
  // hits this frame, the injector serializes it through the real codec,
  // damages the bytes, and stores them here with `damaged` set; the next
  // switch must re-parse `wire` before trusting `words` (stale from the
  // hop before the damage). A parse failure is a fail-closed checker
  // reject, never a throw. `wire` may legitimately be empty (truncated to
  // nothing), hence the explicit flag.
  std::vector<std::uint8_t> wire;
  bool damaged = false;

  // Set when this frame's telemetry ran on a switch whose sensor state was
  // freshly wiped by a restart ("cold"). Checker verdicts for cold frames
  // are suppressed — zeroed registers would otherwise raise false
  // violations. Metadata only; conceptually one reserved header bit.
  bool cold = false;

  // Deployment generation the frame was stamped with at its first hop.
  // Deployment ids are reused after undeploy; the generation distinguishes
  // a frame from the slot's previous occupant so a rolling swap can reject
  // stragglers fail-closed instead of misattributing them (conceptually
  // part of the reserved header word next to `cold`).
  std::uint32_t generation = 0;

  // A frame with checker < 0 is RETIRED: its slot (and `words`, and the
  // capacity of `wire`) stays in the packet for reuse, but it is not live
  // on the wire — frame lookups, wire sizing, and corruption all skip it.
  // Pooled packets retire frames instead of erasing them so the per-hop
  // telemetry path stays allocation-free (see Packet::retire_frames), and
  // a slot re-armed by the same checker needs no resizing.
  bool live() const { return checker >= 0; }
  void retire() {
    checker = -1;
    wire.clear();
    damaged = false;
    cold = false;
    generation = 0;
  }
};

// Flow identity parsed from a packet's headers, preferring the inner
// (tunneled) headers when a GTP-U encapsulation is present — reports and
// traces should name the user flow, not the tunnel. `parsed` is false for
// packets without an IPv4 header (then the numeric fields are zero).
struct FlowId {
  bool parsed = false;
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t proto = 0;

  // "10.0.1.1:40000 -> 10.0.2.1:81 udp", or "<no-ipv4>" when unparseable.
  std::string to_string() const;
};

struct Packet {
  std::uint64_t id = 0;
  double created_at = 0.0;  // simulation seconds
  int hops = 0;  // switches traversed so far (metadata, not on the wire)

  EthernetH eth;
  std::optional<VlanH> vlan;
  // Source-routing stack: egress ports, next hop at the back (popped).
  std::vector<std::uint16_t> sr_stack;
  bool has_sr = false;

  std::optional<Ipv4H> ipv4;     // outer
  std::optional<L4H> l4;         // outer L4
  std::optional<IcmpH> icmp;
  std::optional<GtpuH> gtpu;
  std::optional<Ipv4H> inner_ipv4;
  std::optional<L4H> inner_l4;

  int payload_bytes = 0;

  std::vector<TeleFrame> tele;  // one frame per deployed checker
  // Wire bytes of the live frames: add_frame adds each frame's layout
  // bytes and retire_frames zeroes it, so sizing a packet walks no frames.
  int tele_bytes = 0;
  // Every tele slot below this index is live; add_frame's scan starts here.
  std::uint32_t first_free = 0;

  // Deployment `checker`'s live frame, or null. Deployments stamp in
  // order, so tele[checker] is tried before the scan.
  const TeleFrame* frame(int checker) const {
    const auto at = static_cast<std::size_t>(checker);
    if (at < tele.size() && tele[at].checker == checker) return &tele[at];
    for (const auto& f : tele) {
      if (f.checker == checker) return &f;
    }
    return nullptr;
  }
  TeleFrame* frame(int checker) {
    return const_cast<TeleFrame*>(std::as_const(*this).frame(checker));
  }

  // ---- pooling support (util::Arena<Packet>) -----------------------------
  // Pooled packets are default-constructed once and recycled; these reset a
  // recycled slot without surrendering any internal buffer capacity.

  // Back to the default-constructed observable state; tele frames are
  // retired in place (capacity kept), sr_stack/wire cleared not shrunk.
  void reuse();
  // First retired tele slot re-armed for `checker` (appends only when no
  // retired slot exists — steady state after the first circulation never
  // appends), carrying `wire_bytes` on the wire. Returns the live frame.
  TeleFrame& add_frame(int checker, int wire_bytes);
  // Retires every live frame (the last-hop telemetry strip).
  void retire_frames();
  // Any live telemetry aboard? Replaces `!tele.empty()` checks now that
  // retired slots linger in `tele`.
  bool has_live_tele() const {
    return std::any_of(tele.begin(), tele.end(),
                       std::mem_fn(&TeleFrame::live));
  }

  // Wire size of the header structs + payload, telemetry excluded.
  int base_wire_bytes() const;
  int wire_bytes() const { return base_wire_bytes() + tele_bytes; }
};

FlowId flow_of(const Packet& pkt);

// By-value builders for traffic generators and tests: each wraps its
// in-place builder below on a fresh (or copied) Packet.
Packet make_udp(std::uint32_t src_ip, std::uint32_t dst_ip,
                std::uint16_t sport, std::uint16_t dport, int payload_bytes);
Packet make_tcp(std::uint32_t src_ip, std::uint32_t dst_ip,
                std::uint16_t sport, std::uint16_t dport, int payload_bytes);
Packet make_icmp_echo(std::uint32_t src_ip, std::uint32_t dst_ip,
                      std::uint16_t ident, std::uint16_t seq);
// Wraps `inner` into a GTP-U tunnel towards the given endpoints.
Packet gtpu_encap(const Packet& inner, std::uint32_t outer_src,
                  std::uint32_t outer_dst, std::uint32_t teid);
Packet gtpu_decap(const Packet& outer);
// In-place encap/decap: mutates `p` directly — no Packet copy (and thus no
// vector allocations for its telemetry frames) on the UPF hot path.
void gtpu_encap_inplace(Packet& p, std::uint32_t outer_src,
                        std::uint32_t outer_dst, std::uint32_t teid);
void gtpu_decap_inplace(Packet& p);

// In-place builders: the header setup on a packet in its default state (a
// fresh Packet, or a pooled slot from Network::alloc_packet, which resets
// it), with no temporary Packet. They set only the headers they build.
void make_udp_into(Packet& p, std::uint32_t src_ip, std::uint32_t dst_ip,
                   std::uint16_t sport, std::uint16_t dport,
                   int payload_bytes);
void make_tcp_into(Packet& p, std::uint32_t src_ip, std::uint32_t dst_ip,
                   std::uint16_t sport, std::uint16_t dport,
                   int payload_bytes);
void make_icmp_echo_into(Packet& p, std::uint32_t src_ip,
                         std::uint32_t dst_ip, std::uint16_t ident,
                         std::uint16_t seq);
// In-place GTP-U uplink build: UDP inner headers + tunnel in one pass.
void make_gtpu_udp_into(Packet& p, std::uint32_t outer_src,
                        std::uint32_t outer_dst, std::uint32_t teid,
                        std::uint32_t inner_src, std::uint32_t inner_dst,
                        std::uint16_t sport, std::uint16_t dport,
                        int payload_bytes);

}  // namespace hydra::p4rt
