// Per-hop context, header-variable binding (the "foreign function
// interface" between Indus checkers and the data plane), and the
// forwarding-program interface implemented by src/forwarding.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "ir/ir.hpp"
#include "obs/metrics.hpp"
#include "p4rt/interp.hpp"
#include "p4rt/packet.hpp"

namespace hydra::net {

// Everything a checker's header variables may observe at one hop.
struct HopContext {
  int switch_id = -1;        // topology node id
  std::uint32_t switch_tag = 0;  // stable numeric id exposed to checkers
  int in_port = -1;
  int eg_port = -1;          // -1 until forwarding decides / on drop
  bool first_hop = false;    // packet entering the network here
  bool last_hop = false;     // packet exiting the network here
  bool fwd_drop = false;     // forwarding decided to drop (UPF deny, miss)
  int wire_bytes = 0;        // packet length on the wire at this hop
};

// The header variables a checker may read (the "foreign function
// interface" between Indus checkers and the data plane). Annotations cover
// the paper's examples: switch ports (`in_port`, `eg_port`), IPv4/L4
// fields with `ipv4_*`/`outer_*`/`inner_*` prefixes and `*_is_valid`
// flags, GTP-U (`gtpu_teid`), VLAN (`vlan_id`), `to_be_dropped`,
// `switch_id`, source-route ports (`sr_port_<i>`), and the std.*
// intrinsics (first/last hop, packet length).
enum class HeaderKind : std::uint8_t {
  kLastHop, kFirstHop, kPacketLength,
  kInPort, kEgPort, kSwitchId, kToBeDropped,
  kEthSrc, kEthDst, kEthType, kVlanValid, kVlanId,
  kIpv4Valid, kIpv4Src, kIpv4Dst, kIpv4Proto, kIpv4Ttl, kIpv4Dscp,
  kTcpValid, kUdpValid, kTcpSport, kTcpDport, kUdpSport, kUdpDport,
  kL4Sport, kL4Dport,
  kGtpuValid, kGtpuTeid,
  kInnerIpv4Valid, kInnerIpv4Src, kInnerIpv4Dst, kInnerIpv4Proto,
  kInnerTcpValid, kInnerUdpValid, kInnerTcpSport, kInnerTcpDport,
  kInnerUdpSport, kInnerUdpDport,
  kSrValid, kSrDepth, kSrPort,
};

// An annotation bound once, at deploy time, so a hop reads it with a
// switch instead of string compares.
struct BoundHeader {
  HeaderKind kind = HeaderKind::kLastHop;
  std::uint32_t index = 0;  // kSrPort: position in travel order
};

// Unknown annotations throw std::invalid_argument, so checker/forwarding
// mismatches surface at deploy instead of reading zeros.
BoundHeader bind_header(const std::string& annotation);

// One binding per kHeader field of `ir`, in header-index order
// (p4rt::header_fields). Throws like bind_header, naming the field.
std::vector<BoundHeader> bind_headers(const ir::CheckerIR& ir);

std::uint64_t read_header(BoundHeader h, const p4rt::Packet& pkt,
                          const HopContext& ctx);

// A deployment's bound headers read at one hop.
class HopHeaders final : public p4rt::HeaderSource {
 public:
  HopHeaders(const std::vector<BoundHeader>& bound, const p4rt::Packet& pkt,
             const HopContext& ctx)
      : bound_(bound), pkt_(pkt), ctx_(ctx) {}

  std::uint64_t read(int header) const override {
    return read_header(bound_[static_cast<std::size_t>(header)], pkt_, ctx_);
  }

 private:
  const std::vector<BoundHeader>& bound_;
  const p4rt::Packet& pkt_;
  const HopContext& ctx_;
};

// A switch's forwarding pipeline. Implementations may rewrite the packet
// (encap/decap, source-route pop) — this is the code Hydra checkers must
// remain independent from.
class ForwardingProgram {
 public:
  virtual ~ForwardingProgram() = default;

  struct Decision {
    bool drop = false;
    int eg_port = -1;
    // Why the pipeline dropped (static string literal, e.g. "session_miss",
    // "no_route"); nullptr when forwarded or the program gives no reason.
    // Consumed by the forensics flight recorder — a literal keeps the hot
    // path allocation-free.
    const char* reason = nullptr;
  };

  virtual Decision process(p4rt::Packet& pkt, int in_port,
                           int switch_id) = 0;
  virtual std::string name() const = 0;

  // Observability hook: register this program's match-action tables (and
  // any other hot-path counters) with `registry`; a nullptr detaches every
  // handle. Called by the network when observability toggles, and again
  // for programs installed afterwards — implementations must be
  // idempotent. Default: the program exposes no metrics.
  virtual void attach_metrics(obs::Registry* registry) { (void)registry; }

  // Drops any last-hit lookup caches the program keeps. Called by
  // full_snapshot() so the snapshot point is a cache-cold boundary in the
  // snapshotting process too — a restored process necessarily starts with
  // cold caches, and flushing both sides keeps cache-hit counters on
  // identical trajectories (restart equivalence). Caches are transparent
  // perf state, so flushing never changes forwarding decisions.
  virtual void invalidate_caches() {}

  // Full-state snapshot hooks (net::Network::full_snapshot). A program
  // with runtime-MUTABLE forwarding state — PFCP session churn is the
  // canonical case — overrides these so a restarted hydrad resumes with
  // identical forwarding decisions. Programs whose tables are static
  // scenario state (routing installed at startup) keep the no-op
  // defaults; the scenario rebuilds them on restart. save_state appends
  // whitespace-separated tokens; load_state must consume exactly what
  // save_state wrote (p4rt/table_io.hpp is the intended codec).
  virtual bool has_state() const { return false; }
  virtual void save_state(std::ostream& out) const { (void)out; }
  virtual void load_state(std::istream& in) { (void)in; }
};

}  // namespace hydra::net
