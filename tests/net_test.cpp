// Unit and integration tests for the network simulator: event queue,
// topology builders, link model, end-to-end delivery, ECMP spreading, and
// the Hydra per-hop pipeline mechanics.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "forwarding/ipv4_ecmp.hpp"
#include "forwarding/source_route.hpp"
#include "hydra/hydra.hpp"
#include "net/event.hpp"
#include "net/link.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "net/traffic.hpp"

namespace hydra::p4rt {
// The entry store behind a table copy, to tell shared copies apart.
struct TablePeer {
  static const void* store(const Table& t) { return t.store_.get(); }
};
}  // namespace hydra::p4rt

namespace hydra::net {
namespace {

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, StableForEqualTimestamps) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(5.0, [&] { ++fired; });
  q.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, HandlersMayScheduleMore) {
  EventQueue q;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) q.schedule_in(1.0, tick);
  };
  q.schedule_at(0.0, tick);
  q.run();
  EXPECT_EQ(count, 5);
}

TEST(EventQueue, PastSchedulingRejected) {
  EventQueue q;
  q.schedule_at(5.0, [] {});
  q.run();
  EXPECT_THROW(q.schedule_at(1.0, [] {}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

TEST(Topology, LeafSpineShape) {
  const auto fabric = make_leaf_spine(2, 2, 2);
  EXPECT_EQ(fabric.leaves.size(), 2u);
  EXPECT_EQ(fabric.spines.size(), 2u);
  // 4 hosts + 4 switches.
  EXPECT_EQ(fabric.topo.node_count(), 8);
  // 4 host links + 4 fabric links.
  EXPECT_EQ(fabric.topo.links().size(), 8u);
}

TEST(Topology, LeafSpinePortConventions) {
  const auto fabric = make_leaf_spine(2, 2, 2);
  const int leaf0 = fabric.leaves[0];
  // Host 0 of leaf 0 is on port 1.
  const auto peer = fabric.topo.peer({leaf0, fabric.leaf_host_port(0)});
  ASSERT_TRUE(peer.has_value());
  EXPECT_EQ(peer->node, fabric.hosts[0][0]);
  // Uplink 0 goes to spine 0.
  const auto up = fabric.topo.peer({leaf0, fabric.leaf_uplink_port(0)});
  ASSERT_TRUE(up.has_value());
  EXPECT_EQ(up->node, fabric.spines[0]);
}

TEST(Topology, HostAddressing) {
  const auto fabric = make_leaf_spine(2, 2, 2);
  // 10.0.<leaf+1>.<counter>.
  EXPECT_EQ(fabric.topo.node(fabric.hosts[0][0]).ip, 0x0a000101u);
  EXPECT_EQ(fabric.topo.node(fabric.hosts[1][0]).ip, 0x0a000203u);
}

TEST(Topology, HostFacingDetection) {
  const auto fabric = make_leaf_spine(2, 2, 2);
  EXPECT_TRUE(fabric.topo.host_facing({fabric.leaves[0], 1}));
  EXPECT_FALSE(
      fabric.topo.host_facing({fabric.leaves[0], fabric.leaf_uplink_port(0)}));
}

TEST(Topology, DoubleConnectRejected) {
  Topology t;
  const int a = t.add_switch("a");
  const int b = t.add_switch("b");
  const int c = t.add_switch("c");
  t.add_link({a, 1}, {b, 1});
  EXPECT_THROW(t.add_link({a, 1}, {c, 1}), std::invalid_argument);
}

// Linear scans over the link list: the reference the port table must
// match.
int scan_link_index(const Topology& t, PortRef p) {
  for (std::size_t i = 0; i < t.links().size(); ++i) {
    if (t.links()[i].a == p || t.links()[i].b == p) return static_cast<int>(i);
  }
  return -1;
}

std::optional<PortRef> scan_peer(const Topology& t, PortRef p) {
  for (const auto& l : t.links()) {
    if (l.a == p) return l.b;
    if (l.b == p) return l.a;
  }
  return std::nullopt;
}

bool scan_host_facing(const Topology& t, PortRef p) {
  const auto other = scan_peer(t, p);
  return other && t.is_host(other->node);
}

void expect_ports_match_scan(const Topology& t, PortRef p) {
  SCOPED_TRACE("node " + std::to_string(p.node) + " port " +
               std::to_string(p.port));
  EXPECT_EQ(t.link_index(p), scan_link_index(t, p));
  EXPECT_EQ(t.peer(p), scan_peer(t, p));
  EXPECT_EQ(t.host_facing(p), scan_host_facing(t, p));
}

// Every node, every port in [-1, highest port + 1].
void expect_table_matches_scan(const Topology& t) {
  for (int n = 0; n < t.node_count(); ++n) {
    int highest = -1;
    for (const auto& l : t.links()) {
      if (l.a.node == n) highest = std::max(highest, l.a.port);
      if (l.b.node == n) highest = std::max(highest, l.b.port);
    }
    for (int port = -1; port <= highest + 1; ++port) {
      expect_ports_match_scan(t, {n, port});
    }
  }
}

// Port numbers with gaps, a port far past the others (the table widens
// while links are added), and a cable looped back into the same switch.
Topology gappy_topology() {
  Topology t;
  const int s0 = t.add_switch("s0");
  const int s1 = t.add_switch("s1");
  const int h0 = t.add_host("h0", 0x0a000001u);
  t.add_link({h0, 0}, {s0, 5});
  t.add_link({s0, 2}, {s1, 9});
  const int s2 = t.add_switch("s2");  // added after the table has rows
  const int h1 = t.add_host("h1", 0x0a000002u);
  t.add_link({s1, 0}, {s2, 3});
  t.add_link({h1, 0}, {s2, 40});
  t.add_link({s2, 7}, {s2, 11});
  return t;
}

TEST(Topology, PortTableMatchesLinearScan) {
  expect_table_matches_scan(make_leaf_spine(8, 8, 2).topo);
  expect_table_matches_scan(make_fat_tree(4).topo);
  expect_table_matches_scan(gappy_topology());
}

TEST(Topology, OutOfRangePortRefsReadUnconnected) {
  const Topology t = gappy_topology();
  const int n = t.node_count();
  constexpr int kMin = std::numeric_limits<int>::min();
  constexpr int kMax = std::numeric_limits<int>::max();
  for (const PortRef p : std::vector<PortRef>{{-1, 0}, {-7, 5}, {kMin, kMin},
                                              {n, 0}, {n + 100, 1},
                                              {kMax, kMax}, {0, -1},
                                              {0, 1000}, {0, kMax},
                                              {2, Topology::kMaxPort + 1}}) {
    EXPECT_EQ(t.link_index(p), -1);
    EXPECT_FALSE(t.peer(p).has_value());
    EXPECT_FALSE(t.host_facing(p));
  }
}

TEST(Topology, AddLinkRejectsBadPortsWithoutChangingTheTable) {
  Topology t = gappy_topology();
  const std::size_t links = t.links().size();
  EXPECT_THROW(t.add_link({0, -1}, {1, 1}), std::invalid_argument);
  EXPECT_THROW(t.add_link({0, 1}, {1, -3}), std::invalid_argument);
  EXPECT_THROW(t.add_link({0, Topology::kMaxPort + 1}, {1, 1}),
               std::invalid_argument);
  // Already connected, on either end; the free end past the table must
  // not widen it either.
  EXPECT_THROW(t.add_link({0, 5}, {1, 100}), std::invalid_argument);
  EXPECT_THROW(t.add_link({1, 100}, {0, 2}), std::invalid_argument);
  EXPECT_EQ(t.links().size(), links);
  expect_table_matches_scan(t);
  expect_ports_match_scan(t, {1, 100});
  // The ports the rejected calls named are still free.
  t.add_link({0, 1}, {1, 1});
  EXPECT_EQ(t.link_index({0, 1}), static_cast<int>(links));
  expect_table_matches_scan(t);
}

// ---------------------------------------------------------------------------
// Link
// ---------------------------------------------------------------------------

TEST(Link, SerializationPlusPropagation) {
  Link link(LinkSpec{{0, 0}, {1, 0}, 1e-6, 10.0});  // 10 Gb/s, 1 us
  const auto arrival = link.transmit(0, 0.0, 1250);  // 1250B = 1 us at 10G
  ASSERT_TRUE(arrival.has_value());
  EXPECT_NEAR(*arrival, 2e-6, 1e-12);
}

TEST(Link, QueueingDelaysSubsequentPackets) {
  Link link(LinkSpec{{0, 0}, {1, 0}, 0.0, 10.0});
  const auto a1 = link.transmit(0, 0.0, 1250);
  const auto a2 = link.transmit(0, 0.0, 1250);
  ASSERT_TRUE(a1 && a2);
  EXPECT_NEAR(*a2 - *a1, 1e-6, 1e-12);
}

TEST(Link, BufferOverflowDrops) {
  Link link(LinkSpec{{0, 0}, {1, 0}, 0.0, 0.001});  // 1 Mb/s: slow
  link.set_buffer_bytes(3000);
  int delivered = 0;
  for (int i = 0; i < 10; ++i) {
    if (link.transmit(0, 0.0, 1500)) ++delivered;
  }
  EXPECT_LT(delivered, 10);
  EXPECT_GT(link.stats(0).drops, 0u);
}

TEST(Link, DirectionsAreIndependent) {
  Link link(LinkSpec{{0, 0}, {1, 0}, 0.0, 10.0});
  link.transmit(0, 0.0, 1250);
  const auto rev = link.transmit(1, 0.0, 1250);
  ASSERT_TRUE(rev.has_value());
  EXPECT_NEAR(*rev, 1e-6, 1e-12);  // no queueing from the other direction
}

// ---------------------------------------------------------------------------
// Network end-to-end
// ---------------------------------------------------------------------------

struct Fixture {
  LeafSpine fabric = make_leaf_spine(2, 2, 2);
  Network net{fabric.topo};
  std::shared_ptr<fwd::Ipv4EcmpProgram> routing =
      fwd::install_leaf_spine_routing(net, fabric);

  int h(int leaf, int i) const {
    return fabric.hosts[static_cast<std::size_t>(leaf)]
                       [static_cast<std::size_t>(i)];
  }
  std::uint32_t ip(int host) const { return net.topo().node(host).ip; }
};

TEST(Network, DeliversAcrossFabric) {
  Fixture f;
  int got = 0;
  f.net.host(f.h(1, 0)).add_sink([&](const p4rt::Packet&, double) { ++got; });
  f.net.send_from_host(f.h(0, 0),
                       p4rt::make_udp(f.ip(f.h(0, 0)), f.ip(f.h(1, 0)),
                                      1000, 2000, 100));
  f.net.events().run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(f.net.counters().delivered, 1u);
}

TEST(Network, DeliversWithinLeaf) {
  Fixture f;
  int got = 0;
  f.net.host(f.h(0, 1)).add_sink([&](const p4rt::Packet&, double) { ++got; });
  f.net.send_from_host(f.h(0, 0),
                       p4rt::make_udp(f.ip(f.h(0, 0)), f.ip(f.h(0, 1)),
                                      1000, 2000, 100));
  f.net.events().run();
  EXPECT_EQ(got, 1);
}

TEST(Network, PingGetsEchoReply) {
  Fixture f;
  PingProbe ping(f.net, f.h(0, 0), f.h(1, 1), 0.01);
  ping.start(0.0, 0.1);
  f.net.events().run();
  EXPECT_GT(ping.samples().size(), 5u);
  for (const auto& s : ping.samples()) {
    EXPECT_GT(s.rtt, 0.0);
    EXPECT_LT(s.rtt, 1e-3);
  }
}

TEST(Network, EcmpSpreadsFlowsAcrossSpines) {
  Fixture f;
  // Many distinct flows; both uplinks should carry traffic.
  for (int i = 0; i < 64; ++i) {
    f.net.send_from_host(
        f.h(0, 0),
        p4rt::make_udp(f.ip(f.h(0, 0)), f.ip(f.h(1, 0)),
                       static_cast<std::uint16_t>(1000 + i), 2000, 100));
  }
  f.net.events().run();
  std::uint64_t spine_pkts[2] = {0, 0};
  for (std::size_t li = 0; li < f.net.link_count(); ++li) {
    const auto& spec = f.net.link(static_cast<int>(li)).spec();
    for (int j = 0; j < 2; ++j) {
      const int sp = f.fabric.spines[static_cast<std::size_t>(j)];
      if (spec.a.node == sp || spec.b.node == sp) {
        spine_pkts[j] += f.net.link(static_cast<int>(li)).stats(0).packets +
                         f.net.link(static_cast<int>(li)).stats(1).packets;
      }
    }
  }
  EXPECT_GT(spine_pkts[0], 0u);
  EXPECT_GT(spine_pkts[1], 0u);
}

TEST(Network, SameFlowSticksToOnePath) {
  Fixture f;
  const auto p = p4rt::make_udp(1, 2, 3, 4, 0);
  const auto h1 = fwd::Ipv4EcmpProgram::flow_hash(p);
  const auto h2 = fwd::Ipv4EcmpProgram::flow_hash(p);
  EXPECT_EQ(h1, h2);
}

TEST(Network, CountersTrackDrops) {
  Fixture f;
  // No route for this destination: 10.9.9.9 falls to the leaf default
  // route, reaches a spine, misses there, and is dropped.
  f.net.send_from_host(f.h(0, 0),
                       p4rt::make_udp(f.ip(f.h(0, 0)), 0x0a090909, 1, 2, 10));
  f.net.events().run();
  EXPECT_EQ(f.net.counters().fwd_dropped, 1u);
  EXPECT_EQ(f.net.counters().delivered, 0u);
}

// Sends every packet out of one fixed egress port, never dropping.
class FixedPortProgram : public ForwardingProgram {
 public:
  explicit FixedPortProgram(int port) : port_(port) {}
  Decision process(p4rt::Packet&, int, int) override {
    Decision d;
    d.eg_port = port_;
    return d;
  }
  std::string name() const override { return "fixed_port"; }

 private:
  int port_;
};

Network::Counters run_fixed_port(int port) {
  Fixture f;
  auto prog = std::make_shared<FixedPortProgram>(port);
  for (int leaf : f.fabric.leaves) f.net.set_program(leaf, prog);
  for (int i = 0; i < 5; ++i) {
    f.net.send_from_host(
        f.h(0, 0), p4rt::make_udp(f.ip(f.h(0, 0)), f.ip(f.h(1, 0)), 1, 2, 10));
  }
  f.net.events().run();
  EXPECT_EQ(f.net.packets_in_flight(), 0u);
  return f.net.counters();
}

// An egress port past the port table, or -1 without a drop, loses the
// packet exactly as a port with no link does.
TEST(Network, UnconnectedEgressPortsLoseThePacket) {
  const Network::Counters unconnected = run_fixed_port(7);
  EXPECT_EQ(unconnected.injected, 5u);
  EXPECT_EQ(unconnected.delivered, 0u);
  for (int port : {999, Topology::kMaxPort + 1, -1}) {
    SCOPED_TRACE("eg_port " + std::to_string(port));
    const Network::Counters c = run_fixed_port(port);
    EXPECT_EQ(c.injected, unconnected.injected);
    EXPECT_EQ(c.delivered, unconnected.delivered);
    EXPECT_EQ(c.rejected, unconnected.rejected);
    EXPECT_EQ(c.fwd_dropped, unconnected.fwd_dropped);
    EXPECT_EQ(c.queue_dropped, unconnected.queue_dropped);
    EXPECT_EQ(c.fault_dropped, unconnected.fault_dropped);
  }
}

TEST(Network, SwitchLatencyGrowsWithStages) {
  Fixture f;
  f.net.set_latency_model(1e-6, 50e-9);
  const double base = f.net.switch_latency();
  // Deploying a checker never lowers it; stages are max(baseline, checker).
  auto checker = compile_library_checker("valley_free");
  f.net.deploy(checker);
  EXPECT_GE(f.net.switch_latency(), base);
}

// switch_latency() is base + per-stage x max(baseline, live checkers'
// stages) after every change to either, whether the slot was filled by a
// deploy or a restore, or emptied by an undeploy.
TEST(Network, SwitchLatencyFollowsTheLinkedStages) {
  Fixture f;
  f.net.set_observability(true);  // for the snapshot below
  f.net.set_latency_model(1e-6, 50e-9);
  compiler::BaselineProfile baseline{"one_stage", 1, 0.0};
  std::map<int, int> live;  // deployment -> its checker's stages
  auto expect = [&](Network& net, const char* after) {
    int stages = baseline.stages;
    for (const auto& [dep, s] : live) stages = std::max(stages, s);
    EXPECT_EQ(net.pipeline_stages(), stages) << after;
    EXPECT_EQ(net.switch_latency(), 1e-6 + 50e-9 * stages) << after;
  };
  auto deploy = [&](const char* name, bool rolling) {
    auto c = compile_library_checker(name);
    const int dep = rolling ? f.net.deploy_rolling(c) : f.net.deploy(c);
    live[dep] = c->resources.checker_stages;
    return dep;
  };
  f.net.set_baseline_profile(baseline);
  expect(f.net, "set_baseline_profile");
  deploy("multi_tenancy", false);
  expect(f.net, "deploy");
  const int loops = deploy("loops", true);
  expect(f.net, "deploy_rolling");
  f.net.events().run();
  expect(f.net, "the landed deploy_rolling");
  f.net.undeploy_rolling(loops);
  f.net.events().run();
  live.erase(loops);
  expect(f.net, "a landed undeploy_rolling");
  const int dc = deploy("dc_uplink_load_balance", false);
  expect(f.net, "deploy");
  f.net.undeploy(dc);
  live.erase(dc);
  expect(f.net, "undeploy");
  baseline = {"three_stages", 3, 0.0};
  f.net.set_baseline_profile(baseline);
  expect(f.net, "set_baseline_profile");

  const std::string snap = f.net.full_snapshot();
  Network restored(f.fabric.topo);
  fwd::install_leaf_spine_routing(restored, f.fabric);
  restored.set_observability(true);
  restored.set_latency_model(1e-6, 50e-9);
  baseline = {"one_stage", 1, 0.0};
  restored.set_baseline_profile(baseline);
  restored.obs_restore(snap);
  expect(restored, "a restore");
}

// Checks each packet's cached wire size against a walk over its live
// frames' layouts, before and after the wrapped program, then rewrites
// the headers once more: GTP-encapsulates a plain packet and decapsulates
// a tunnelled one.
class WireProbe : public ForwardingProgram {
 public:
  WireProbe(Network& net, std::shared_ptr<ForwardingProgram> inner)
      : net_(net), inner_(std::move(inner)) {}
  Decision process(p4rt::Packet& pkt, int in_port, int switch_id) override {
    check(pkt);  // stamped here at a first hop; else as transmitted
    const Decision d = inner_->process(pkt, in_port, switch_id);
    check(pkt);  // the inner program popped the source route
    if (pkt.gtpu) {
      p4rt::gtpu_decap_inplace(pkt);
    } else {
      p4rt::gtpu_encap_inplace(pkt, pkt.ipv4->src, pkt.ipv4->dst, 7);
    }
    check(pkt);
    return d;
  }
  std::string name() const override { return "wire-probe"; }
  void check(const p4rt::Packet& pkt) {
    int tele = 0;
    for (const auto& f : pkt.tele) {
      if (f.live()) tele += net_.checker(f.checker).layout.wire_bytes;
    }
    ++checks;
    if (pkt.wire_bytes() != pkt.base_wire_bytes() + tele) ++mismatches;
  }
  int checks = 0;
  int mismatches = 0;

 private:
  Network& net_;
  std::shared_ptr<ForwardingProgram> inner_;
};

TEST(Network, CachedWireSizeEqualsAWalkOverTheLiveFrames) {
  const LeafSpine fabric = make_leaf_spine(2, 2, 2);
  Network net(fabric.topo);
  auto probe = std::make_shared<WireProbe>(
      net, std::make_shared<fwd::SourceRouteProgram>());
  for (int sw : fabric.leaves) net.set_program(sw, probe);
  for (int sw : fabric.spines) net.set_program(sw, probe);
  net.deploy(compile_shared("tele bit<8> n = 0;\n{ } { n += 1; } { }", "a"));
  net.deploy(compile_shared(
      "tele bit<16> x = 0;\ntele bit<32> y = 0;\n{ x = 1; } { y += 1; } { }",
      "b"));
  FaultPlan plan;
  plan.duplicate = 1.0;  // every transmit sends a copy
  net.arm_faults(plan, 3);
  int retired = 0;
  const int src = fabric.hosts[0][0];
  const int dst = fabric.hosts[1][1];
  net.host(dst).add_sink([&](const p4rt::Packet& p, double) {
    // Stripped at the last hop: no live frame, no telemetry bytes.
    if (!p.has_live_tele() && p.tele_bytes == 0 &&
        p.wire_bytes() == p.base_wire_bytes()) {
      ++retired;
    }
  });
  for (int i = 0; i < 3; ++i) {
    p4rt::Packet pkt =
        p4rt::make_udp(net.topo().node(src).ip, net.topo().node(dst).ip,
                       static_cast<std::uint16_t>(1000 + i), 2000, 100);
    fwd::set_source_route(pkt, fwd::leaf_spine_route(fabric, src, dst, i % 2));
    net.send_from_host(src, std::move(pkt));
  }
  net.events().run();
  EXPECT_GT(net.fault_stats().duplicates, 0u);
  EXPECT_GT(net.counters().delivered, 3u);  // the copies arrived too
  EXPECT_EQ(static_cast<std::uint64_t>(retired), net.counters().delivered);
  EXPECT_GT(probe->checks, 0);
  EXPECT_EQ(probe->mismatches, 0);
}

// Every packet field a header read, a frame lookup or the wire size sees.
void expect_same_packet(const p4rt::Packet& a, const p4rt::Packet& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.created_at, b.created_at);
  EXPECT_EQ(a.hops, b.hops);
  EXPECT_EQ(a.eth.dst, b.eth.dst);
  EXPECT_EQ(a.eth.src, b.eth.src);
  EXPECT_EQ(a.eth.ethertype, b.eth.ethertype);
  EXPECT_EQ(a.vlan.has_value(), b.vlan.has_value());
  EXPECT_EQ(a.sr_stack, b.sr_stack);
  EXPECT_EQ(a.has_sr, b.has_sr);
  EXPECT_EQ(a.icmp.has_value(), b.icmp.has_value());
  EXPECT_EQ(a.gtpu.has_value(), b.gtpu.has_value());
  EXPECT_EQ(a.inner_ipv4.has_value(), b.inner_ipv4.has_value());
  EXPECT_EQ(a.inner_l4.has_value(), b.inner_l4.has_value());
  ASSERT_EQ(a.ipv4.has_value(), b.ipv4.has_value());
  if (a.ipv4) {
    EXPECT_EQ(a.ipv4->src, b.ipv4->src);
    EXPECT_EQ(a.ipv4->dst, b.ipv4->dst);
    EXPECT_EQ(a.ipv4->proto, b.ipv4->proto);
    EXPECT_EQ(a.ipv4->ttl, b.ipv4->ttl);
    EXPECT_EQ(a.ipv4->dscp, b.ipv4->dscp);
  }
  ASSERT_EQ(a.l4.has_value(), b.l4.has_value());
  if (a.l4) {
    EXPECT_EQ(a.l4->sport, b.l4->sport);
    EXPECT_EQ(a.l4->dport, b.l4->dport);
  }
  EXPECT_EQ(a.payload_bytes, b.payload_bytes);
  EXPECT_EQ(a.has_live_tele(), b.has_live_tele());
  EXPECT_EQ(a.tele_bytes, b.tele_bytes);
  EXPECT_EQ(a.first_free, b.first_free);
  EXPECT_EQ(a.wire_bytes(), b.wire_bytes());
}

// The in-place builders build on the reset slot alloc_packet hands out: a
// slot that carried a live frame, a VLAN tag, a source route and GTP-U
// headers comes back in the default state, so building on it equals
// building a fresh packet.
TEST(Network, PooledSlotComesBackReset) {
  const LeafSpine fabric = make_leaf_spine(2, 2, 2);
  Network net(fabric.topo);
  const PacketHandle h = net.alloc_packet();
  p4rt::Packet& used = net.packet(h);
  p4rt::make_gtpu_udp_into(used, 1, 2, 7, 3, 4, 5, 6, 100);
  used.id = 9;
  used.hops = 3;
  used.eth.src = 0xabc;
  used.vlan = p4rt::VlanH{12};
  used.sr_stack = {1, 2};
  used.has_sr = true;
  used.icmp = p4rt::IcmpH{};
  used.add_frame(0, 10).words = {1, 2};
  ASSERT_TRUE(used.has_live_tele());
  net.free_packet(h);

  const PacketHandle again = net.alloc_packet();
  ASSERT_EQ(again, h);  // the freelist hands the same slot back
  p4rt::Packet& p = net.packet(again);
  expect_same_packet(p, p4rt::Packet{});
  p4rt::make_udp_into(p, 0x0a000001, 0x0a000002, 1000, 2000, 100);
  expect_same_packet(p,
                     p4rt::make_udp(0x0a000001, 0x0a000002, 1000, 2000, 100));
  net.free_packet(again);
}

// Records each hop's event time, then forwards through the fabric routing.
class HopClock : public ForwardingProgram {
 public:
  HopClock(Network& net, std::shared_ptr<ForwardingProgram> inner)
      : net_(net), inner_(std::move(inner)) {}
  Decision process(p4rt::Packet& pkt, int in_port, int switch_id) override {
    hop_times.push_back(net_.events().now());
    return inner_->process(pkt, in_port, switch_id);
  }
  std::string name() const override { return "hop-clock"; }
  std::vector<double> hop_times;

 private:
  Network& net_;
  std::shared_ptr<ForwardingProgram> inner_;
};

// A hop's switch latency is fixed when the packet goes onto the link. A
// deploy that raises pipeline_stages() while the packet is on the
// leaf->spine link leaves the spine hop at the old latency; the hops after
// it run at the new one.
TEST(Network, SwitchLatencyIsFixedAtTransmit) {
  // One host per leaf and 100G everywhere, so every link has one spec.
  const LeafSpine fabric = make_leaf_spine(2, 2, 1, 100.0, 100.0, 2e-6);
  Network net(fabric.topo);
  auto clock = std::make_shared<HopClock>(
      net, fwd::install_leaf_spine_routing(net, fabric));
  for (int sw : fabric.leaves) net.set_program(sw, clock);
  for (int sw : fabric.spines) net.set_program(sw, clock);
  net.set_latency_model(1e-6, 50e-9);
  net.set_baseline_profile({"one_stage", 1, 0.0});
  const double old_latency = net.switch_latency();

  const int src = fabric.hosts[0][0];
  const int dst = fabric.hosts[1][0];
  p4rt::Packet pkt = p4rt::make_udp(net.topo().node(src).ip,
                                    net.topo().node(dst).ip, 1, 2, 100);
  const int bytes = pkt.base_wire_bytes();
  // The link model on an idle link: when a packet leaving at `t` arrives.
  const LinkSpec spec = net.topo().links()[0];
  auto across = [&](double t) { return *Link(spec).transmit(0, t, bytes); };

  const double leaf1_hop = across(0.0) + old_latency;
  const double spine_arrival = across(leaf1_hop);
  double new_latency = 0.0;
  net.events().schedule_at(0.5 * (leaf1_hop + spine_arrival), [&] {
    net.deploy(compile_library_checker("valley_free"));
    new_latency = net.switch_latency();
  });
  std::optional<double> delivered_at;
  net.host(dst).add_sink(
      [&](const p4rt::Packet&, double t) { delivered_at = t; });
  net.send_from_host(src, std::move(pkt));
  net.events().run();

  ASSERT_GT(new_latency, old_latency);
  const double spine_hop = spine_arrival + old_latency;
  const double leaf2_hop = across(spine_hop) + new_latency;
  EXPECT_EQ(clock->hop_times,
            (std::vector<double>{leaf1_hop, spine_hop, leaf2_hop}));
  ASSERT_TRUE(delivered_at.has_value());
  EXPECT_EQ(*delivered_at, across(leaf2_hop));
}

// ---------------------------------------------------------------------------
// Hydra pipeline mechanics
// ---------------------------------------------------------------------------

TEST(HydraPipeline, TelemetryInjectedAndStripped) {
  Fixture f;
  auto checker = compile_library_checker("valley_free");
  const int dep = f.net.deploy(checker);
  configure_valley_free(f.net, dep, f.fabric);
  bool host_saw_telemetry = false;
  f.net.host(f.h(1, 0)).add_sink([&](const p4rt::Packet& p, double) {
    host_saw_telemetry = host_saw_telemetry || p.has_live_tele();
  });
  f.net.send_from_host(f.h(0, 0),
                       p4rt::make_udp(f.ip(f.h(0, 0)), f.ip(f.h(1, 0)),
                                      1000, 2000, 100));
  f.net.events().run();
  EXPECT_EQ(f.net.counters().delivered, 1u);
  // The last hop strips telemetry before the packet exits the network.
  EXPECT_FALSE(host_saw_telemetry);
}

TEST(HydraPipeline, MultipleCheckersCoexist) {
  Fixture f;
  const int d1 = f.net.deploy(compile_library_checker("valley_free"));
  const int d2 = f.net.deploy(compile_library_checker("loops"));
  configure_valley_free(f.net, d1, f.fabric);
  (void)d2;  // loops needs no configuration
  f.net.send_from_host(f.h(0, 0),
                       p4rt::make_udp(f.ip(f.h(0, 0)), f.ip(f.h(1, 0)),
                                      1000, 2000, 100));
  f.net.events().run();
  EXPECT_EQ(f.net.counters().delivered, 1u);
  EXPECT_EQ(f.net.counters().rejected, 0u);
}

// A hop's reports reach subscribers only after every checker on that hop
// has run: the first deployment reports at the last hop, and its callback
// already sees the second deployment's check block counted for that hop.
TEST(HydraPipeline, ReportCallbacksFireAfterEveryCheckerOnTheHop) {
  Fixture f;
  f.net.set_observability(true);
  const int reporter = f.net.deploy(compile_shared(
      "tele bit<8> hops = 0;\n{ } { hops += 1; } { report((hops)); }",
      "reporter"));
  f.net.deploy(compile_shared("{ } { } { }", "bystander"));
  std::vector<std::uint64_t> bystander_checks;
  f.net.subscribe_reports([&](const ReportRecord& r) {
    EXPECT_EQ(r.deployment, reporter);
    bystander_checks.push_back(
        f.net.metrics().counter_value("checker.bystander.check_runs"));
  });
  for (int i = 0; i < 2; ++i) {
    f.net.send_from_host(f.h(0, 0),
                         p4rt::make_udp(f.ip(f.h(0, 0)), f.ip(f.h(1, 0)),
                                        1000, 2000, 100));
    f.net.events().run();
  }
  EXPECT_EQ(bystander_checks, (std::vector<std::uint64_t>{1, 2}));
}

TEST(HydraPipeline, TelemetryBytesExtendWireSize) {
  Fixture f;
  const auto no_dep_bytes =
      p4rt::make_udp(1, 2, 3, 4, 100).base_wire_bytes();
  auto checker = compile_library_checker("loops");
  f.net.deploy(checker);
  EXPECT_GT(checker->layout.wire_bytes, 0);
  // 4 visited entries of 32b + 3b counter + preamble.
  EXPECT_EQ(checker->layout.wire_bytes, (4 * 32 + 3 + 7) / 8 + 2);
  (void)no_dep_bytes;
}

// ---------------------------------------------------------------------------
// The linked checker program
// ---------------------------------------------------------------------------

// Cross-leaf traffic and the numbers it leaves: per-property checker and VM
// counters, host and controller outcomes, and the pipeline depth.
struct SlotSetBed {
  LeafSpine fabric = make_leaf_spine(2, 2, 2);
  Network net{fabric.topo};

  SlotSetBed() {
    fwd::install_leaf_spine_routing(net, fabric);
    net.set_observability(true);
    net.set_export_interval(1e-4);
  }

  std::uint32_t ip(int host) const { return net.topo().node(host).ip; }

  // `n` packets each way between a leaf-0 and a leaf-1 host, sent now.
  void send(int n) {
    const int a = fabric.hosts[0][0];
    const int b = fabric.hosts[1][1];
    for (int i = 0; i < n; ++i) {
      const auto port = static_cast<std::uint16_t>(7000 + i);
      net.send_from_host(a, p4rt::make_udp(ip(a), ip(b), port, 80, 96));
      net.send_from_host(b, p4rt::make_udp(ip(b), ip(a), port, 80, 96));
    }
  }

  std::string tally() {
    const obs::Registry& reg = net.metrics();
    std::string s;
    for (const char* p : {"loops", "stateful_firewall", "dscp_unchanged",
                          "valley_free"}) {
      const std::string c = std::string("checker.") + p + ".";
      s += std::string(p) + " init=" +
           std::to_string(reg.counter_value(c + "init_runs")) +
           " tele=" + std::to_string(reg.counter_value(c + "tele_runs")) +
           " check=" + std::to_string(reg.counter_value(c + "check_runs")) +
           " rej=" + std::to_string(reg.counter_value(c + "rejects")) +
           " rep=" + std::to_string(reg.counter_value(c + "reports")) +
           " stale=" +
           std::to_string(reg.counter_value(c + "stale_generation")) +
           " instr=" +
           std::to_string(reg.counter_value(std::string("p4rt.interp.") + p +
                                            ".instructions")) +
           "; ";
    }
    s += "delivered=" + std::to_string(net.counters().delivered) +
         " rejected=" + std::to_string(net.counters().rejected) +
         " reports=" + std::to_string(net.reports().size()) +
         " stages=" + std::to_string(net.pipeline_stages());
    if (!net.reports().empty()) {
      const ReportRecord& r = net.reports().back();
      s += " last=" + std::to_string(r.deployment) + ":" + r.checker + "@" +
           std::to_string(r.switch_id) + ":" +
           std::to_string(r.values.empty() ? 0 : r.values[0].value());
    }
    return s;
  }
};

// The live slots' checkers run as one linked program, relinked wherever
// the slot set changes. Each step's counters and reports are the ones the
// per-deployment VMs produced before the program was linked.
TEST(Network, LinkedProgramFollowsTheSlotSet) {
  SlotSetBed bed;
  Network& net = bed.net;
  const int loops = net.deploy(compile_library_checker("loops"));
  const int fw = net.deploy(compile_library_checker("stateful_firewall"));
  // Leaf 0 may open flows to leaf 1, not the other way: the reverse
  // traffic rejects, and the allowed direction reports its missing reverse
  // entry at its last hop.
  net.dict_insert_all(fw, "allowed",
                      {BitVec(32, bed.ip(bed.fabric.hosts[0][0])),
                       BitVec(32, bed.ip(bed.fabric.hosts[1][1]))},
                      {BitVec::from_bool(true)});
  bed.send(3);
  net.events().run();
  EXPECT_EQ(bed.tally(),
            "loops init=6 tele=18 check=6 rej=0 rep=0 stale=0 instr=54; "
            "stateful_firewall init=6 tele=18 check=6 rej=3 rep=3 stale=0 instr=69; "
            "dscp_unchanged init=0 tele=0 check=0 rej=0 rep=0 stale=0 instr=0; "
            "valley_free init=0 tele=0 check=0 rej=0 rep=0 stale=0 instr=0; "
            "delivered=3 rejected=3 reports=3 stages=6 last=1:stateful_firewall@1:167772676");

  // A rolling deploy: the clock stops on the first pending hop, so the
  // swap lands right after it and that hop sees the new slot staged — it
  // stamps no frame for it, and its packet is never checked by it.
  bed.send(2);
  net.events().advance_now(net.events().next_time());
  const int dscp = net.deploy_rolling(compile_library_checker("dscp_unchanged"));
  EXPECT_TRUE(net.swap_in_progress());
  net.events().run();
  EXPECT_FALSE(net.swap_in_progress());
  EXPECT_EQ(bed.tally(),
            "loops init=10 tele=30 check=10 rej=0 rep=0 stale=0 instr=90; "
            "stateful_firewall init=10 tele=30 check=10 rej=5 rep=5 stale=0 instr=115; "
            "dscp_unchanged init=2 tele=6 check=2 rej=0 rep=0 stale=0 instr=16; "
            "valley_free init=0 tele=0 check=0 rej=0 rep=0 stale=0 instr=0; "
            "delivered=5 rejected=5 reports=5 stages=6 last=1:stateful_firewall@1:167772676");

  // A rolling undeploy that lands with the firewall's frames in flight:
  // they reject fail-closed as stale at their next hop, and their packets
  // still reach the hosts.
  bed.send(4);
  net.events().run_until(net.events().next_time() + 1.5e-6);
  net.undeploy_rolling(fw);
  net.events().run();
  EXPECT_FALSE(net.deployment_live(fw));
  EXPECT_EQ(bed.tally(),
            "loops init=18 tele=54 check=18 rej=0 rep=0 stale=0 instr=162; "
            "stateful_firewall init=18 tele=38 check=10 rej=5 rep=5 stale=16 instr=159; "
            "dscp_unchanged init=10 tele=30 check=10 rej=0 rep=0 stale=0 instr=80; "
            "valley_free init=0 tele=0 check=0 rej=0 rep=0 stale=0 instr=0; "
            "delivered=13 rejected=5 reports=5 stages=6 last=1:stateful_firewall@1:167772676");

  // The retired slot is reused by a checker of another layout.
  const int vf = net.deploy(compile_library_checker("valley_free"));
  EXPECT_EQ(vf, fw);
  for (const int spine : bed.fabric.spines) {
    net.set_config(vf, spine, "is_spine_switch", {BitVec::from_bool(true)});
  }
  bed.send(2);
  net.events().run();
  EXPECT_EQ(bed.tally(),
            "loops init=22 tele=66 check=22 rej=0 rep=0 stale=0 instr=198; "
            "stateful_firewall init=18 tele=38 check=10 rej=5 rep=5 stale=16 instr=159; "
            "dscp_unchanged init=14 tele=42 check=14 rej=0 rep=0 stale=0 instr=112; "
            "valley_free init=4 tele=12 check=4 rej=0 rep=0 stale=0 instr=52; "
            "delivered=17 rejected=5 reports=5 stages=6 last=1:stateful_firewall@1:167772676");

  net.undeploy(loops);
  bed.send(2);
  net.events().run();
  EXPECT_EQ(bed.tally(),
            "loops init=22 tele=66 check=22 rej=0 rep=0 stale=0 instr=198; "
            "stateful_firewall init=18 tele=38 check=10 rej=5 rep=5 stale=16 instr=159; "
            "dscp_unchanged init=18 tele=54 check=18 rej=0 rep=0 stale=0 instr=144; "
            "valley_free init=8 tele=24 check=8 rej=0 rep=0 stale=0 instr=104; "
            "delivered=21 rejected=5 reports=5 stages=4 last=1:stateful_firewall@1:167772676");

  // A restored network links the same program and counts on from there
  // (reports are not part of a snapshot).
  net.clear_reports();
  SlotSetBed restored;
  restored.net.obs_restore(net.full_snapshot());
  EXPECT_EQ(restored.tally(), bed.tally());
  for (SlotSetBed* b : {&bed, &restored}) {
    b->send(2);
    b->net.events().run();
  }
  EXPECT_EQ(bed.tally(),
            "loops init=22 tele=66 check=22 rej=0 rep=0 stale=0 instr=198; "
            "stateful_firewall init=18 tele=38 check=10 rej=5 rep=5 stale=16 instr=159; "
            "dscp_unchanged init=22 tele=66 check=22 rej=0 rep=0 stale=0 instr=176; "
            "valley_free init=12 tele=36 check=12 rej=0 rep=0 stale=0 instr=156; "
            "delivered=25 rejected=5 reports=0 stages=4");
  EXPECT_EQ(restored.tally(), bed.tally());
  EXPECT_TRUE(net.deployment_live(dscp));
}

// A deploy gives every switch a copy of each checker table on one entry
// store; an all-switch write keeps them on it, a write to one switch's
// copy moves that copy alone off it, and a restore gives each switch its
// own.
TEST(Network, SwitchCopiesOfACheckerTableShareOneStore) {
  const LeafSpine fabric = make_leaf_spine(8, 8, 2);
  Network net(fabric.topo);
  fwd::install_leaf_spine_routing(net, fabric);
  net.set_observability(true);  // for the snapshot below
  const int dep = net.deploy(compile_library_checker("stateful_firewall"));
  std::vector<int> switches = fabric.leaves;
  switches.insert(switches.end(), fabric.spines.begin(), fabric.spines.end());
  ASSERT_EQ(switches.size(), 16u);
  const auto key = [](std::uint32_t dst, std::uint32_t src) {
    return std::vector<BitVec>{BitVec(32, dst), BitVec(32, src)};
  };
  const std::vector<BitVec> yes{BitVec::from_bool(true)};
  const auto stores = [&](Network& n) {
    std::set<const void*> out;
    for (const int sw : switches) {
      out.insert(p4rt::TablePeer::store(n.checker_table(dep, sw, "allowed")));
    }
    return out;
  };
  // Row count per switch, with `k` installed on every one of them.
  const auto rows_holding = [&](Network& n, const std::vector<BitVec>& k) {
    std::map<int, std::size_t> rows;
    for (const int sw : switches) {
      const p4rt::Table& t = n.checker_table(dep, sw, "allowed");
      EXPECT_GE(t.lookup(k), 0) << "switch " << sw;
      rows[sw] = t.size();
    }
    return rows;
  };
  const auto plus = [&](const std::map<int, std::size_t>& rows, int sw,
                        std::size_t n) {
    std::map<int, std::size_t> out = rows;
    for (auto& [s, r] : out) r += (sw < 0 || s == sw) ? n : 0;
    return out;
  };

  for (std::uint32_t i = 1; i <= 3; ++i) {
    net.dict_insert_all(dep, "allowed", key(i, 100 + i), yes);
  }
  EXPECT_EQ(stores(net).size(), 1u);
  const std::map<int, std::size_t> three = rows_holding(net, key(2, 102));
  EXPECT_EQ(three, plus(three, -1, 0));
  EXPECT_EQ(three.at(switches[0]), 3u);

  // A write through one switch's table changes that copy alone.
  const int lone = switches[5];
  const void* shared =
      p4rt::TablePeer::store(net.checker_table(dep, switches[0], "allowed"));
  net.checker_table(dep, lone, "allowed").insert_exact(key(7, 7), yes);
  EXPECT_EQ(stores(net).size(), 2u);
  EXPECT_EQ(stores(net).count(shared), 1u);
  for (const int sw : switches) {
    EXPECT_EQ(net.checker_table(dep, sw, "allowed").lookup(key(7, 7)) >= 0,
              sw == lone)
        << "switch " << sw;
  }
  EXPECT_EQ(rows_holding(net, key(1, 101)), plus(three, lone, 1));

  // A later all-switch write still lands on all 16 copies, once per store.
  net.dict_insert_all(dep, "allowed", key(9, 9), yes);
  EXPECT_EQ(stores(net).size(), 2u);
  EXPECT_EQ(stores(net).count(shared), 1u);
  EXPECT_EQ(rows_holding(net, key(9, 9)), plus(plus(three, lone, 1), -1, 1));

  // A restored network re-snapshots byte for byte; its copies own their
  // stores, and an all-switch write still reaches every one of them.
  const std::string snap = net.full_snapshot();
  Network restored(fabric.topo);
  fwd::install_leaf_spine_routing(restored, fabric);
  restored.set_observability(true);
  restored.obs_restore(snap);
  EXPECT_EQ(restored.full_snapshot(), snap);
  EXPECT_EQ(stores(restored).size(), 16u);
  restored.dict_insert_all(dep, "allowed", key(11, 11), yes);
  EXPECT_EQ(rows_holding(restored, key(11, 11)),
            plus(plus(plus(three, lone, 1), -1, 1), -1, 1));
}

TEST(HydraPipeline, UdpFloodLoadsLinks) {
  Fixture f;
  UdpFlood flood(f.net, f.h(0, 0), f.h(1, 0), 1.0, 1250);
  flood.start(0.0, 0.001);
  f.net.events().run();
  EXPECT_GT(flood.packets_sent(), 50u);
  EXPECT_EQ(f.net.counters().delivered, flood.packets_sent());
}

TEST(HydraPipeline, CampusReplayGeneratesMix) {
  Fixture f;
  CampusReplay replay(f.net, f.h(0, 0), f.h(1, 0), 100000.0);
  replay.start(0.0, 0.01);
  f.net.events().run();
  EXPECT_GT(replay.packets_sent(), 500u);
  EXPECT_GT(replay.bytes_sent(), replay.packets_sent() * 60);
}

}  // namespace
}  // namespace hydra::net
