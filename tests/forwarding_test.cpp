// Tests for the forwarding substrates: source routing, VLAN bridging, and
// the Aether UPF pipeline (including the raw Figure 11 table mechanics).
#include <gtest/gtest.h>

#include "forwarding/ipv4_ecmp.hpp"
#include "forwarding/source_route.hpp"
#include "forwarding/upf.hpp"
#include "forwarding/vlan_bridge.hpp"
#include "net/network.hpp"

namespace hydra::fwd {
namespace {

// ---------------------------------------------------------------------------
// Source routing
// ---------------------------------------------------------------------------

TEST(SourceRoute, PopsPortsInOrder) {
  SourceRouteProgram prog;
  p4rt::Packet p;
  set_source_route(p, {3, 5, 1});
  auto d1 = prog.process(p, 0, 0);
  EXPECT_EQ(d1.eg_port, 3);
  auto d2 = prog.process(p, 0, 1);
  EXPECT_EQ(d2.eg_port, 5);
  auto d3 = prog.process(p, 0, 2);
  EXPECT_EQ(d3.eg_port, 1);
  EXPECT_FALSE(p.has_sr);
}

TEST(SourceRoute, EmptyStackDrops) {
  SourceRouteProgram prog;
  p4rt::Packet p;
  const auto d = prog.process(p, 0, 0);
  EXPECT_TRUE(d.drop);
  EXPECT_EQ(prog.underflow_drops(), 1u);
}

TEST(SourceRoute, LeafSpineRouteComputation) {
  const auto fabric = net::make_leaf_spine(2, 2, 2);
  // Cross-leaf via spine 1: uplink port at src leaf, down port at spine,
  // host port at dst leaf.
  const auto route =
      leaf_spine_route(fabric, fabric.hosts[0][0], fabric.hosts[1][1], 1);
  ASSERT_EQ(route.size(), 3u);
  EXPECT_EQ(route[0], fabric.leaf_uplink_port(1));
  EXPECT_EQ(route[1], fabric.spine_down_port(1));
  EXPECT_EQ(route[2], fabric.leaf_host_port(1));
  // Same-leaf: single hop.
  const auto local =
      leaf_spine_route(fabric, fabric.hosts[0][0], fabric.hosts[0][1], 0);
  ASSERT_EQ(local.size(), 1u);
  EXPECT_EQ(local[0], fabric.leaf_host_port(1));
}

TEST(SourceRoute, EndToEndDelivery) {
  auto fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  auto prog = std::make_shared<SourceRouteProgram>();
  for (int sw : fabric.leaves) net.set_program(sw, prog);
  for (int sw : fabric.spines) net.set_program(sw, prog);
  int got = 0;
  net.host(fabric.hosts[1][0]).add_sink(
      [&](const p4rt::Packet&, double) { ++got; });
  p4rt::Packet p = p4rt::make_udp(1, 2, 3, 4, 64);
  set_source_route(
      p, leaf_spine_route(fabric, fabric.hosts[0][0], fabric.hosts[1][0], 0));
  net.send_from_host(fabric.hosts[0][0], std::move(p));
  net.events().run();
  EXPECT_EQ(got, 1);
}

// ---------------------------------------------------------------------------
// VLAN bridging
// ---------------------------------------------------------------------------

TEST(VlanBridge, ForwardsWithinVlan) {
  VlanBridgeProgram prog;
  prog.add_member(0, 1, 100);
  prog.add_member(0, 2, 100);
  prog.add_l2_entry(0, 100, 0xaabb, 2);
  p4rt::Packet p;
  p.vlan = p4rt::VlanH{100};
  p.eth.dst = 0xaabb;
  const auto d = prog.process(p, 1, 0);
  EXPECT_FALSE(d.drop);
  EXPECT_EQ(d.eg_port, 2);
}

TEST(VlanBridge, DropsCrossVlan) {
  VlanBridgeProgram prog;
  prog.add_member(0, 1, 100);
  prog.add_member(0, 2, 200);        // egress port is in another VLAN
  prog.add_l2_entry(0, 100, 0xaabb, 2);
  p4rt::Packet p;
  p.vlan = p4rt::VlanH{100};
  p.eth.dst = 0xaabb;
  const auto d = prog.process(p, 1, 0);
  EXPECT_TRUE(d.drop);
  EXPECT_GT(prog.membership_drops(), 0u);
}

TEST(VlanBridge, DropsIngressNotMember) {
  VlanBridgeProgram prog;
  prog.add_member(0, 2, 100);
  prog.add_l2_entry(0, 100, 0xaabb, 2);
  p4rt::Packet p;
  p.vlan = p4rt::VlanH{100};
  p.eth.dst = 0xaabb;
  EXPECT_TRUE(prog.process(p, 1, 0).drop);
}

TEST(VlanBridge, DropsUnknownMacAndUntagged) {
  VlanBridgeProgram prog;
  prog.add_member(0, 1, 100);
  p4rt::Packet tagged;
  tagged.vlan = p4rt::VlanH{100};
  tagged.eth.dst = 0xdead;
  EXPECT_TRUE(prog.process(tagged, 1, 0).drop);
  EXPECT_GT(prog.l2_miss_drops(), 0u);
  p4rt::Packet untagged;
  EXPECT_TRUE(prog.process(untagged, 1, 0).drop);
}

// ---------------------------------------------------------------------------
// UPF
// ---------------------------------------------------------------------------

struct UpfFixture {
  net::LeafSpine fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net{fabric.topo};
  std::shared_ptr<Ipv4EcmpProgram> routing =
      install_leaf_spine_routing(net, fabric);
  std::shared_ptr<UpfProgram> upf = std::make_shared<UpfProgram>(routing);

  static constexpr std::uint32_t kUeIp = 0x0a640001;    // 10.100.0.1
  static constexpr std::uint32_t kEnbIp = 0x0a000101;   // small cell = h1
  static constexpr std::uint32_t kN3Ip = 0x0a0001fe;    // UPF endpoint
  std::uint32_t app_ip;

  UpfFixture() {
    // The UPF runs on leaf1; small cells behind h1, app servers at leaf2.
    net.set_program(fabric.leaves[0], upf);
    app_ip = net.topo().node(fabric.hosts[1][0]).ip;
    // Route the UE pool back towards the small cell for downlink.
    routing->add_route(fabric.leaves[0], kUeIp & 0xffffff00u, 24,
                       {fabric.leaf_host_port(0)});
  }

  // An uplink packet as it arrives from the small cell: GTP-encapsulated.
  p4rt::Packet uplink(std::uint32_t teid, std::uint16_t dport,
                      std::uint8_t proto = p4rt::kProtoUdp) {
    p4rt::Packet inner = proto == p4rt::kProtoUdp
                             ? p4rt::make_udp(kUeIp, app_ip, 40000, dport, 64)
                             : p4rt::make_tcp(kUeIp, app_ip, 40000, dport, 64);
    return p4rt::gtpu_encap(inner, kEnbIp, kN3Ip, teid);
  }
};

TEST(Upf, UplinkDecapAndForwardWhenAllowed) {
  UpfFixture f;
  f.upf->add_uplink_session(1001, 1, 1);
  f.upf->add_application(1, 20, 0, 0, p4rt::kProtoUdp, 81, 81, 2);
  f.upf->add_termination(1, 2, true);
  p4rt::Packet p = f.uplink(1001, 81);
  const auto d = f.upf->process(p, 1, f.fabric.leaves[0]);
  EXPECT_FALSE(d.drop);
  EXPECT_FALSE(p.gtpu.has_value());  // decapsulated
  EXPECT_EQ(p.ipv4->dst, f.app_ip);
}

TEST(Upf, UplinkUnknownTeidDrops) {
  UpfFixture f;
  p4rt::Packet p = f.uplink(9999, 81);
  EXPECT_TRUE(f.upf->process(p, 1, f.fabric.leaves[0]).drop);
  EXPECT_EQ(f.upf->session_miss_drops(), 1u);
}

TEST(Upf, ApplicationMissDrops) {
  UpfFixture f;
  f.upf->add_uplink_session(1001, 1, 1);
  // No applications installed: app_id 0 has no termination.
  p4rt::Packet p = f.uplink(1001, 81);
  EXPECT_TRUE(f.upf->process(p, 1, f.fabric.leaves[0]).drop);
  EXPECT_EQ(f.upf->termination_drops(), 1u);
}

TEST(Upf, DenyTerminationDrops) {
  UpfFixture f;
  f.upf->add_uplink_session(1001, 1, 1);
  f.upf->add_application(1, 10, 0, 0, std::nullopt, 0, 0xffff, 1);
  f.upf->add_termination(1, 1, false);  // default deny
  p4rt::Packet p = f.uplink(1001, 443, p4rt::kProtoTcp);
  EXPECT_TRUE(f.upf->process(p, 1, f.fabric.leaves[0]).drop);
}

TEST(Upf, PriorityPicksMoreSpecificApplication) {
  UpfFixture f;
  f.upf->add_uplink_session(1001, 1, 1);
  f.upf->add_application(1, 10, 0, 0, std::nullopt, 0, 0xffff, 1);
  f.upf->add_application(1, 20, 0, 0, p4rt::kProtoUdp, 81, 81, 2);
  f.upf->add_termination(1, 1, false);
  f.upf->add_termination(1, 2, true);
  p4rt::Packet allowed = f.uplink(1001, 81);
  EXPECT_FALSE(f.upf->process(allowed, 1, f.fabric.leaves[0]).drop);
  p4rt::Packet denied = f.uplink(1001, 82);
  EXPECT_TRUE(f.upf->process(denied, 1, f.fabric.leaves[0]).drop);
}

TEST(Upf, ApplicationPrefixLengthOutOfRangeThrows) {
  UpfFixture f;
  EXPECT_THROW(f.upf->add_application(1, 10, 0, 33, std::nullopt, 0, 0xffff, 1),
               std::invalid_argument);
  EXPECT_THROW(f.upf->remove_application(1, 0, -1, std::nullopt, 0, 0xffff),
               std::invalid_argument);
}

TEST(Ipv4Ecmp, RoutePrefixLengthOutOfRangeThrows) {
  UpfFixture f;
  EXPECT_THROW(f.routing->add_route(f.fabric.leaves[0], 0x0a000000, 33, {1}),
               std::invalid_argument);
  EXPECT_THROW(f.routing->add_route(f.fabric.leaves[0], 0x0a000000, -1, {1}),
               std::invalid_argument);
}

TEST(Upf, DownlinkEncapsulates) {
  UpfFixture f;
  f.upf->add_downlink_session(UpfFixture::kUeIp, 1, 1, 1001,
                              UpfFixture::kEnbIp, UpfFixture::kN3Ip);
  f.upf->add_application(1, 10, 0, 0, std::nullopt, 0, 0xffff, 1);
  f.upf->add_termination(1, 1, true);
  p4rt::Packet p =
      p4rt::make_udp(f.app_ip, UpfFixture::kUeIp, 81, 40000, 64);
  const auto d = f.upf->process(p, 5, f.fabric.leaves[0]);
  EXPECT_FALSE(d.drop);
  ASSERT_TRUE(p.gtpu.has_value());
  EXPECT_EQ(p.gtpu->teid, 1001u);
  EXPECT_EQ(p.ipv4->dst, UpfFixture::kEnbIp);
}

TEST(Upf, NonUpfTrafficRoutesThrough) {
  UpfFixture f;
  p4rt::Packet p = p4rt::make_udp(
      f.net.topo().node(f.fabric.hosts[0][0]).ip, f.app_ip, 1, 2, 64);
  const auto d = f.upf->process(p, 1, f.fabric.leaves[0]);
  EXPECT_FALSE(d.drop);  // plain IPv4, routed by the embedded ECMP
}

// The exact Figure 11 scenario at the table level (control plane done by
// hand here; the controller version lives in aether_test.cpp).
TEST(Upf, Figure11SharedEntryBugMechanics) {
  UpfFixture f;
  // Client 1 attaches under rules {10:any:deny -> app1, 20:udp81:allow -> app2}.
  f.upf->add_uplink_session(1001, 1, 1);
  f.upf->add_application(1, 10, 0, 0, std::nullopt, 0, 0xffff, 1);
  f.upf->add_application(1, 20, 0, 0, p4rt::kProtoUdp, 81, 81, 2);
  f.upf->add_termination(1, 1, false);
  f.upf->add_termination(1, 2, true);
  // Client 1 can reach UDP 81.
  p4rt::Packet before = f.uplink(1001, 81);
  EXPECT_FALSE(f.upf->process(before, 1, f.fabric.leaves[0]).drop);

  // Operator updates the rule to 30:udp81-82:allow; client 2 attaches and
  // ONOS installs the new shared entry with app id 3 + client-2 rules.
  f.upf->add_uplink_session(1002, 2, 1);
  f.upf->add_application(1, 30, 0, 0, p4rt::kProtoUdp, 81, 82, 3);
  f.upf->add_termination(2, 1, false);
  f.upf->add_termination(2, 3, true);

  // Client 2 works under the new policy.
  p4rt::Packet c2 = f.uplink(1002, 81);
  EXPECT_FALSE(f.upf->process(c2, 1, f.fabric.leaves[0]).drop);
  // Client 1's previously-allowed traffic is now classified as app 3,
  // which client 1 has no termination for: silently dropped. THE BUG.
  p4rt::Packet after = f.uplink(1001, 81);
  EXPECT_TRUE(f.upf->process(after, 1, f.fabric.leaves[0]).drop);
}

}  // namespace
}  // namespace hydra::fwd
