// End-to-end Aether case study (§5.2): slice policy model, the ONOS-like
// controller's shared-Applications-table behaviour, and the headline
// result — Hydra's application-filtering checker catching the Figure 11
// rule-update bug at runtime.
#include <gtest/gtest.h>

#include <sstream>

#include "aether/churn.hpp"
#include "aether/controller.hpp"
#include "aether/slice.hpp"
#include "forwarding/ipv4_ecmp.hpp"
#include "forwarding/upf.hpp"
#include "hydra/hydra.hpp"
#include "net/network.hpp"
#include "p4rt/table_io.hpp"

namespace hydra::aether {
namespace {

// ---------------------------------------------------------------------------
// Slice policy model
// ---------------------------------------------------------------------------

TEST(Slice, RuleMatching) {
  FilteringRule r;
  r.app_prefix = 0x0a000200;
  r.prefix_len = 24;
  r.proto = p4rt::kProtoUdp;
  r.port_lo = 81;
  r.port_hi = 82;
  EXPECT_TRUE(r.matches(0x0a000205, p4rt::kProtoUdp, 81));
  EXPECT_TRUE(r.matches(0x0a0002ff, p4rt::kProtoUdp, 82));
  EXPECT_FALSE(r.matches(0x0a000305, p4rt::kProtoUdp, 81));  // wrong prefix
  EXPECT_FALSE(r.matches(0x0a000205, p4rt::kProtoTcp, 81));  // wrong proto
  EXPECT_FALSE(r.matches(0x0a000205, p4rt::kProtoUdp, 83));  // wrong port
}

TEST(Slice, PrefixLengthOutOfRangeThrows) {
  FilteringRule r;
  r.prefix_len = 33;
  EXPECT_THROW(r.matches(0x0a000205, p4rt::kProtoUdp, 81),
               std::invalid_argument);
  r.prefix_len = -1;
  EXPECT_THROW(r.matches(0x0a000205, p4rt::kProtoUdp, 81),
               std::invalid_argument);
}

TEST(Slice, DecideUsesHighestPriority) {
  const Slice s = example_camera_slice(1);
  EXPECT_EQ(s.decide(0x01020304, p4rt::kProtoUdp, 81), FilterAction::kAllow);
  EXPECT_EQ(s.decide(0x01020304, p4rt::kProtoUdp, 80), FilterAction::kDeny);
  EXPECT_EQ(s.decide(0x01020304, p4rt::kProtoTcp, 81), FilterAction::kDeny);
}

TEST(Slice, DefaultIsDeny) {
  Slice s;
  s.id = 1;
  EXPECT_EQ(s.decide(1, 2, 3), FilterAction::kDeny);
}

TEST(Slice, RuleToString) {
  const Slice s = example_camera_slice(1);
  EXPECT_EQ(s.rules[0].to_string(), "10:0.0.0.0/0:any:any:deny");
  EXPECT_EQ(s.rules[1].to_string(), "20:0.0.0.0/0:UDP:81:allow");
}

// ---------------------------------------------------------------------------
// Full testbed fixture
// ---------------------------------------------------------------------------

struct Testbed {
  net::LeafSpine fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net{fabric.topo};
  std::shared_ptr<fwd::Ipv4EcmpProgram> routing =
      fwd::install_leaf_spine_routing(net, fabric);
  std::shared_ptr<fwd::UpfProgram> upf =
      std::make_shared<fwd::UpfProgram>(routing);
  int dep;
  AetherController controller;

  static constexpr std::uint32_t kUe1 = 0x0a640001;
  static constexpr std::uint32_t kUe2 = 0x0a640002;
  std::uint32_t enb_ip;  // small cell = h1
  std::uint32_t n3_ip = 0x0a0001fe;
  std::uint32_t app_ip;  // edge app server = h3 (leaf2)

  Testbed()
      : dep(net.deploy(compile_library_checker("application_filtering"))),
        controller(net, upf, dep) {
    net.set_program(fabric.leaves[0], upf);
    enb_ip = net.topo().node(fabric.hosts[0][0]).ip;
    app_ip = net.topo().node(fabric.hosts[1][0]).ip;
    controller.define_slice(example_camera_slice(1));
  }

  // Uplink packet from the small cell (h1): inner UE -> app, GTP outer.
  void send_uplink(std::uint32_t ue_ip, std::uint32_t teid,
                   std::uint16_t dport) {
    p4rt::Packet inner = p4rt::make_udp(ue_ip, app_ip, 40000, dport, 64);
    net.send_from_host(fabric.hosts[0][0],
                       p4rt::gtpu_encap(inner, enb_ip, n3_ip, teid));
    net.events().run();
  }

  std::uint64_t delivered() const { return net.counters().delivered; }
  std::uint64_t upf_drops() const { return upf->termination_drops(); }
};

TEST(Aether, AttachedClientReachesAllowedApp) {
  Testbed tb;
  tb.controller.attach_client(1, {123450001, Testbed::kUe1, 1001}, tb.enb_ip,
                              tb.n3_ip);
  tb.send_uplink(Testbed::kUe1, 1001, 81);
  EXPECT_EQ(tb.delivered(), 1u);
  EXPECT_TRUE(tb.net.reports().empty());
  EXPECT_EQ(tb.net.counters().rejected, 0u);
}

TEST(Aether, DeniedPortIsDroppedConsistently) {
  Testbed tb;
  tb.controller.attach_client(1, {123450001, Testbed::kUe1, 1001}, tb.enb_ip,
                              tb.n3_ip);
  tb.send_uplink(Testbed::kUe1, 1001, 80);
  EXPECT_EQ(tb.delivered(), 0u);
  EXPECT_EQ(tb.upf_drops(), 1u);
  // Deny + dropped is consistent: no Hydra report.
  EXPECT_TRUE(tb.net.reports().empty());
}

TEST(Aether, ControllerSharesApplicationEntries) {
  Testbed tb;
  tb.controller.attach_client(1, {123450001, Testbed::kUe1, 1001}, tb.enb_ip,
                              tb.n3_ip);
  const auto apps_after_first = tb.upf->application_entries();
  tb.controller.attach_client(1, {123450002, Testbed::kUe2, 1002}, tb.enb_ip,
                              tb.n3_ip);
  // Same rules: the second client reuses the shared entries.
  EXPECT_EQ(tb.upf->application_entries(), apps_after_first);
  EXPECT_EQ(tb.controller.app_ids_allocated(), 2u);
}

TEST(Aether, BothClientsWorkBeforeRuleUpdate) {
  Testbed tb;
  tb.controller.attach_client(1, {123450001, Testbed::kUe1, 1001}, tb.enb_ip,
                              tb.n3_ip);
  tb.controller.attach_client(1, {123450002, Testbed::kUe2, 1002}, tb.enb_ip,
                              tb.n3_ip);
  tb.send_uplink(Testbed::kUe1, 1001, 81);
  tb.send_uplink(Testbed::kUe2, 1002, 81);
  EXPECT_EQ(tb.delivered(), 2u);
  EXPECT_TRUE(tb.net.reports().empty());
}

// The headline reproduction: the Figure 11 bug, caught by Hydra at runtime.
TEST(Aether, HydraCatchesRuleUpdateBug) {
  Testbed tb;
  // Client 1 attaches under the original rules and can use UDP 81.
  tb.controller.attach_client(1, {123450001, Testbed::kUe1, 1001}, tb.enb_ip,
                              tb.n3_ip);
  tb.send_uplink(Testbed::kUe1, 1001, 81);
  ASSERT_EQ(tb.delivered(), 1u);

  // Operator expands the allow rule to UDP 81-82 with a higher priority.
  Slice updated = example_camera_slice(1);
  updated.rules[1].port_hi = 82;
  updated.rules[1].priority = 30;
  tb.controller.update_slice_rules(1, updated.rules);

  // Client 2 attaches; ONOS installs the new shared Applications entry.
  tb.controller.attach_client(1, {123450002, Testbed::kUe2, 1002}, tb.enb_ip,
                              tb.n3_ip);
  EXPECT_EQ(tb.controller.app_ids_allocated(), 3u);

  // Client 2 is fine under the new policy.
  tb.send_uplink(Testbed::kUe2, 1002, 81);
  EXPECT_EQ(tb.delivered(), 2u);

  // Client 1's port-81 traffic — still allowed by the operator's intent —
  // is now silently dropped by the UPF...
  const auto drops_before = tb.upf_drops();
  tb.send_uplink(Testbed::kUe1, 1001, 81);
  EXPECT_EQ(tb.delivered(), 2u);  // not delivered
  EXPECT_EQ(tb.upf_drops(), drops_before + 1);

  // ...and Hydra reports the inconsistency: filtering_action says allow
  // (2) but the data plane dropped the packet.
  ASSERT_FALSE(tb.net.reports().empty());
  const auto& report = tb.net.reports().back();
  EXPECT_EQ(report.checker, "application_filtering");
  EXPECT_EQ(report.switch_id, tb.fabric.leaves[0]);
  // Payload: (ue, proto, app_ip, port, action).
  ASSERT_EQ(report.values.size(), 5u);
  EXPECT_EQ(report.values[0].value(), Testbed::kUe1);
  EXPECT_EQ(report.values[1].value(), p4rt::kProtoUdp);
  EXPECT_EQ(report.values[2].value(), tb.app_ip);
  EXPECT_EQ(report.values[3].value(), 81u);
  EXPECT_EQ(report.values[4].value(), 2u);  // intended action: allow
}

TEST(Aether, NoFalseReportsForWellBehavedTraffic) {
  Testbed tb;
  tb.controller.attach_client(1, {123450001, Testbed::kUe1, 1001}, tb.enb_ip,
                              tb.n3_ip);
  for (std::uint16_t port : {81, 81, 81}) {
    tb.send_uplink(Testbed::kUe1, 1001, port);
  }
  // Plain (non-UPF) traffic coexists without tripping the checker.
  tb.net.send_from_host(
      tb.fabric.hosts[0][1],
      p4rt::make_udp(tb.net.topo().node(tb.fabric.hosts[0][1]).ip, tb.app_ip,
                     5555, 443, 100));
  tb.net.events().run();
  EXPECT_EQ(tb.delivered(), 4u);
  EXPECT_TRUE(tb.net.reports().empty());
}

TEST(Aether, CheckerRejectsWronglyForwardedDeniedTraffic) {
  // The dual failure: a buggy data plane FORWARDS denied traffic. Model it
  // by installing an over-permissive termination directly (bypassing the
  // controller), and check Hydra rejects the packet at the last hop.
  Testbed tb;
  tb.controller.attach_client(1, {123450001, Testbed::kUe1, 1001}, tb.enb_ip,
                              tb.n3_ip);
  // Buggy extra entries: TCP 443 gets its own app id and a forward action,
  // though the slice policy denies it.
  tb.upf->add_application(1, 40, 0, 0, p4rt::kProtoTcp, 443, 443, 77);
  tb.upf->add_termination(1, 77, true);
  p4rt::Packet inner =
      p4rt::make_tcp(Testbed::kUe1, tb.app_ip, 40000, 443, 64);
  tb.net.send_from_host(tb.fabric.hosts[0][0],
                        p4rt::gtpu_encap(inner, tb.enb_ip, tb.n3_ip, 1001));
  tb.net.events().run();
  // The UPF forwarded it, but Hydra rejected it at the network edge.
  EXPECT_EQ(tb.delivered(), 0u);
  EXPECT_EQ(tb.net.counters().rejected, 1u);
  ASSERT_FALSE(tb.net.reports().empty());
  EXPECT_EQ(tb.net.reports().back().values[4].value(), 1u);  // intended deny
}

// PFCP teardown in reverse of the sharing optimization: a detach removes
// the client's sessions/terminations/policy but a shared Applications
// entry survives until its LAST referencing client detaches.
TEST(Aether, DetachReleasesSharedEntriesByRefcount) {
  Testbed tb;
  tb.controller.attach_client(1, {123450001, Testbed::kUe1, 1001}, tb.enb_ip,
                              tb.n3_ip);
  tb.controller.attach_client(1, {123450002, Testbed::kUe2, 1002}, tb.enb_ip,
                              tb.n3_ip);
  const auto shared_apps = tb.upf->application_entries();
  EXPECT_EQ(tb.controller.attached_count(), 2u);

  ASSERT_TRUE(tb.controller.detach_client(123450001));
  EXPECT_EQ(tb.controller.attached_count(), 1u);
  // Client 2 still references the shared entries; nothing was uninstalled.
  EXPECT_EQ(tb.upf->application_entries(), shared_apps);
  // Client 1's tunnel is gone: its uplink now session-misses.
  const auto misses = tb.upf->session_miss_drops();
  tb.send_uplink(Testbed::kUe1, 1001, 81);
  EXPECT_EQ(tb.upf->session_miss_drops(), misses + 1);
  EXPECT_EQ(tb.delivered(), 0u);
  // Client 2 is untouched.
  tb.send_uplink(Testbed::kUe2, 1002, 81);
  EXPECT_EQ(tb.delivered(), 1u);
  EXPECT_TRUE(tb.net.reports().empty());

  // Last reference gone: the shared entries are uninstalled too.
  ASSERT_TRUE(tb.controller.detach_client(123450002));
  EXPECT_EQ(tb.upf->application_entries(), 0u);
  EXPECT_EQ(tb.controller.attached_count(), 0u);
  // Idempotence + unknown imsi.
  EXPECT_FALSE(tb.controller.detach_client(123450002));
  EXPECT_FALSE(tb.controller.detach_client(999));

  // Re-attach reuses the imsi -> client-id binding and fresh entries work.
  const auto cid = tb.controller.client_id(123450001);
  tb.controller.attach_client(1, {123450001, Testbed::kUe1, 1001}, tb.enb_ip,
                              tb.n3_ip);
  EXPECT_EQ(tb.controller.client_id(123450001), cid);
  tb.send_uplink(Testbed::kUe1, 1001, 81);
  EXPECT_EQ(tb.delivered(), 2u);
  EXPECT_TRUE(tb.net.reports().empty());
}

// The Hydra policy rows refuse a rule whose prefix length no 32-bit mask
// spells, instead of shifting out of range.
// Every switch's filtering_actions rows, serialized, and their count.
std::pair<std::string, std::size_t> policy_rows(Testbed& tb) {
  std::ostringstream out;
  std::size_t rows = 0;
  for (int sw = 0; sw < tb.net.topo().node_count(); ++sw) {
    if (tb.net.topo().node(sw).kind != net::NodeKind::kSwitch) continue;
    const auto& table = tb.net.checker_table(tb.dep, sw, "filtering_actions");
    p4rt::serialize_table(table, out);
    rows += table.size();
  }
  return {out.str(), rows};
}

std::vector<std::string> rule_strings(const Slice& slice) {
  std::vector<std::string> out;
  for (const auto& r : slice.rules) out.push_back(r.to_string());
  return out;
}

TEST(Aether, PolicyRuleWithPrefixLengthOutOfRangeThrows) {
  Testbed tb;
  tb.controller.attach_client(1, {123450001, Testbed::kUe1, 1001}, tb.enb_ip,
                              tb.n3_ip);
  const auto rows = policy_rows(tb);
  ASSERT_GT(rows.second, 0u);
  FilteringRule bad = example_camera_slice(1).rules[0];
  bad.prefix_len = 33;
  EXPECT_THROW(tb.controller.update_slice_rules(1, {bad}),
               std::invalid_argument);
  // Refused before anything changed: the slice keeps its rules and every
  // switch its policy rows.
  EXPECT_EQ(rule_strings(tb.controller.slice(1)),
            rule_strings(example_camera_slice(1)));
  EXPECT_EQ(policy_rows(tb), rows);
}

TEST(Aether, SliceWithPrefixLengthOutOfRangeIsNotDefined) {
  Testbed tb;
  Slice bad = example_camera_slice(2);
  bad.rules[1].prefix_len = -1;
  EXPECT_THROW(tb.controller.define_slice(bad), std::invalid_argument);
  EXPECT_THROW(tb.controller.slice(2), std::out_of_range);
  EXPECT_THROW(tb.controller.attach_client(2, {123450001, Testbed::kUe1, 1001},
                                           tb.enb_ip, tb.n3_ip),
               std::out_of_range);
  EXPECT_EQ(tb.controller.attached_count(), 0u);
  EXPECT_EQ(policy_rows(tb).second, 0u);
}

// One churn load run two ways: one chain started for 1.5 s, or one started
// for 1 s and started again at 0.5 s, while its next tick is pending. That
// second start only moves the deadline, so both runs end alike; a second
// chain would double the offered load from 0.5 s on.
TEST(SessionChurn, StartOnAPendingChainMovesItsDeadline) {
  const auto run = [](bool restart) {
    Testbed tb;
    SessionChurnGenerator::Config gc;
    gc.sessions = 50;
    gc.churn_per_s = 200.0;
    gc.packets_per_s = 2000.0;
    gc.enb_host = tb.fabric.hosts[0][0];
    gc.enb_ip = tb.enb_ip;
    gc.n3_ip = tb.n3_ip;
    gc.app_ip = tb.app_ip;
    SessionChurnGenerator gen(tb.net, tb.controller, gc);
    gen.set_latency_sampling(false);
    gen.prefill();
    gen.start(0.0, restart ? 1.0 : 1.5);
    if (restart) {
      tb.net.events().run_until(0.5);
      gen.start(0.5, 1.0);
    }
    tb.net.events().run();
    const auto& c = tb.net.counters();
    return std::vector<std::uint64_t>{
        gen.packets_sent(), gen.attaches(),  gen.detaches(),
        c.injected,         c.delivered,     c.rejected,
        c.fwd_dropped,      c.queue_dropped, tb.net.reports().size()};
  };
  const std::vector<std::uint64_t> once = run(false);
  EXPECT_GT(once[0], 2500u);
  EXPECT_EQ(run(true), once);
}

TEST(Aether, UnknownSliceThrows) {
  Testbed tb;
  EXPECT_THROW(tb.controller.attach_client(9, {1, 2, 3}, 0, 0),
               std::out_of_range);
  EXPECT_THROW(tb.controller.define_slice(example_camera_slice(1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace hydra::aether
