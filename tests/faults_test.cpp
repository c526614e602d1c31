// Tests for the fault-injection subsystem and the fail-closed telemetry
// handling it exercises:
//   * layout-build guard against wire field widths the codec cannot carry;
//   * the non-throwing checked frame parser and its static reason strings;
//   * FaultInjector determinism (per-site streams, precomputed flaps);
//   * end-to-end fail-closed decode: corrupted / truncated telemetry is a
//     counted checker reject with an annotated ViolationReport, never a
//     throw (the seed codec threw std::invalid_argument out of the event
//     loop);
//   * switch restarts: sensor registers wiped, verdicts suppressed while
//     the switch runs cold;
//   * delayed controller rule pushes, and the width-checked key both
//     install paths share;
//   * traffic-generator hardening (PingProbe dedup, UdpFlood validation);
//   * configurable per-link buffer capacity and per-direction tail drops.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "compiler/layout.hpp"
#include "forwarding/ipv4_ecmp.hpp"
#include "hydra/hydra.hpp"
#include "net/faults.hpp"
#include "net/link.hpp"
#include "net/network.hpp"
#include "net/traffic.hpp"
#include "p4rt/table_io.hpp"
#include "p4rt/tele_codec.hpp"

namespace hydra {
namespace {

// ---------------------------------------------------------------------------
// Layout guard: widths the 64-bit packing codec cannot carry are rejected
// at layout-build time (a shift by >= 64 is UB downstream).
// ---------------------------------------------------------------------------

TEST(LayoutGuard, RejectsWireFieldWiderThan64Bits) {
  ir::CheckerIR ir;
  ir.fields.push_back({"tele.wide", ir::Space::kTele, 65, false, ""});
  EXPECT_THROW(compiler::layout_telemetry(ir), std::invalid_argument);

  ir.fields[0].width = 64;  // widest legal width still lays out
  const auto layout = compiler::layout_telemetry(ir);
  ASSERT_EQ(layout.entries.size(), 1u);
  EXPECT_EQ(layout.entries[0].width, 64);

  ir.fields[0].width = 0;
  EXPECT_THROW(compiler::layout_telemetry(ir), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Checked (non-throwing) frame parsing.
// ---------------------------------------------------------------------------

TEST(CheckedParse, DetectsTruncationAndBadTagWithoutThrowing) {
  const auto c = compiler::compile_checker(
      "tele bit<8> a;\ntele bit<13> b;\n{ } { } { }", "chk");
  p4rt::TeleFrame f;
  f.checker = 0;
  for (const auto& e : c.layout.entries) {
    f.words.push_back(0x5a5aULL & BitVec::mask(e.width));
  }
  const auto bytes = p4rt::serialize_frame(c.layout, f);

  p4rt::TeleFrame out;
  EXPECT_EQ(p4rt::parse_frame_checked(c.layout, 0, bytes, out),
            p4rt::FrameError::kOk);

  // Mid-path truncation: any wrong byte count is a size mismatch.
  auto truncated = bytes;
  truncated.pop_back();
  EXPECT_EQ(p4rt::parse_frame_checked(c.layout, 0, truncated, out),
            p4rt::FrameError::kSizeMismatch);
  EXPECT_EQ(p4rt::parse_frame_checked(c.layout, 0, {}, out),
            p4rt::FrameError::kSizeMismatch);

  // Clobbered Hydra EtherType preamble.
  auto bad_tag = bytes;
  bad_tag[0] ^= 0xff;
  EXPECT_EQ(p4rt::parse_frame_checked(c.layout, 0, bad_tag, out),
            p4rt::FrameError::kBadTag);
}

TEST(CheckedParse, ReasonStringsAreStatic) {
  EXPECT_STREQ(p4rt::frame_error_reason(p4rt::FrameError::kOk), "ok");
  EXPECT_STREQ(p4rt::frame_error_reason(p4rt::FrameError::kSizeMismatch),
               "tele_size_mismatch");
  EXPECT_STREQ(p4rt::frame_error_reason(p4rt::FrameError::kBadTag),
               "tele_bad_tag");
}

// ---------------------------------------------------------------------------
// FaultInjector unit behaviour.
// ---------------------------------------------------------------------------

TEST(FaultInjector, SameSeedSameDecisions) {
  net::FaultPlan plan;
  plan.loss = 0.1;
  plan.corrupt = 0.2;
  plan.duplicate = 0.1;
  plan.reorder = 0.3;
  net::FaultInjector a(plan, 99, 4);
  net::FaultInjector b(plan, 99, 4);
  for (int i = 0; i < 500; ++i) {
    const int link = i % 4;
    const int dir = (i / 4) % 2;
    const auto x = a.on_transmit(link, dir, true);
    const auto y = b.on_transmit(link, dir, true);
    EXPECT_EQ(x.drop, y.drop);
    EXPECT_EQ(x.corrupt, y.corrupt);
    EXPECT_EQ(x.corrupt_entropy, y.corrupt_entropy);
    EXPECT_EQ(x.duplicate, y.duplicate);
    EXPECT_DOUBLE_EQ(x.extra_delay_s, y.extra_delay_s);
  }
}

TEST(FaultInjector, SitesAreIndependentStreams) {
  // Extra draws on one (link, dir) site must not shift another site's
  // stream — this is what makes outcomes independent of traffic mix on
  // other links.
  net::FaultPlan plan;
  plan.loss = 0.5;
  net::FaultInjector a(plan, 7, 2);
  net::FaultInjector b(plan, 7, 2);
  std::vector<bool> a0, b0;
  for (int i = 0; i < 200; ++i) {
    a.on_transmit(1, 0, false);  // interleaved noise on another site
    a.on_transmit(1, 1, false);
    a0.push_back(a.on_transmit(0, 0, false).drop);
    b0.push_back(b.on_transmit(0, 0, false).drop);
  }
  EXPECT_EQ(a0, b0);
}

TEST(FaultInjector, FlapScheduleIsPrecomputedWithinHorizon) {
  net::FaultPlan plan;
  plan.flap_rate_hz = 5000.0;
  plan.flap_down_s = 1e-4;
  plan.horizon_s = 2e-3;
  net::FaultInjector inj(plan, 3, 3);
  ASSERT_FALSE(inj.outages().empty());
  double prev = -1.0;
  for (const auto& o : inj.outages()) {
    EXPECT_GE(o.link, 0);
    EXPECT_LT(o.link, 3);
    EXPECT_GE(o.down_at, 0.0);
    EXPECT_LT(o.down_at, plan.horizon_s);
    EXPECT_DOUBLE_EQ(o.up_at, o.down_at + plan.flap_down_s);
    EXPECT_GE(o.down_at, prev);  // merged schedule is sorted
    prev = o.down_at;
  }
  // Same plan + seed reproduces the schedule exactly.
  net::FaultInjector again(plan, 3, 3);
  ASSERT_EQ(again.outages().size(), inj.outages().size());
  for (std::size_t i = 0; i < inj.outages().size(); ++i) {
    EXPECT_DOUBLE_EQ(again.outages()[i].down_at, inj.outages()[i].down_at);
  }
}

TEST(FaultInjector, OverlappingOutagesRefcount) {
  net::FaultPlan plan;
  net::FaultInjector inj(plan, 1, 1);
  EXPECT_TRUE(inj.link_up(0));
  inj.link_down_event(0);
  inj.link_down_event(0);  // overlapping outage
  inj.link_up_event(0);
  EXPECT_FALSE(inj.link_up(0));  // still inside the second outage
  inj.link_up_event(0);
  EXPECT_TRUE(inj.link_up(0));
}

// ---------------------------------------------------------------------------
// End-to-end rig: 2x2 leaf-spine with the stateful firewall deployed.
// ---------------------------------------------------------------------------

struct Rig {
  net::LeafSpine fabric;
  std::unique_ptr<net::Network> net;
  int dep = -1;

  Rig() : fabric(net::make_leaf_spine(2, 2, 2)) {
    net = std::make_unique<net::Network>(fabric.topo);
    fwd::install_leaf_spine_routing(*net, fabric);
    dep = net->deploy(compile_library_checker("stateful_firewall"));
  }

  std::uint32_t ip(int host) const { return net->topo().node(host).ip; }

  // Installs both directions of an allow entry immediately.
  void allow(int host_a, int host_b) {
    net->dict_insert_all(dep, "allowed",
                         {BitVec(32, ip(host_a)), BitVec(32, ip(host_b))},
                         {BitVec::from_bool(true)});
    net->dict_insert_all(dep, "allowed",
                         {BitVec(32, ip(host_b)), BitVec(32, ip(host_a))},
                         {BitVec::from_bool(true)});
  }

  // Control table `var` of every switch, in snapshot form.
  std::string table_bytes(const std::string& var) {
    std::ostringstream out;
    for (int sw = 0; sw < net->topo().node_count(); ++sw) {
      if (net->topo().node(sw).kind != net::NodeKind::kSwitch) continue;
      p4rt::serialize_table(net->checker_table(dep, sw, var), out);
      out << '\n';
    }
    return out.str();
  }

  void send_at(double t, int src_host, int dst_host, std::uint16_t sport) {
    const std::uint32_t sip = ip(src_host);
    const std::uint32_t dip = ip(dst_host);
    net->events().schedule_at(t, [this, src_host, sip, dip, sport] {
      net->send_from_host(src_host, p4rt::make_udp(sip, dip, sport, 80, 64));
    });
  }
};

// ---------------------------------------------------------------------------
// Fail-closed decode: damaged telemetry becomes a counted reject with an
// annotated report — never a throw.
// ---------------------------------------------------------------------------

TEST(FailClosed, CorruptedTagIsCountedRejectNotThrow) {
  Rig r;
  r.net->set_forensics(true, 256);
  r.allow(r.fabric.hosts[0][0], r.fabric.hosts[1][0]);
  net::FaultPlan plan;
  plan.corrupt = 1.0;  // every transmit damages the frame
  plan.corrupt_mode = net::CorruptMode::kBadTag;
  r.net->arm_faults(plan, 5);
  for (int i = 0; i < 20; ++i) {
    r.send_at(1e-6 * (i + 1), r.fabric.hosts[0][0], r.fabric.hosts[1][0],
              static_cast<std::uint16_t>(4000 + i));
  }
  ASSERT_NO_THROW(r.net->events().run());
  const net::FaultStats& fs = r.net->fault_stats();
  EXPECT_GT(fs.corruptions, 0u);
  EXPECT_GT(fs.tele_rejects, 0u);
  EXPECT_EQ(fs.tele_recovered, 0u);  // a clobbered tag never re-parses
  EXPECT_GT(r.net->counters().rejected, 0u);
  // The assembled reports carry the static decode reason.
  EXPECT_NE(r.net->violation_reports_json().find(
                "\"reason\": \"tele_bad_tag\""),
            std::string::npos);
}

// A pooled packet keeps the tele slot of an undeployed checker, retired.
// Corruption draws among the live frames only and counts only real
// damage, so every corrupted transmit damages the one live frame and the
// next switch rejects it.
TEST(FailClosed, CorruptionHitsOnlyLiveFramesAndCountsOnlyDamage) {
  auto fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  fwd::install_leaf_spine_routing(net, fabric);
  const std::string src = "tele bit<8> n = 0;\n{ } { n += 1; } { }";
  const int first = net.deploy(compile_shared(src, "first"));
  net.deploy(compile_shared(src, "second"));
  const int from = fabric.hosts[0][0];
  const int to = fabric.hosts[1][0];
  auto send = [&](int packets) {
    for (int i = 0; i < packets; ++i) {
      const net::PacketHandle h = net.alloc_packet();
      p4rt::make_udp_into(net.packet(h), net.topo().node(from).ip,
                          net.topo().node(to).ip,
                          static_cast<std::uint16_t>(1000 + i), 80, 64);
      net.send_pooled(from, h);
      net.events().run();
    }
  };
  send(20);
  net.undeploy(first);
  net::FaultPlan plan;
  plan.corrupt = 1.0;
  plan.corrupt_mode = net::CorruptMode::kBadTag;
  net.arm_faults(plan, 5);
  send(200);
  const net::FaultStats& fs = net.fault_stats();
  EXPECT_EQ(fs.corruptions, 200u);
  EXPECT_EQ(fs.tele_rejects, 200u);
  EXPECT_EQ(net.counters().rejected, 200u);
  EXPECT_EQ(net.counters().delivered, 20u);
}

TEST(FailClosed, MidPathTruncationIsCountedRejectNotThrow) {
  Rig r;
  r.net->set_forensics(true, 256);
  r.allow(r.fabric.hosts[0][0], r.fabric.hosts[1][0]);
  net::FaultPlan plan;
  plan.corrupt = 1.0;
  plan.corrupt_mode = net::CorruptMode::kTruncate;
  r.net->arm_faults(plan, 6);
  for (int i = 0; i < 20; ++i) {
    r.send_at(1e-6 * (i + 1), r.fabric.hosts[0][0], r.fabric.hosts[1][0],
              static_cast<std::uint16_t>(4100 + i));
  }
  ASSERT_NO_THROW(r.net->events().run());
  const net::FaultStats& fs = r.net->fault_stats();
  EXPECT_GT(fs.tele_rejects, 0u);
  EXPECT_EQ(fs.tele_recovered, 0u);  // truncation is always strictly shorter
  EXPECT_NE(r.net->violation_reports_json().find(
                "\"reason\": \"tele_size_mismatch\""),
            std::string::npos);
}

TEST(FailClosed, PayloadBitFlipIsUndetectableAndRecovers) {
  // A flipped payload bit re-parses cleanly (the dataplane codec has no
  // checksum) — the frame is counted as recovered, not rejected. This is
  // the documented realism limit of the fail-closed path.
  Rig r;
  r.allow(r.fabric.hosts[0][0], r.fabric.hosts[1][0]);
  net::FaultPlan plan;
  plan.corrupt = 1.0;
  plan.corrupt_mode = net::CorruptMode::kBitFlip;
  r.net->arm_faults(plan, 7);
  for (int i = 0; i < 20; ++i) {
    r.send_at(1e-6 * (i + 1), r.fabric.hosts[0][0], r.fabric.hosts[1][0],
              static_cast<std::uint16_t>(4200 + i));
  }
  ASSERT_NO_THROW(r.net->events().run());
  const net::FaultStats& fs = r.net->fault_stats();
  EXPECT_GT(fs.corruptions, 0u);
  EXPECT_GT(fs.tele_recovered, 0u);
  EXPECT_EQ(fs.tele_rejects, 0u);
}

// ---------------------------------------------------------------------------
// Switch restarts: sensors wiped, verdicts suppressed while cold.
// ---------------------------------------------------------------------------

TEST(ColdRestart, WipesSensorRegisters) {
  auto chk = compile_shared(
      "sensor bit<8> s = 0;\ntele bool x;\n{ } { } { }", "cold_sensor");
  auto fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  fwd::install_leaf_spine_routing(net, fabric);
  const int dep = net.deploy(chk);
  net.checker_register(dep, fabric.leaves[0], "s").write(0, BitVec(8, 55));
  net.checker_register(dep, fabric.leaves[1], "s").write(0, BitVec(8, 77));

  net::FaultPlan plan;
  plan.restarts.push_back({fabric.leaves[1], 50e-6});
  net.arm_faults(plan, 1);
  net.events().run();

  EXPECT_EQ(net.fault_stats().restarts, 1u);
  // Only the restarted switch lost its sensor state.
  EXPECT_EQ(net.checker_register(dep, fabric.leaves[1], "s").read(0).value(),
            0u);
  EXPECT_EQ(net.checker_register(dep, fabric.leaves[0], "s").read(0).value(),
            55u);
}

TEST(ColdRestart, SuppressesVerdictsDuringWarmupThenResumes) {
  Rig r;  // no allow entries: every flow is a violation at its last hop
  r.net->set_forensics(true, 256);
  net::FaultPlan plan;
  plan.restarts.push_back({r.fabric.leaves[1], 100e-6});
  plan.restart_warmup_s = 400e-6;  // cold until t = 500us
  r.net->arm_faults(plan, 2);
  // During warmup: the zeroed sensors must not produce a false verdict.
  r.send_at(150e-6, r.fabric.hosts[0][1], r.fabric.hosts[1][0], 4300);
  // Well after warmup: the same flow is rejected again.
  r.send_at(900e-6, r.fabric.hosts[0][1], r.fabric.hosts[1][0], 4301);
  ASSERT_NO_THROW(r.net->events().run());

  const net::FaultStats& fs = r.net->fault_stats();
  EXPECT_EQ(fs.restarts, 1u);
  EXPECT_GE(fs.cold_suppressed, 1u);
  EXPECT_EQ(r.net->counters().rejected, 1u);  // only the post-warmup packet
  // The surviving report is annotated as a plain checker verdict.
  EXPECT_NE(r.net->violation_reports_json().find("\"checker_reject\""),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Delayed controller rule pushes.
// ---------------------------------------------------------------------------

TEST(DelayedRulePush, RulesLandAfterConfiguredDelay) {
  Rig r;
  net::FaultPlan plan;
  plan.rule_push_delay_s = 200e-6;  // no jitter: lands at exactly 200us
  r.net->arm_faults(plan, 3);
  const int client = r.fabric.hosts[0][0];
  const int server = r.fabric.hosts[1][0];
  r.net->dict_insert_all_delayed(
      r.dep, "allowed", {BitVec(32, r.ip(client)), BitVec(32, r.ip(server))},
      {BitVec::from_bool(true)});
  r.net->dict_insert_all_delayed(
      r.dep, "allowed", {BitVec(32, r.ip(server)), BitVec(32, r.ip(client))},
      {BitVec::from_bool(true)});
  r.send_at(20e-6, client, server, 4400);   // before the rules land
  r.send_at(800e-6, client, server, 4401);  // after
  ASSERT_NO_THROW(r.net->events().run());

  // One push per switch per entry (4 switches x 2 entries).
  EXPECT_EQ(r.net->fault_stats().delayed_pushes, 8u);
  EXPECT_EQ(r.net->counters().rejected, 1u);
  // Unknown control var is still rejected eagerly, at schedule time.
  EXPECT_THROW(r.net->dict_insert_all_delayed(r.dep, "no_such_dict", {}, {}),
               std::invalid_argument);
}

TEST(DelayedRulePush, FallsBackToImmediateWhenDisarmed) {
  Rig r;
  const int client = r.fabric.hosts[0][0];
  const int server = r.fabric.hosts[1][0];
  r.net->dict_insert_all_delayed(
      r.dep, "allowed", {BitVec(32, r.ip(client)), BitVec(32, r.ip(server))},
      {BitVec::from_bool(true)});
  r.net->dict_insert_all_delayed(
      r.dep, "allowed", {BitVec(32, r.ip(server)), BitVec(32, r.ip(client))},
      {BitVec::from_bool(true)});
  r.send_at(20e-6, client, server, 4500);
  r.net->events().run();
  EXPECT_EQ(r.net->counters().rejected, 0u);
  EXPECT_EQ(r.net->counters().delivered, 1u);
}

TEST(DelayedRulePush, LandsTheSameRowBytesAsDictInsertAll) {
  Rig now;
  Rig later;
  net::FaultPlan plan;
  plan.rule_push_delay_s = 100e-6;  // no jitter: pushes land in call order
  later.net->arm_faults(plan, 5);
  const std::string empty = now.table_bytes("allowed");
  for (std::uint32_t i = 0; i < 3; ++i) {
    const std::vector<BitVec> key = {BitVec(32, 0x0a000001 + i),
                                     BitVec(32, 0x0a000102)};
    now.net->dict_insert_all(now.dep, "allowed", key,
                             {BitVec::from_bool(true)});
    later.net->dict_insert_all_delayed(later.dep, "allowed", key,
                                       {BitVec::from_bool(true)});
  }
  later.net->events().run();
  EXPECT_EQ(later.net->fault_stats().delayed_pushes, 12u);
  EXPECT_NE(now.table_bytes("allowed"), empty);
  EXPECT_EQ(later.table_bytes("allowed"), now.table_bytes("allowed"));
}

// A push still in flight when its slot retires must not land in the
// checker that reuses the slot, even one with a table of the same name.
TEST(DelayedRulePush, PendingPushSkipsTheSlotsNextOccupant) {
  Rig r;
  net::FaultPlan plan;
  plan.rule_push_delay_s = 500e-6;
  r.net->arm_faults(plan, 3);
  r.net->dict_insert_all_delayed(r.dep, "allowed",
                                 {BitVec(32, 1), BitVec(32, 2)},
                                 {BitVec::from_bool(true)});
  r.net->undeploy_rolling(r.dep);
  r.net->events().run_until(100e-6);
  ASSERT_FALSE(r.net->deployment_live(r.dep));
  const int again =
      r.net->deploy_rolling(compile_library_checker("stateful_firewall"));
  ASSERT_EQ(again, r.dep);
  r.net->events().run();
  EXPECT_EQ(r.net->fault_stats().delayed_pushes, 0u);
  for (int sw = 0; sw < r.net->topo().node_count(); ++sw) {
    if (r.net->topo().node(sw).kind != net::NodeKind::kSwitch) continue;
    EXPECT_EQ(r.net->checker_table(again, sw, "allowed").size(), 0u);
  }
}

// One width-checked conversion serves every switch, so a bad key throws
// before any switch's table changes, on the immediate and delayed paths.
TEST(DictInsertAll, KeyOfAnotherWidthInstallsNothingAnywhere) {
  Rig r;
  const std::string before = r.table_bytes("allowed");
  try {
    r.net->dict_insert_all(r.dep, "allowed", {BitVec(32, 1), BitVec(16, 2)},
                           {BitVec::from_bool(true)});
    ADD_FAILURE() << "dict_insert_all accepted a 16-bit key field";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("table 'allowed': field 1 ("),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(r.net->dict_insert_all(r.dep, "allowed", {BitVec(32, 1)},
                                      {BitVec::from_bool(true)}),
               std::invalid_argument);
  EXPECT_EQ(r.table_bytes("allowed"), before);

  net::FaultPlan plan;
  plan.rule_push_delay_s = 200e-6;
  r.net->arm_faults(plan, 3);
  EXPECT_THROW(
      r.net->dict_insert_all_delayed(r.dep, "allowed",
                                     {BitVec(16, 1), BitVec(32, 2)},
                                     {BitVec::from_bool(true)}),
      std::invalid_argument);
  r.net->events().run();
  EXPECT_EQ(r.net->fault_stats().delayed_pushes, 0u);
  EXPECT_EQ(r.table_bytes("allowed"), before);
}

// ---------------------------------------------------------------------------
// Arm/disarm lifecycle.
// ---------------------------------------------------------------------------

TEST(FaultInjection, ArmRequiresIdleEventQueue) {
  Rig r;
  r.net->events().schedule_at(1e-6, [] {});
  EXPECT_THROW(r.net->arm_faults({}, 1), std::logic_error);
  r.net->events().run();
  EXPECT_FALSE(r.net->faults_armed());
  r.net->arm_faults({}, 1);
  EXPECT_TRUE(r.net->faults_armed());
  r.net->disarm_faults();
  EXPECT_FALSE(r.net->faults_armed());
}

// ---------------------------------------------------------------------------
// Traffic-generator hardening.
// ---------------------------------------------------------------------------

TEST(Traffic, UdpFloodValidatesConstructorArgs) {
  Rig r;
  const int a = r.fabric.hosts[0][0];
  const int b = r.fabric.hosts[1][0];
  // 42 bytes of Ethernet+IP+UDP overhead: anything smaller underflowed the
  // payload computation in the seed.
  EXPECT_THROW(net::UdpFlood(*r.net, a, b, 1.0, 41), std::invalid_argument);
  EXPECT_THROW(net::UdpFlood(*r.net, a, b, 0.0, 1400),
               std::invalid_argument);
  EXPECT_THROW(net::UdpFlood(*r.net, a, b, -1.0, 1400),
               std::invalid_argument);
  EXPECT_NO_THROW(net::UdpFlood(*r.net, a, b, 1.0, 42));
}

TEST(Traffic, PingProbeDeduplicatesDuplicatedEchoes) {
  auto fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  fwd::install_leaf_spine_routing(net, fabric);
  net::FaultPlan plan;
  plan.duplicate = 1.0;  // every transmit duplicates: 2^hops copies arrive
  net.arm_faults(plan, 4);
  net::PingProbe probe(net, fabric.hosts[0][0], fabric.hosts[1][0], 20e-6);
  probe.start(0.0, 1e-3);
  net.events().run();

  EXPECT_GT(probe.sent(), 0);
  EXPECT_GT(net.fault_stats().duplicates, 0u);
  // Without dedup the duplicated replies would push samples far above
  // sent and lost() negative.
  EXPECT_LE(static_cast<int>(probe.samples().size()), probe.sent());
  EXPECT_GE(probe.lost(), 0);
}

// ---------------------------------------------------------------------------
// Link buffer capacity and per-direction tail drops.
// ---------------------------------------------------------------------------

TEST(LinkBuffer, CapacityConfigurableViaSpecWithPerDirectionDrops) {
  net::LinkSpec spec;
  spec.a = {0, 0};
  spec.b = {1, 0};
  spec.latency_s = 0.0;
  spec.gbps = 8e-6;  // 8000 bps: a 1000-byte packet serializes in 1s
  spec.buffer_bytes = 1500.0;
  net::Link link(spec);
  EXPECT_DOUBLE_EQ(link.buffer_bytes(), 1500.0);
  EXPECT_TRUE(link.transmit(0, 0.0, 1000).has_value());
  // 1000 bytes already queued + 1000 new > 1500: tail drop.
  EXPECT_FALSE(link.transmit(0, 0.0, 1000).has_value());
  EXPECT_EQ(link.stats(0).drops, 1u);
  // The reverse direction has its own buffer and counter.
  EXPECT_TRUE(link.transmit(1, 0.0, 1000).has_value());
  EXPECT_EQ(link.stats(1).drops, 0u);
}

TEST(LinkBuffer, TopologyValidatesBufferAndForwardsSpec) {
  net::Topology topo;
  const int s = topo.add_switch("s0");
  const int h = topo.add_host("h0", 0x0a000001);
  EXPECT_THROW(topo.add_link({s, 1}, {h, 0}, 2e-6, 10.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(topo.add_link({s, 1}, {h, 0}, 2e-6, 10.0, -5.0),
               std::invalid_argument);
  topo.add_link({s, 1}, {h, 0}, 2e-6, 10.0, 256.0);
  ASSERT_EQ(topo.links().size(), 1u);
  EXPECT_DOUBLE_EQ(topo.links()[0].buffer_bytes, 256.0);
}

TEST(LinkBuffer, PerDirectionDropGaugesExported) {
  Rig r;
  r.net->set_observability(true);
  const std::string metrics = r.net->metrics_json();
  EXPECT_NE(metrics.find("net.link."), std::string::npos);
  EXPECT_NE(metrics.find(".drops"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Whole-run determinism: one seed, identical outcomes.
// ---------------------------------------------------------------------------

TEST(Determinism, SameSeedSameChaosOutcome) {
  const auto once = [](std::uint64_t seed) {
    Rig r;
    r.net->set_forensics(true, 256);
    net::FaultPlan plan;
    plan.loss = 0.05;
    plan.corrupt = 0.1;
    plan.duplicate = 0.05;
    plan.reorder = 0.1;
    plan.flap_rate_hz = 2000.0;
    plan.flap_down_s = 100e-6;
    plan.horizon_s = 2e-3;
    plan.restarts.push_back({r.fabric.leaves[0], 1e-3});
    plan.rule_push_delay_s = 80e-6;
    plan.rule_push_jitter_s = 40e-6;
    r.net->arm_faults(plan, seed);
    const int client = r.fabric.hosts[0][0];
    const int server = r.fabric.hosts[1][0];
    r.net->dict_insert_all_delayed(
        r.dep, "allowed",
        {BitVec(32, r.ip(client)), BitVec(32, r.ip(server))},
        {BitVec::from_bool(true)});
    for (int i = 0; i < 100; ++i) {
      const int src = i % 3 == 2 ? r.fabric.hosts[0][1] : client;
      r.send_at(10e-6 * (i + 1), src, server,
                static_cast<std::uint16_t>(5000 + i % 8));
    }
    r.net->events().run();
    std::ostringstream os;
    const auto& c = r.net->counters();
    os << r.net->fault_stats().to_json() << '|' << c.injected << ','
       << c.delivered << ',' << c.rejected << ',' << c.fault_dropped << '|'
       << r.net->violation_reports_json();
    return os.str();
  };
  EXPECT_EQ(once(11), once(11));
}

}  // namespace
}  // namespace hydra
