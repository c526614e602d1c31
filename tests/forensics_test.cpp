// Forensics subsystem tests: flight-recorder ring semantics, end-to-end
// ViolationReport assembly, forensics JSON byte-identical across runs, and
// the zero-allocation disabled path.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "forwarding/ipv4_ecmp.hpp"
#include "hydra/hydra.hpp"
#include "net/network.hpp"
#include "obs/forensics.hpp"

using namespace hydra;

// ---- flight recorder (unit) -----------------------------------------------

TEST(FlightRecorder, WraparoundKeepsNewest) {
  obs::FlightRecorder rec(2, 4);
  for (int i = 0; i < 10; ++i) {
    obs::HopRecord r;
    r.packet_id = 7;
    r.hop = i + 1;
    rec.append(1, r);
  }
  EXPECT_EQ(rec.recorded(), 10u);

  std::vector<const obs::HopRecord*> out;
  rec.collect(7, out);
  ASSERT_EQ(out.size(), 4u);
  // The four newest records survive, returned oldest-first.
  std::vector<int> hops;
  for (const auto* r : out) hops.push_back(r->hop);
  EXPECT_EQ(hops, (std::vector<int>{7, 8, 9, 10}));

  // Other rings and other packet ids are untouched by the wrap.
  out.clear();
  rec.collect(8, out);
  EXPECT_TRUE(out.empty());
  rec.append(0, obs::HopRecord{}).packet_id = 9;
  out.clear();
  rec.collect(9, out);
  EXPECT_EQ(out.size(), 1u);

  rec.clear();
  out.clear();
  rec.collect(7, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(rec.recorded(), 0u);
}

TEST(FlightRecorder, SecondLapSlotHoldsOnlyTheNewRecord) {
  obs::FlightRecorder rec(1, 2);
  obs::HopRecord first;
  first.packet_id = 1;
  first.add_table_hit(0, 3, true);
  first.add_tele(4, 99);
  const obs::HopRecord* lap1 = &rec.append(0, first);
  rec.append(0, obs::HopRecord{});  // fills the ring
  obs::HopRecord next;
  next.hop = 5;
  obs::HopRecord& lap2 = rec.append(0, next);
  ASSERT_EQ(&lap2, lap1);  // the second lap reuses the first slot
  EXPECT_EQ(lap2.packet_id, 0u);
  EXPECT_EQ(lap2.hop, 5);
  EXPECT_EQ(lap2.n_table_hits, 0);
  EXPECT_EQ(lap2.n_tele, 0);
  std::vector<const obs::HopRecord*> out;
  rec.collect(1, out);
  EXPECT_TRUE(out.empty());
}

TEST(HopRecord, OverflowSetsTruncationBits) {
  obs::HopRecord r;
  for (int i = 0; i < obs::HopRecord::kMaxTableHits + 2; ++i) {
    r.add_table_hit(0, i, true);
  }
  EXPECT_EQ(r.n_table_hits, obs::HopRecord::kMaxTableHits);
  EXPECT_NE(r.truncated & obs::HopRecord::kTruncTableHits, 0);
  EXPECT_EQ(r.truncated & obs::HopRecord::kTruncRegTouches, 0);

  for (int i = 0; i < obs::HopRecord::kMaxRegTouches + 1; ++i) {
    r.add_reg_touch(0, true, 1, 2);
  }
  EXPECT_NE(r.truncated & obs::HopRecord::kTruncRegTouches, 0);
  for (int i = 0; i < obs::HopRecord::kMaxTele + 1; ++i) {
    r.add_tele(static_cast<std::int16_t>(i), 5);
  }
  EXPECT_NE(r.truncated & obs::HopRecord::kTruncTele, 0);
  // Retained prefix is intact.
  EXPECT_EQ(r.table_hits[2].entry, 2);
  r.reset();
  EXPECT_EQ(r.truncated, 0);
  EXPECT_EQ(r.n_tele, 0);
}

// ---- end-to-end assembly --------------------------------------------------

namespace {

struct Bed {
  net::LeafSpine fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net{fabric.topo};
  std::shared_ptr<fwd::Ipv4EcmpProgram> routing =
      fwd::install_leaf_spine_routing(net, fabric);
  int dep = net.deploy(compile_library_checker("stateful_firewall"));

  std::uint32_t ip(int host) const { return net.topo().node(host).ip; }

  void allow(int a, int b) {
    for (const auto& [s, d] : {std::pair{a, b}, std::pair{b, a}}) {
      net.dict_insert_all(dep, "allowed",
                          {BitVec(32, ip(s)), BitVec(32, ip(d))},
                          {BitVec::from_bool(true)});
    }
  }

  void send(int from, int to, std::uint16_t sport = 40000) {
    net.send_from_host(from,
                       p4rt::make_udp(ip(from), ip(to), sport, 80, 64));
    net.events().run();
  }
};

}  // namespace

TEST(Forensics, ViolationReportEndToEnd) {
  Bed bed;
  const int h0 = bed.fabric.hosts[0][0];
  const int h2 = bed.fabric.hosts[1][0];
  bed.net.set_forensics(true);
  EXPECT_TRUE(bed.net.observability_enabled());  // implied
  EXPECT_TRUE(bed.net.forensics_enabled());

  bed.allow(h0, h2);
  bed.send(h0, h2);  // allowed: delivered, no violation
  EXPECT_TRUE(bed.net.violation_reports().empty());

  const int intruder = bed.fabric.hosts[0][1];
  bed.send(intruder, h2);  // unsolicited: rejected at last hop
  ASSERT_EQ(bed.net.violation_reports().size(), 1u);
  const obs::ViolationReport& v = bed.net.violation_reports().front();

  EXPECT_EQ(v.kind, "reject");
  ASSERT_EQ(v.checkers.size(), 1u);
  EXPECT_EQ(v.checkers[0], "stateful_firewall");
  // Cross-leaf path: leaf -> spine -> leaf.
  EXPECT_EQ(v.hop_count, 3);
  ASSERT_EQ(v.hops.size(), 3u);
  EXPECT_FALSE(v.truncated);
  EXPECT_TRUE(v.hops.front().first_hop);
  EXPECT_TRUE(v.hops.back().last_hop);
  EXPECT_EQ(v.hops.back().switch_id, v.switch_id);

  // Every hop carries the checker's execution with tele values; the
  // verdict hop ran the check block and shows the `allowed` table miss.
  for (const auto& h : v.hops) {
    ASSERT_EQ(h.checkers.size(), 1u);
    EXPECT_TRUE(h.checkers[0].ran_tele);
    EXPECT_FALSE(h.checkers[0].tele.empty());
  }
  const obs::ViolationHopChecker& last = v.hops.back().checkers[0];
  EXPECT_TRUE(last.ran_check);
  EXPECT_TRUE(last.reject);
  const bool saw_allowed_miss =
      std::any_of(last.table_hits.begin(), last.table_hits.end(),
                  [](const obs::ViolationHopChecker::TableHit& th) {
                    return th.table == "allowed" && !th.hit;
                  });
  EXPECT_TRUE(saw_allowed_miss);

  const std::string narrative = obs::violation_narrative(v);
  EXPECT_NE(narrative.find("VIOLATION (reject)"), std::string::npos);
  EXPECT_NE(narrative.find("stateful_firewall"), std::string::npos);
  EXPECT_NE(narrative.find("table allowed: MISS"), std::string::npos);

  bed.net.clear_violation_reports();
  EXPECT_TRUE(bed.net.violation_reports().empty());
}

// Each slot keeps its provenance capture through the deploys and undeploys
// that follow arming: with forensics armed first, the firewall's verdict
// hop shows its `allowed` miss beside a second checker deployed after it,
// and again once that checker is undeployed.
TEST(Forensics, ProvenanceSurvivesLaterDeployAndUndeploy) {
  const net::LeafSpine fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  const auto routing = fwd::install_leaf_spine_routing(net, fabric);
  net.set_forensics(true);
  net.deploy(compile_library_checker("stateful_firewall"));
  const int counter = net.deploy(compile_shared(
      "tele bit<8> n = 0; { n = 1; } { n += 1; } { }", "hop_counter"));

  const int intruder = fabric.hosts[0][1];
  const int h2 = fabric.hosts[1][0];
  const auto ip = [&net](int host) { return net.topo().node(host).ip; };
  // Sends one unsolicited packet and checks the firewall's record at the
  // verdict hop of the violation it raises.
  const auto expect_allowed_miss = [&](std::uint16_t sport) {
    net.clear_violation_reports();
    net.send_from_host(intruder,
                       p4rt::make_udp(ip(intruder), ip(h2), sport, 80, 64));
    net.events().run();
    ASSERT_EQ(net.violation_reports().size(), 1u);
    const obs::ViolationReport& v = net.violation_reports().front();
    EXPECT_EQ(v.kind, "reject");
    EXPECT_EQ(v.checkers, std::vector<std::string>{"stateful_firewall"});
    const auto& checkers = v.hops.back().checkers;
    const auto fw = std::find_if(
        checkers.begin(), checkers.end(),
        [](const auto& c) { return c.checker == "stateful_firewall"; });
    ASSERT_NE(fw, checkers.end());
    EXPECT_TRUE(fw->reject);
    EXPECT_TRUE(std::any_of(
        fw->table_hits.begin(), fw->table_hits.end(),
        [](const obs::ViolationHopChecker::TableHit& th) {
          return th.table == "allowed" && !th.hit;
        }));
  };

  {
    SCOPED_TRACE("beside a checker deployed after it");
    expect_allowed_miss(40000);
  }
  net.undeploy(counter);
  SCOPED_TRACE("after that checker's undeploy");
  expect_allowed_miss(40001);
}

TEST(Forensics, RingEvictionMarksReportTruncated) {
  Bed bed;
  const int h2 = bed.fabric.hosts[1][0];
  // Single-slot rings: the second packet's first-hop record evicts the
  // first packet's before the latter's verdict commits.
  bed.net.set_forensics(true, /*ring_capacity=*/1);
  const int a = bed.fabric.hosts[0][0];
  const int b = bed.fabric.hosts[0][1];
  bed.net.send_from_host(a, p4rt::make_udp(bed.ip(a), bed.ip(h2), 41000, 80,
                                           64));
  bed.net.send_from_host(b, p4rt::make_udp(bed.ip(b), bed.ip(h2), 41001, 80,
                                           64));
  bed.net.events().run();

  ASSERT_EQ(bed.net.violation_reports().size(), 2u);
  const obs::ViolationReport& first = bed.net.violation_reports()[0];
  EXPECT_TRUE(first.truncated);
  EXPECT_LT(first.hops.size(), 3u);
  EXPECT_NE(obs::violation_narrative(first).find("wrapped"),
            std::string::npos);
}

TEST(Forensics, ByteIdenticalAcrossRuns) {
  auto run = [] {
    Bed bed;
    bed.net.set_forensics(true);
    const int h0 = bed.fabric.hosts[0][0];
    const int h2 = bed.fabric.hosts[1][0];
    bed.allow(h0, h2);
    // A burst of mixed allowed/unsolicited flows injected at one instant,
    // so the (t, seq) tie-breaking decides the ring order.
    bed.net.events().schedule_at(1e-4, [&] {
      for (int i = 0; i < 12; ++i) {
        const int src = bed.fabric.hosts[0][i % 2];
        bed.net.send_from_host(
            src, p4rt::make_udp(bed.ip(src), bed.ip(h2),
                                static_cast<std::uint16_t>(42000 + i), 80,
                                64));
      }
    });
    bed.net.events().run();
    return bed.net.violation_reports_json();
  };

  const std::string first = run();
  EXPECT_NE(first.find("\"kind\": \"reject\""), std::string::npos);
  EXPECT_EQ(first, run());
}

TEST(Forensics, InitReportNamesItsChecker) {
  Bed bed;
  bed.net.set_forensics(true);
  bed.net.deploy(compile_shared(
      "tele bit<8> n = 0; header bit<32> ipv4_src;"
      " { n = 1; report((ipv4_src)); } { n += 1; } { }",
      "init_reporter"));
  const int h0 = bed.fabric.hosts[0][0];
  const int h2 = bed.fabric.hosts[1][0];
  bed.allow(h0, h2);
  bed.send(h0, h2);  // allowed by the firewall; only the init block reports

  ASSERT_EQ(bed.net.violation_reports().size(), 1u);
  const obs::ViolationReport& v = bed.net.violation_reports().front();
  EXPECT_EQ(v.kind, "report");
  EXPECT_EQ(v.checkers, std::vector<std::string>{"init_reporter"});
  ASSERT_EQ(v.report_payloads.size(), 1u);
  const std::string json = obs::violation_json(v);
  EXPECT_NE(json.find("{\"checker\": \"init_reporter\", \"blocks\": "
                      "\"init+tele\", \"reject\": false, \"reports\": 1"),
            std::string::npos)
      << json;
}

TEST(Forensics, DisabledPathPerformsNoForensicsAllocations) {
  const std::uint64_t before = obs::forensics_allocations();
  {
    Bed bed;
    const int h0 = bed.fabric.hosts[0][0];
    const int h2 = bed.fabric.hosts[1][0];
    bed.allow(h0, h2);
    bed.send(h0, h2);
    bed.send(bed.fabric.hosts[0][1], h2);  // rejected, but no recorder
    EXPECT_FALSE(bed.net.forensics_enabled());
    EXPECT_TRUE(bed.net.violation_reports().empty());
  }
  EXPECT_EQ(obs::forensics_allocations(), before);

  // Arming charges the rings once; a violation charges its report.
  {
    Bed bed;
    bed.net.set_forensics(true);
    const std::uint64_t armed = obs::forensics_allocations();
    EXPECT_GT(armed, before);
    bed.send(bed.fabric.hosts[0][1], bed.fabric.hosts[1][0]);
    EXPECT_EQ(obs::forensics_allocations(), armed + 1);  // one report
    // Steady-state recording itself never charges: replaying the same
    // violating flow adds exactly one charge per assembled report.
    bed.send(bed.fabric.hosts[0][1], bed.fabric.hosts[1][0], 40001);
    EXPECT_EQ(obs::forensics_allocations(), armed + 2);
  }
}
