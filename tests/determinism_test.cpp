// Determinism tests on randomized traffic over both reference fabrics:
//   * a scenario run twice in one process (fresh network each time) yields
//     identical snapshots — same reports in the same order, same metrics,
//     forensics and exposition, same final checker register/table state;
//   * where a scenario's verdicts do not depend on observability, running
//     it with observability off and on yields the same counters, reports,
//     final checker state and fault stats.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>

#include "aether/churn.hpp"
#include "aether/controller.hpp"
#include "aether/slice.hpp"
#include "forwarding/ipv4_ecmp.hpp"
#include "forwarding/upf.hpp"
#include "hydra/apps.hpp"
#include "hydra/hydra.hpp"
#include "net/network.hpp"
#include "net/traffic.hpp"
#include "obs/httpd.hpp"

namespace hydra {
namespace {

// Canonical end-of-run observation of a network.
struct Snapshot {
  std::string counters;
  std::string reports;
  std::string metrics;
  std::string state;      // per-switch checker registers + table entries
  std::string forensics;  // assembled ViolationReports as canonical JSON
  std::string faults;     // FaultStats JSON when a fault plan is armed
  std::string prom;       // Prometheus exposition when export is armed
  std::string series;     // windowed series JSON when export is armed
  std::string live_metrics;  // per-tick published /metrics bodies (live plane)
  std::string live_series;   // per-tick published /series bodies (live plane)
};

std::string dump_counters(const net::Network::Counters& c) {
  std::ostringstream os;
  os << "inj=" << c.injected << " del=" << c.delivered
     << " rej=" << c.rejected << " fwd_drop=" << c.fwd_dropped
     << " q_drop=" << c.queue_dropped << " f_drop=" << c.fault_dropped;
  return os.str();
}

std::string dump_reports(const net::Network& net) {
  std::ostringstream os;
  for (const auto& r : net.reports()) {
    os << r.deployment << '|' << r.checker << '|' << r.switch_id << '|'
       << r.time << '|' << r.hop_count << '|' << r.flow.to_string();
    for (const auto& v : r.values) os << '|' << v.to_string();
    os << '\n';
  }
  return os.str();
}

std::string dump_state(net::Network& net) {
  std::ostringstream os;
  for (int dep = 0; dep < net.deployment_count(); ++dep) {
    const ir::CheckerIR& ir = net.checker(dep).ir;
    for (int sw = 0; sw < net.topo().node_count(); ++sw) {
      if (net.topo().node(sw).kind != net::NodeKind::kSwitch) continue;
      for (const auto& reg : ir.registers) {
        auto& ra = net.checker_register(dep, sw, reg.name);
        os << dep << '/' << sw << "/reg " << reg.name << ':';
        for (std::size_t i = 0; i < ra.size(); ++i) {
          os << ' ' << ra.read(i).value();
        }
        os << '\n';
      }
      for (const auto& table : ir.tables) {
        auto& t = net.checker_table(dep, sw, table.name);
        os << dep << '/' << sw << "/table " << table.name << ':';
        for (const auto& e : t.entries()) {
          os << " [p" << e.priority;
          for (const auto& pat : e.patterns) {
            os << ' ' << pat.value.to_string() << '&'
               << pat.mask.to_string() << '/' << pat.prefix_len;
          }
          os << " ->";
          for (const auto& v : e.action_data) os << ' ' << v.to_string();
          os << ']';
        }
        os << '\n';
      }
    }
  }
  return os.str();
}

Snapshot snapshot(net::Network& net) {
  Snapshot s;
  s.counters = dump_counters(net.counters());
  s.reports = dump_reports(net);
  // Metrics and forensics only exist while observability is on; obs-off
  // runs still compare everything else.
  if (net.observability_enabled()) {
    s.metrics = net.metrics_json();
    s.forensics = net.violation_reports_json();
  }
  s.state = dump_state(net);
  if (net.faults_armed()) s.faults = net.fault_stats().to_json();
  if (net.export_armed()) {
    s.prom = net.export_prometheus();
    s.series = net.window_series_json();
  }
  return s;
}

void expect_identical(const Snapshot& a, const Snapshot& b,
                      const std::string& label) {
  EXPECT_EQ(a.counters, b.counters) << label;
  EXPECT_EQ(a.reports, b.reports) << label;
  EXPECT_EQ(a.metrics, b.metrics) << label;
  EXPECT_EQ(a.state, b.state) << label;
  EXPECT_EQ(a.forensics, b.forensics) << label;
  EXPECT_EQ(a.faults, b.faults) << label;
  EXPECT_EQ(a.prom, b.prom) << label;
  EXPECT_EQ(a.series, b.series) << label;
  EXPECT_EQ(a.live_metrics, b.live_metrics) << label;
  EXPECT_EQ(a.live_series, b.live_series) << label;
}

// Runs `scenario` twice (fresh network each time); the runs must match.
void expect_reproducible(const std::function<Snapshot()>& scenario) {
  const Snapshot first = scenario();
  ASSERT_FALSE(first.counters.empty());
  expect_identical(first, scenario(), "second run vs first");
}

// For a scenario that arms observability only when `obs` is set: runs it
// twice with observability on (the runs must match), then once with it
// off, which must agree on everything observable without the metrics
// layer — counters, reports, final checker state and fault stats.
void expect_reproducible_and_obs_invariant(
    const std::function<Snapshot(bool obs)>& scenario) {
  const Snapshot on = scenario(true);
  ASSERT_FALSE(on.counters.empty());
  ASSERT_FALSE(on.metrics.empty());
  expect_identical(on, scenario(true), "second run vs first");
  const Snapshot off = scenario(false);
  EXPECT_TRUE(off.metrics.empty());
  EXPECT_EQ(on.counters, off.counters) << "obs off vs on";
  EXPECT_EQ(on.reports, off.reports) << "obs off vs on";
  EXPECT_EQ(on.state, off.state) << "obs off vs on";
  EXPECT_EQ(on.faults, off.faults) << "obs off vs on";
}

// Same-timestamp burst: many packets injected at one simulation instant,
// exercising (t, seq) tie-breaking.
void burst(net::Network& net, int src, int dst, double at, int n) {
  const std::uint32_t sip = net.topo().node(src).ip;
  const std::uint32_t dip = net.topo().node(dst).ip;
  net.events().schedule_at(at, [&net, src, sip, dip, n] {
    for (int i = 0; i < n; ++i) {
      net.send_from_host(
          src, p4rt::make_udp(sip, dip,
                              static_cast<std::uint16_t>(7000 + i), 2000,
                              200 + 16 * i));
    }
  });
}

TEST(Determinism, LeafSpineRandomTraffic) {
  expect_reproducible_and_obs_invariant([](bool obs) {
    auto fabric = net::make_leaf_spine(4, 4, 2);
    net::Network net(fabric.topo);
    auto routing = fwd::install_leaf_spine_routing(net, fabric);
    if (obs) net.set_forensics(true);  // implies observability

    const int lb = net.deploy(compile_library_checker("dc_uplink_load_balance"));
    configure_load_balance(net, lb, fabric, 4000);
    const int ud = net.deploy(compile_library_checker("up_down_routing"));
    configure_up_down(net, ud, fabric);

    // Randomized cross-leaf UDP flows (Poisson arrivals, fixed seeds).
    net::UdpFlood f1(net, fabric.hosts[0][0], fabric.hosts[3][1], 0.7, 900);
    f1.set_poisson(11);
    net::UdpFlood f2(net, fabric.hosts[1][1], fabric.hosts[2][0], 0.5, 300);
    f2.set_poisson(23);
    net::CampusReplay replay(net, fabric.hosts[2][1], fabric.hosts[0][1],
                             60000.0, 7);
    f1.start(0.0, 2e-3);
    f2.start(0.0, 2e-3);
    replay.start(0.0, 2e-3);
    burst(net, fabric.hosts[0][1], fabric.hosts[3][0], 1e-3, 24);
    net.events().run();
    return snapshot(net);
  });
}

TEST(Determinism, FatTreeRandomTraffic) {
  expect_reproducible_and_obs_invariant([](bool obs) {
    auto ft = net::make_fat_tree(4);
    net::Network net(ft.topo);
    auto routing = fwd::install_fat_tree_routing(net, ft);
    if (obs) net.set_forensics(true);

    const int ud = net.deploy(compile_library_checker("up_down_routing"));
    configure_up_down(net, ud, ft);

    // Cross-pod and intra-pod mixes from every pod.
    net::CampusReplay replay(net, ft.hosts[0][0][0], ft.hosts[3][1][1],
                             80000.0, 99);
    net::UdpFlood f1(net, ft.hosts[1][0][1], ft.hosts[2][1][0], 0.8, 1200);
    f1.set_poisson(5);
    net::UdpFlood f2(net, ft.hosts[2][0][0], ft.hosts[2][1][1], 0.6, 256);
    f2.set_poisson(17);
    replay.start(0.0, 1.5e-3);
    f1.start(0.0, 1.5e-3);
    f2.start(0.0, 1.5e-3);
    burst(net, ft.hosts[3][0][0], ft.hosts[0][1][0], 8e-4, 32);
    net.events().run();
    return snapshot(net);
  });
}

// Observability OFF throughout: everything observable without the metrics
// layer — counters, reports, and final checker state — must reproduce.
TEST(Determinism, ObsOffRandomTraffic) {
  expect_reproducible([] {
    auto fabric = net::make_leaf_spine(4, 4, 2);
    net::Network net(fabric.topo);
    auto routing = fwd::install_leaf_spine_routing(net, fabric);
    const int vf = net.deploy(compile_library_checker("valley_free"));
    configure_valley_free(net, vf, fabric);
    net.deploy(compile_library_checker("loops"));

    net::UdpFlood f1(net, fabric.hosts[0][0], fabric.hosts[3][1], 0.9, 700);
    f1.set_poisson(41);
    net::UdpFlood f2(net, fabric.hosts[1][0], fabric.hosts[2][1], 0.7, 450);
    f2.set_poisson(57);
    net::UdpFlood f3(net, fabric.hosts[2][0], fabric.hosts[0][1], 0.5, 300);
    f3.set_poisson(73);
    f1.start(0.0, 2e-3);
    f2.start(0.0, 2e-3);
    f3.start(0.0, 2e-3);
    burst(net, fabric.hosts[3][0], fabric.hosts[1][1], 1e-3, 32);
    net.events().run();
    EXPECT_GT(net.counters().delivered, 0u);
    return snapshot(net);
  });
}

// Every flow converges on one leaf: a single hot switch carries most of
// the hops, so per-table last-hit caches see long same-switch runs.
TEST(Determinism, HotSwitchSkewedLoad) {
  expect_reproducible_and_obs_invariant([](bool obs) {
    auto fabric = net::make_leaf_spine(4, 4, 2);
    net::Network net(fabric.topo);
    auto routing = fwd::install_leaf_spine_routing(net, fabric);
    if (obs) net.set_forensics(true);

    const int ud = net.deploy(compile_library_checker("up_down_routing"));
    configure_up_down(net, ud, fabric);
    // All traffic lands on leaf 0's hosts.
    net::UdpFlood f1(net, fabric.hosts[1][0], fabric.hosts[0][0], 1.0, 600);
    f1.set_poisson(7);
    net::UdpFlood f2(net, fabric.hosts[2][1], fabric.hosts[0][1], 0.8, 500);
    f2.set_poisson(19);
    net::UdpFlood f3(net, fabric.hosts[3][0], fabric.hosts[0][0], 0.6, 400);
    f3.set_poisson(31);
    f1.start(0.0, 2e-3);
    f2.start(0.0, 2e-3);
    f3.start(0.0, 2e-3);
    burst(net, fabric.hosts[3][1], fabric.hosts[0][1], 9e-4, 40);
    net.events().run();
    return snapshot(net);
  });
}

// Closed control loop (report callback installs table entries),
// including mid-simulation rule installs.
TEST(Determinism, FirewallControlLoop) {
  expect_reproducible_and_obs_invariant([](bool obs) {
    auto fabric = net::make_leaf_spine(2, 2, 2);
    net::Network net(fabric.topo);
    auto routing = fwd::install_leaf_spine_routing(net, fabric);
    if (obs) net.set_forensics(true);

    const int dep = net.deploy(compile_library_checker("stateful_firewall"));
    apps::FirewallAgent agent(net, dep);
    const auto ip = [&](int h) { return net.topo().node(h).ip; };
    net.dict_insert_all(dep, "allowed",
                        {BitVec(32, ip(fabric.hosts[0][0])),
                         BitVec(32, ip(fabric.hosts[1][0]))},
                        {BitVec::from_bool(true)});
    net.send_from_host(fabric.hosts[0][0],
                       p4rt::make_udp(ip(fabric.hosts[0][0]),
                                      ip(fabric.hosts[1][0]), 1000, 2000,
                                      64));
    net.events().run();
    // Reverse traffic now flows thanks to the agent's installs.
    net.send_from_host(fabric.hosts[1][0],
                       p4rt::make_udp(ip(fabric.hosts[1][0]),
                                      ip(fabric.hosts[0][0]), 2000, 1000,
                                      64));
    net.events().run();
    EXPECT_EQ(agent.rules_installed(), 1u);
    EXPECT_EQ(net.counters().rejected, 0u);
    return snapshot(net);
  });
}

// The full fault plan armed — loss, corruption, duplication, reordering,
// scheduled + random link outages, a mid-run switch restart, and delayed
// rule pushes — must produce bit-identical outcomes (reports, metrics,
// forensics JSON, fault stats): every fault die is rolled in (t, seq)
// event order, from per-site streams.
TEST(Determinism, ChaosFaultPlan) {
  expect_reproducible_and_obs_invariant([](bool obs) {
    auto fabric = net::make_leaf_spine(2, 2, 2);
    net::Network net(fabric.topo);
    fwd::install_leaf_spine_routing(net, fabric);
    if (obs) net.set_forensics(true);
    const int dep = net.deploy(compile_library_checker("stateful_firewall"));

    net::FaultPlan plan;
    plan.loss = 0.03;
    plan.corrupt = 0.1;
    plan.duplicate = 0.04;
    plan.reorder = 0.06;
    plan.reorder_max_s = 40e-6;
    plan.flap_rate_hz = 2000.0;
    plan.flap_down_s = 120e-6;
    plan.horizon_s = 2.5e-3;
    plan.failures.push_back(
        {net.topo().link_index({fabric.leaves[0], fabric.leaf_uplink_port(0)}),
         5e-4, 9e-4});
    plan.restarts.push_back({fabric.leaves[1], 1.2e-3});
    plan.restart_warmup_s = 300e-6;
    plan.rule_push_delay_s = 70e-6;
    plan.rule_push_jitter_s = 50e-6;
    net.arm_faults(plan, 1234);

    const auto ip = [&](int h) { return net.topo().node(h).ip; };
    const int client = fabric.hosts[0][0];
    const int server = fabric.hosts[1][0];
    const int intruder = fabric.hosts[0][1];
    net.dict_insert_all_delayed(dep, "allowed",
                                {BitVec(32, ip(client)),
                                 BitVec(32, ip(server))},
                                {BitVec::from_bool(true)});
    net.dict_insert_all_delayed(dep, "allowed",
                                {BitVec(32, ip(server)),
                                 BitVec(32, ip(client))},
                                {BitVec::from_bool(true)});
    for (int i = 0; i < 160; ++i) {
      const double t = 12e-6 * (i + 1);
      const int src = i % 4 == 3 ? intruder : client;
      const std::uint32_t sip = ip(src);
      const std::uint32_t dip = ip(server);
      const auto sport = static_cast<std::uint16_t>(6000 + i % 16);
      net.events().schedule_at(t, [&net, src, sip, dip, sport] {
        net.send_from_host(src, p4rt::make_udp(sip, dip, sport, 80, 64));
      });
    }
    net.events().run();
    return snapshot(net);
  });
}

// Streaming export armed: windows tick at virtual-time boundaries between
// events, so the Prometheus exposition AND the windowed series (deltas,
// rates, latency percentiles per window) must reproduce — not just the
// final totals.
TEST(Determinism, StreamingExportReproducible) {
  expect_reproducible([] {
    auto fabric = net::make_leaf_spine(4, 4, 2);
    net::Network net(fabric.topo);
    auto routing = fwd::install_leaf_spine_routing(net, fabric);
    net.set_forensics(true);

    const int lb = net.deploy(compile_library_checker("dc_uplink_load_balance"));
    configure_load_balance(net, lb, fabric, 4000);
    const int ud = net.deploy(compile_library_checker("up_down_routing"));
    configure_up_down(net, ud, fabric);
    // 40 windows over the 2 ms run; implies observability.
    net.set_export_interval(5e-5);
    EXPECT_TRUE(net.export_armed());

    net::UdpFlood f1(net, fabric.hosts[0][0], fabric.hosts[3][1], 0.7, 900);
    f1.set_poisson(11);
    net::UdpFlood f2(net, fabric.hosts[1][1], fabric.hosts[2][0], 0.5, 300);
    f2.set_poisson(23);
    f1.start(0.0, 2e-3);
    f2.start(0.0, 2e-3);
    burst(net, fabric.hosts[0][1], fabric.hosts[3][0], 1e-3, 24);
    net.events().run();

    EXPECT_GT(net.export_scheduler_ptr()->captured(), 10u);
    return snapshot(net);
  });
}

// Aether session churn: the generator attaches/detaches subscribers and
// streams GTP-U uplinks from tick(), mutating UPF and checker tables
// mid-run; every observation — including the final table state after
// incremental removals — must reproduce.
TEST(Determinism, AetherSessionChurn) {
  expect_reproducible_and_obs_invariant([](bool obs) {
    auto fabric = net::make_leaf_spine(2, 2, 2);
    net::Network net(fabric.topo);
    auto routing = fwd::install_leaf_spine_routing(net, fabric);
    auto upf = std::make_shared<fwd::UpfProgram>(routing);
    net.set_program(fabric.leaves[0], upf);
    const int dep =
        net.deploy(compile_library_checker("application_filtering"));
    if (obs) net.set_observability(true);

    aether::AetherController ctl(net, upf, dep);
    ctl.define_slice(aether::example_camera_slice(1));

    aether::SessionChurnGenerator::Config gc;
    gc.sessions = 200;
    gc.churn_per_s = 20000.0;
    gc.packets_per_s = 200000.0;
    gc.enb_host = fabric.hosts[0][0];
    gc.enb_ip = net.topo().node(fabric.hosts[0][0]).ip;
    gc.n3_ip = 0x0a0001fe;
    gc.app_ip = net.topo().node(fabric.hosts[1][0]).ip;
    gc.seed = 99;
    aether::SessionChurnGenerator gen(net, ctl, gc);
    gen.set_latency_sampling(false);
    gen.prefill();
    gen.start(0.0, 2e-3);
    net.events().run();
    return snapshot(net);
  });
}

// Live observability plane: every export tick publishes an immutable
// scrape snapshot, so the /metrics and /series bodies at EVERY tick — not
// just end of run — must reproduce. This is the determinism contract a
// scraper observes through hydrad.
TEST(Determinism, LiveScrapeBodiesReproducible) {
  expect_reproducible([] {
    auto fabric = net::make_leaf_spine(2, 2, 2);
    net::Network net(fabric.topo);
    auto routing = fwd::install_leaf_spine_routing(net, fabric);
    auto upf = std::make_shared<fwd::UpfProgram>(routing);
    net.set_program(fabric.leaves[0], upf);
    const int dep =
        net.deploy(compile_library_checker("application_filtering"));
    net.set_observability(true);
    net.set_export_interval(1e-4);
    net::Network::LiveObsOptions opts;
    opts.topk_k = 4;
    opts.session_net = 0x50000000u;   // SessionChurnGenerator UE block
    opts.session_mask = 0xFC000000u;
    net.arm_live_obs(opts);

    obs::SnapshotPublisher pub;
    std::string live_metrics;
    std::string live_series;
    pub.set_on_publish([&](const obs::LiveSnapshot& s) {
      live_metrics += "tick " + std::to_string(s.tick_index) + "\n";
      live_metrics += s.metrics_text;
      live_series += s.series_json;
      live_series += '\n';
    });
    net.set_live_publisher(&pub);

    aether::AetherController ctl(net, upf, dep);
    ctl.define_slice(aether::example_camera_slice(1));
    aether::SessionChurnGenerator::Config gc;
    gc.sessions = 100;
    gc.churn_per_s = 20000.0;
    gc.packets_per_s = 200000.0;
    gc.enb_host = fabric.hosts[0][0];
    gc.enb_ip = net.topo().node(fabric.hosts[0][0]).ip;
    gc.n3_ip = 0x0a0001fe;
    gc.app_ip = net.topo().node(fabric.hosts[1][0]).ip;
    gc.seed = 7;
    aether::SessionChurnGenerator gen(net, ctl, gc);
    gen.set_latency_sampling(false);
    gen.prefill();
    gen.start(0.0, 2e-3);
    net.events().run();

    EXPECT_GT(net.export_scheduler_ptr()->captured(), 5u);
    Snapshot s = snapshot(net);
    s.live_metrics = std::move(live_metrics);
    s.live_series = std::move(live_series);
    return s;
  });
}

// Rolling deploy → undeploy → redeploy under live traffic: the staged
// per-switch swaps ride the control channel ((t, seq)-ordered like switch
// restarts), and frames stamped by the retired generation reject
// fail-closed mid-flight. The whole lifecycle — stale-reject counters,
// forensics, Prometheus bodies, and the v2 full-state snapshot — must
// reproduce.
TEST(Determinism, RollingDeployUndeployRedeployUnderLiveTraffic) {
  expect_reproducible([] {
    auto fabric = net::make_leaf_spine(2, 2, 2);
    net::Network net(fabric.topo);
    auto routing = fwd::install_leaf_spine_routing(net, fabric);
    net.set_observability(true);
    net.set_forensics(true);
    net.set_export_interval(5e-5);

    const int ud = net.deploy(compile_library_checker("up_down_routing"));
    configure_up_down(net, ud, fabric);

    net::UdpFlood f1(net, fabric.hosts[0][0], fabric.hosts[1][1], 0.6, 700);
    f1.set_poisson(29);
    net::UdpFlood f2(net, fabric.hosts[1][0], fabric.hosts[0][1], 0.4, 300);
    f2.set_poisson(37);
    f1.start(0.0, 2e-3);
    f2.start(0.0, 2e-3);
    // Bursts 3 µs before each lifecycle pause: stamped at the ingress leaf
    // before the swap sweep lands, mid-path when it does.
    burst(net, fabric.hosts[0][1], fabric.hosts[1][0], 0.497e-3, 24);
    burst(net, fabric.hosts[1][1], fabric.hosts[0][0], 0.997e-3, 24);
    burst(net, fabric.hosts[0][0], fabric.hosts[1][0], 1.497e-3, 24);

    net.events().run_until(0.5e-3);
    const int lp = net.deploy_rolling(compile_library_checker("loops"));
    net.events().run_until(1.0e-3);
    net.undeploy_rolling(lp);
    net.events().run_until(1.5e-3);
    EXPECT_FALSE(net.deployment_live(lp));
    EXPECT_EQ(net.deploy_rolling(compile_library_checker("loops")), lp);
    net.events().run();
    EXPECT_FALSE(net.swap_in_progress());
    EXPECT_TRUE(net.deployment_live(lp));

    Snapshot s = snapshot(net);
    s.state += net.full_snapshot();
    return s;
  });
}

}  // namespace
}  // namespace hydra
