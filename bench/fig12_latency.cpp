// Regenerates Figure 12: the performance overhead of Hydra.
//
//   12a: RTT of a fast ping over time, baseline vs. ALL checkers linked;
//   12b: the RTT CDF of both runs, plus the paper's t-test.
//
// Scaling note (documented in EXPERIMENTS.md): the paper pings every 0.2 s
// for 30 minutes of wall-clock on hardware; the simulation compresses this
// to 1 s of simulated time with a 2 ms ping interval (500 samples) under
// the same kind of bidirectional UDP background load over ECMP.
//
//   $ ./fig12_latency [--json BENCH_fig12.json] [--help]
//
// --help prints this usage and exits 0 without running; any other
// argument exits 2 with the usage.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "cli_parse.hpp"
#include "forwarding/ipv4_ecmp.hpp"
#include "hydra/hydra.hpp"
#include "net/network.hpp"
#include "net/traffic.hpp"
#include "util/stats.hpp"

using namespace hydra;

namespace {

constexpr double kDuration = 1.0;        // simulated seconds
constexpr double kPingInterval = 2e-3;   // 2 ms "fast ping"
// Two Poisson flows converge on the ping destination's 10 Gb/s access
// link at ~85% utilization, so pings experience genuine queueing — the
// RTT spread of Figure 12 rather than a constant.
constexpr double kFlowGbps = 4.25;
constexpr int kFlowPktBytes = 8000;

struct RunResult {
  std::vector<net::RttSample> samples;
  std::uint64_t background_pkts = 0;
};

// Deploys and configures all eleven Table-1 checkers so that well-behaved
// traffic passes them all.
void deploy_all_checkers(net::Network& net, const net::LeafSpine& fabric) {
  auto ip_of = [&](int h) { return net.topo().node(h).ip; };

  const int mt = net.deploy(compile_library_checker("multi_tenancy"));
  std::map<std::pair<int, int>, std::uint8_t> tenants;
  for (std::size_t leaf = 0; leaf < fabric.leaves.size(); ++leaf) {
    for (int i = 0; i < fabric.hosts_per_leaf; ++i) {
      tenants[{fabric.leaves[leaf], fabric.leaf_host_port(i)}] = 1;
    }
  }
  configure_multi_tenancy(net, mt, tenants);

  const int lb = net.deploy(compile_library_checker("dc_uplink_load_balance"));
  configure_load_balance(net, lb, fabric, /*threshold_bytes=*/0xffffffffu);

  const int fw = net.deploy(compile_library_checker("stateful_firewall"));
  for (const auto& hs1 : fabric.hosts) {
    for (int a : hs1) {
      for (const auto& hs2 : fabric.hosts) {
        for (int b : hs2) {
          if (a == b) continue;
          net.dict_insert_all(fw, "allowed",
                              {BitVec(32, ip_of(a)), BitVec(32, ip_of(b))},
                              {BitVec::from_bool(true)});
        }
      }
    }
  }

  net.deploy(compile_library_checker("application_filtering"));

  net.deploy(compile_library_checker("vlan_isolation"));

  const int ep = net.deploy(compile_library_checker("egress_port_validity"));
  configure_egress_port_validity(net, ep);

  const int rv = net.deploy(compile_library_checker("routing_validity"));
  configure_routing_validity(net, rv, fabric);

  net.deploy(compile_library_checker("loops"));

  const int wp = net.deploy(compile_library_checker("waypointing"));
  // All cross-leaf traffic in the 2x2 testbed transits both leaves; use
  // leaf1 as the choke point.
  configure_waypoint(net, wp, fabric.leaves[0]);

  const int sc = net.deploy(compile_library_checker("service_chains"));
  configure_service_chain(net, sc, {});  // empty chain: vacuously satisfied

  const int pv = net.deploy(
      compile_library_checker("source_routing_path_validation"));
  configure_path_validation(net, pv, fabric);
}

RunResult run(bool with_checkers) {
  auto fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  fwd::install_leaf_spine_routing(net, fabric);
  net.set_baseline_profile(compiler::fabric_upf_profile());
  if (with_checkers) deploy_all_checkers(net, fabric);

  // Bidirectional UDP background over ECMP, as in the paper. Both flows
  // target h4 so its access link queues; reverse flows load the opposite
  // direction.
  std::vector<std::unique_ptr<net::UdpFlood>> floods;
  const int h4 = fabric.hosts[1][1];
  const int sources[2] = {fabric.hosts[0][0], fabric.hosts[0][1]};
  std::uint16_t port = 7000;
  std::uint64_t seed = 11;
  for (const int src : sources) {
    floods.push_back(std::make_unique<net::UdpFlood>(
        net, src, h4, kFlowGbps, kFlowPktBytes, ++port, 5201));
    floods.back()->set_poisson(seed++);
    floods.back()->start(0.0, kDuration);
    floods.push_back(std::make_unique<net::UdpFlood>(
        net, h4, src, kFlowGbps, kFlowPktBytes, ++port, 5201));
    floods.back()->set_poisson(seed++);
    floods.back()->start(0.0, kDuration);
  }

  net::PingProbe ping(net, fabric.hosts[0][0], h4, kPingInterval);
  ping.start(0.001, kDuration - 0.002);
  net.events().run();

  RunResult r;
  r.samples = ping.samples();
  for (const auto& f : floods) r.background_pkts += f->packets_sent();
  return r;
}

void print_time_series(const char* label, const RunResult& r, int bins) {
  std::printf("# Fig 12a series: %s (bin-averaged RTT, ms)\n", label);
  std::printf("%-10s %-10s\n", "time_s", "rtt_ms");
  const double bin_w = kDuration / bins;
  std::vector<double> sum(static_cast<std::size_t>(bins), 0.0);
  std::vector<int> cnt(static_cast<std::size_t>(bins), 0);
  for (const auto& s : r.samples) {
    auto b = static_cast<std::size_t>(s.sent_at / bin_w);
    if (b >= sum.size()) b = sum.size() - 1;
    sum[b] += s.rtt;
    ++cnt[b];
  }
  for (int b = 0; b < bins; ++b) {
    if (cnt[static_cast<std::size_t>(b)] == 0) continue;
    std::printf("%-10.3f %-10.4f\n", (b + 0.5) * bin_w,
                sum[static_cast<std::size_t>(b)] /
                    cnt[static_cast<std::size_t>(b)] * 1e3);
  }
  std::printf("\n");
}

void print_cdf(const char* label, const std::vector<double>& rtts_ms) {
  std::printf("# Fig 12b CDF: %s\n", label);
  std::printf("%-12s %-8s\n", "rtt_ms", "F");
  for (const auto& [x, fx] : stats::empirical_cdf(rtts_ms, 20)) {
    std::printf("%-12.4f %-8.3f\n", x, fx);
  }
  std::printf("\n");
}

void write_summary(std::string& out, const char* name,
                   const stats::Summary& s, std::uint64_t background_pkts,
                   const char* trailer) {
  tools::appendf(out,
                 "    \"%s\": {\"samples\": %zu, \"mean_ms\": %.4f, "
                 "\"stddev_ms\": %.4f, \"p50_ms\": %.4f, \"p90_ms\": %.4f, "
                 "\"p99_ms\": %.4f, \"background_pkts\": %llu}%s\n",
                 name, s.count, s.mean, s.stddev, s.p50, s.p90, s.p99,
                 static_cast<unsigned long long>(background_pkts), trailer);
}

bool write_json(const std::string& path, const stats::Summary& sb,
                const stats::Summary& sf, std::uint64_t base_pkts,
                std::uint64_t full_pkts, const stats::TTest& t) {
  std::string out = "{\n  \"bench\": \"fig12_latency\",\n  \"rtt\": {\n";
  write_summary(out, "baseline", sb, base_pkts, ",");
  write_summary(out, "all_checkers", sf, full_pkts, "");
  tools::appendf(out,
                 "  },\n  \"t_test\": {\"t\": %.4f, \"df\": %.2f, "
                 "\"p_value\": %.4f, \"significant\": %s}\n}\n",
                 t.t, t.df, t.p_value, t.p_value <= 0.05 ? "true" : "false");
  if (!tools::write_text_file(path, out)) return false;
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  tools::Cli cli("[--json PATH] [--help]");
  cli.text("--json", &json_path);
  if (const auto rc = cli.parse(argc, argv)) return *rc;
  std::printf("Figure 12: performance overhead of Hydra (simulated "
              "testbed; %g s, ping every %g ms, %g Gb/s x4 background)\n\n",
              kDuration, kPingInterval * 1e3, kFlowGbps);

  const RunResult base = run(false);
  std::fprintf(stderr, "[baseline] ping samples: %zu\n", base.samples.size());
  const RunResult full = run(true);
  std::fprintf(stderr, "[checkers] ping samples: %zu\n", full.samples.size());

  print_time_series("Baseline", base, 20);
  print_time_series("All Checkers", full, 20);

  auto to_ms = [](const std::vector<net::RttSample>& v) {
    std::vector<double> out;
    for (const auto& s : v) out.push_back(s.rtt * 1e3);
    return out;
  };
  const auto base_ms = to_ms(base.samples);
  const auto full_ms = to_ms(full.samples);
  print_cdf("Baseline", base_ms);
  print_cdf("All Checkers", full_ms);

  const auto sb = stats::summarize(base_ms);
  const auto sf = stats::summarize(full_ms);
  std::printf("summary (ms):      %-10s %-10s\n", "Baseline", "AllCheckers");
  std::printf("  samples          %-10zu %-10zu\n", sb.count, sf.count);
  std::printf("  mean             %-10.4f %-10.4f\n", sb.mean, sf.mean);
  std::printf("  p50              %-10.4f %-10.4f\n", sb.p50, sf.p50);
  std::printf("  p99              %-10.4f %-10.4f\n", sb.p99, sf.p99);
  std::printf("  background pkts  %-10llu %-10llu\n",
              static_cast<unsigned long long>(base.background_pkts),
              static_cast<unsigned long long>(full.background_pkts));

  const auto t = stats::welch_t_test(base_ms, full_ms);
  std::printf("\nt-test: t=%.3f df=%.1f p=%.3f -> %s\n", t.t, t.df,
              t.p_value,
              t.p_value > 0.05
                  ? "no statistically significant latency difference "
                    "(matches the paper)"
                  : "SIGNIFICANT DIFFERENCE (paper reports none)");
  if (!json_path.empty() &&
      !write_json(json_path, sb, sf, base.background_pkts,
                  full.background_pkts, t)) {
    return 1;
  }
  return 0;
}
