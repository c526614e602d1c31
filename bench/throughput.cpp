// Regenerates §6.2's throughput comparison: offered vs. achieved rate with
// and without Hydra, plus the campus-trace replay at 350 Kpps (Figure 13's
// workload) through leaf1.
//
//   $ ./throughput [--json BENCH_throughput.json] [--obs] [--help]
//
// --help prints this usage and exits 0 without running; any other
// argument exits 2 with the usage.
//
// --obs enables the observability layer (metrics registry wired through
// every table/interpreter/switch) for all runs; the output schema is
// unchanged, so comparing a --obs run against a plain run measures the
// instrumentation overhead.
//
// The fabric section reports the simulator's own wall-clock throughput
// (pipeline hops per wall-second) on a 16-switch fabric, min/median/max over
// 5 reps. The fixed-cost section deploys K = 0, 1, 8 and 16 copies of a
// one-instruction checker on the same fabric and sends 200k packets between
// random host pairs, 5 reps per K: ns per packet (min/median/max), and ns
// per (hop, deployment) = (median at K - median at 0) / (K x hops/packet),
// the fixed cost of a deployment on one hop beyond its one instruction.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cli_parse.hpp"
#include "forwarding/anonymizer.hpp"
#include "forwarding/ipv4_ecmp.hpp"
#include "hydra/hydra.hpp"
#include "net/network.hpp"
#include "net/traffic.hpp"
#include "util/rng.hpp"

using namespace hydra;

namespace {

struct Result {
  double offered_gbps = 0;
  double delivered_gbps = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  double pps = 0;
};

void deploy_everything(net::Network& net, const net::LeafSpine& fabric) {
  const int vf = net.deploy(compile_library_checker("valley_free"));
  configure_valley_free(net, vf, fabric);
  net.deploy(compile_library_checker("loops"));
  const int rv = net.deploy(compile_library_checker("routing_validity"));
  configure_routing_validity(net, rv, fabric);
  const int ep = net.deploy(compile_library_checker("egress_port_validity"));
  configure_egress_port_validity(net, ep);
  net.deploy(compile_library_checker("application_filtering"));
}

bool g_obs = false;  // --obs: run with the observability layer enabled

constexpr int kReps = 5;

// Min, median and max of one measure over the reps.
struct Stat {
  double min = 0, median = 0, max = 0;
  static Stat of(std::array<double, kReps> v) {
    std::sort(v.begin(), v.end());
    return {v.front(), v[kReps / 2], v.back()};
  }
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

Result iperf_run(bool with_checkers, double duration) {
  auto fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  fwd::install_leaf_spine_routing(net, fabric);
  net.set_baseline_profile(compiler::fabric_upf_profile());
  if (with_checkers) deploy_everything(net, fabric);
  if (g_obs) net.set_observability(true);

  // Two 10 Gb/s flows (one per host pair): 20 Gb/s offered in aggregate,
  // the rate the paper's microbenchmark reaches.
  net::UdpFlood f1(net, fabric.hosts[0][0], fabric.hosts[1][0], 10.0, 8000,
                   7001);
  net::UdpFlood f2(net, fabric.hosts[0][1], fabric.hosts[1][1], 10.0, 8000,
                   7002);
  f1.start(0.0, duration);
  f2.start(0.0, duration);
  net.events().run();

  Result r;
  r.sent = f1.packets_sent() + f2.packets_sent();
  r.delivered = net.counters().delivered;
  r.pps = static_cast<double>(r.sent) / duration;
  r.offered_gbps = static_cast<double>(r.sent) * 8000 * 8 / duration / 1e9;
  r.delivered_gbps =
      static_cast<double>(r.delivered) * 8000 * 8 / duration / 1e9;
  return r;
}

Result campus_run(bool with_checkers, double duration) {
  auto fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  auto routing = fwd::install_leaf_spine_routing(net, fabric);
  if (with_checkers) deploy_everything(net, fabric);
  if (g_obs) net.set_observability(true);

  // Figure 13 pipeline: the mirrored traffic passes a line-rate
  // prefix-preserving anonymizer at the broker switch (leaf1) before
  // being delivered towards the testbed.
  auto anonymizer =
      std::make_shared<fwd::AnonymizerProgram>(routing, /*salt=*/2023);
  net.set_program(fabric.leaves[0], anonymizer);
  const std::uint32_t dst = net.topo().node(fabric.hosts[1][0]).ip;
  const std::uint32_t anon_dst = fwd::anonymize_ipv4(dst, 2023);
  routing->add_route(fabric.leaves[0], anon_dst, 32,
                     {fabric.leaf_uplink_port(0), fabric.leaf_uplink_port(1)});
  for (std::size_t j = 0; j < fabric.spines.size(); ++j) {
    routing->add_route(fabric.spines[j], anon_dst, 32,
                       {fabric.spine_down_port(1)});
  }
  routing->add_route(fabric.leaves[1], anon_dst, 32,
                     {fabric.leaf_host_port(0)});

  net::CampusReplay replay(net, fabric.hosts[0][0], fabric.hosts[1][0],
                           350000.0);
  replay.start(0.0, duration);
  net.events().run();

  Result r;
  r.sent = replay.packets_sent();
  r.delivered = net.counters().delivered;
  r.pps = static_cast<double>(r.sent) / duration;
  r.offered_gbps =
      static_cast<double>(replay.bytes_sent()) * 8 / duration / 1e9;
  r.delivered_gbps = r.offered_gbps *
                     static_cast<double>(r.delivered) /
                     static_cast<double>(r.sent);
  return r;
}

// Wall-clock view of the simulator processing a 16-switch fabric under
// load: how fast it chews through packet-hops.
struct FabricResult {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  Stat wall_s;
  Stat hops_per_wall_s;
};

// One rep; returns the wall seconds of the run and fills sent/delivered.
double fabric_run(double duration, FabricResult& r) {
  auto fabric = net::make_leaf_spine(8, 8, 2);  // 16 switches, 16 hosts
  net::Network net(fabric.topo);
  fwd::install_leaf_spine_routing(net, fabric);
  if (g_obs) net.set_observability(true);
  const int vf = net.deploy(compile_library_checker("valley_free"));
  configure_valley_free(net, vf, fabric);
  net.deploy(compile_library_checker("loops"));

  // One cross-leaf flow per host, shifted pairings so every leaf and spine
  // carries traffic concurrently.
  std::vector<std::unique_ptr<net::UdpFlood>> flows;
  const int leaves = static_cast<int>(fabric.leaves.size());
  for (int i = 0; i < leaves; ++i) {
    for (int h = 0; h < fabric.hosts_per_leaf; ++h) {
      const int src = fabric.hosts[static_cast<std::size_t>(i)]
                                  [static_cast<std::size_t>(h)];
      const int dst =
          fabric.hosts[static_cast<std::size_t>((i + 1 + h) % leaves)]
                      [static_cast<std::size_t>(h)];
      flows.push_back(std::make_unique<net::UdpFlood>(
          net, src, dst, 2.0, 1000,
          static_cast<std::uint16_t>(6000 + i * 8 + h)));
      flows.back()->set_poisson(
          static_cast<std::uint64_t>(100 + i * 8 + h));
      flows.back()->start(0.0, duration);
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  net.events().run();
  const double wall_s = seconds_since(t0);
  r.sent = 0;
  for (const auto& f : flows) r.sent += f->packets_sent();
  r.delivered = net.counters().delivered;
  return wall_s;
}

FabricResult fabric_reps(double duration) {
  FabricResult r;
  std::array<double, kReps> wall{};
  std::array<double, kReps> rate{};
  for (int i = 0; i < kReps; ++i) {
    wall[i] = fabric_run(duration, r);
    // Each delivered packet crosses leaf -> spine -> leaf (3 pipeline hops).
    rate[i] = wall[i] > 0 ? 3.0 * static_cast<double>(r.delivered) / wall[i]
                          : 0;
  }
  r.wall_s = Stat::of(wall);
  r.hops_per_wall_s = Stat::of(rate);
  return r;
}

// ---- fixed cost per (hop, deployment) -------------------------------------

constexpr std::array<int, 4> kCopies = {0, 1, 8, 16};
constexpr int kFixedPackets = 200000;

struct FixedCostRow {
  int copies = 0;
  double hops_per_packet = 0;
  Stat ns_per_packet;
};

// One rep at `copies` deployments: wall ns per packet over kFixedPackets
// sent one at a time between random host pairs (the same pairs for every
// K); sets the switch hops per packet the hosts saw.
double fixed_cost_run(int copies, double& hops_per_packet) {
  auto fabric = net::make_leaf_spine(8, 8, 2);
  net::Network net(fabric.topo);
  fwd::install_leaf_spine_routing(net, fabric);
  if (g_obs) net.set_observability(true);
  const auto one = compile_shared("tele bit<8> n = 0;\n{ } { n += 1; } { }",
                                  "one_instruction");
  for (int k = 0; k < copies; ++k) net.deploy(one);
  std::vector<int> hosts;
  std::uint64_t hops = 0;
  for (const auto& leaf : fabric.hosts) {
    for (const int h : leaf) {
      hosts.push_back(h);
      net.host(h).add_sink(
          [&hops](const p4rt::Packet& p, double) { hops += p.hops; });
    }
  }
  Rng rng(2026);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kFixedPackets; ++i) {
    const std::size_t src = rng.below(hosts.size());
    std::size_t dst = rng.below(hosts.size() - 1);
    if (dst >= src) ++dst;
    const net::PacketHandle h = net.alloc_packet();
    p4rt::make_udp_into(net.packet(h), net.topo().node(hosts[src]).ip,
                        net.topo().node(hosts[dst]).ip,
                        static_cast<std::uint16_t>(1024 + rng.below(60000)),
                        9000, 64);
    net.send_pooled(hosts[src], h);
    net.events().run();
  }
  const double wall_s = seconds_since(t0);
  hops_per_packet = static_cast<double>(hops) / kFixedPackets;
  return wall_s * 1e9 / kFixedPackets;
}

// The reps interleave the K values, so drift on the box spreads over all
// rows alike.
std::vector<FixedCostRow> fixed_cost_rows() {
  std::vector<FixedCostRow> rows(kCopies.size());
  std::array<std::array<double, kReps>, kCopies.size()> ns{};
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t k = 0; k < kCopies.size(); ++k) {
      rows[k].copies = kCopies[k];
      ns[k][rep] = fixed_cost_run(kCopies[k], rows[k].hops_per_packet);
    }
  }
  for (std::size_t k = 0; k < kCopies.size(); ++k) {
    rows[k].ns_per_packet = Stat::of(ns[k]);
  }
  return rows;
}

// (row - K=0 row) / (K x hops per packet), on the medians.
double ns_per_hop_deployment(const FixedCostRow& row,
                             const FixedCostRow& bare) {
  return (row.ns_per_packet.median - bare.ns_per_packet.median) /
         (row.copies * row.hops_per_packet);
}

void write_result(std::string& out, const char* name, const Result& r,
                  const char* trailer) {
  tools::appendf(
      out,
      "    \"%s\": {\"offered_gbps\": %.4f, \"delivered_gbps\": "
      "%.4f, \"sent\": %llu, \"delivered\": %llu, \"pps\": %.1f}%s\n",
      name, r.offered_gbps, r.delivered_gbps,
      static_cast<unsigned long long>(r.sent),
      static_cast<unsigned long long>(r.delivered), r.pps, trailer);
}

// "name": median, "name_min": min, "name_max": max, at `digits` decimals.
void put_stat(std::string& out, const char* name, const Stat& s, int digits) {
  tools::appendf(out, "\"%s\": %.*f, \"%s_min\": %.*f, \"%s_max\": %.*f",
                 name, digits, s.median, name, digits, s.min, name, digits,
                 s.max);
}

bool write_json(const std::string& path, const Result& iperf_base,
                const Result& iperf_hydra, const Result& campus_base,
                const Result& campus_hydra, double delta_pct,
                const FabricResult& fabric,
                const std::vector<FixedCostRow>& fixed) {
  std::string out;
  tools::appendf(out,
                 "{\n  \"bench\": \"throughput\",\n"
                 "  \"hw_threads\": %u,\n"
                 "  \"iperf\": {\n",
                 std::thread::hardware_concurrency());
  write_result(out, "baseline", iperf_base, ",");
  write_result(out, "all_checkers", iperf_hydra, ",");
  tools::appendf(out, "    \"delta_pct\": %.4f\n  },\n  \"campus\": {\n",
                 delta_pct);
  write_result(out, "baseline", campus_base, ",");
  write_result(out, "all_checkers", campus_hydra, "");
  tools::appendf(out,
                 "  },\n  \"fabric_16sw\": {\"sent\": %llu, \"delivered\": "
                 "%llu, \"reps\": %d, ",
                 static_cast<unsigned long long>(fabric.sent),
                 static_cast<unsigned long long>(fabric.delivered), kReps);
  put_stat(out, "wall_s", fabric.wall_s, 4);
  out += ", ";
  put_stat(out, "hops_per_wall_s", fabric.hops_per_wall_s, 1);
  tools::appendf(out,
                 "},\n  \"fixed_cost\": {\"packets\": %d, \"reps\": %d, "
                 "\"rows\": [\n",
                 kFixedPackets, kReps);
  for (std::size_t k = 0; k < fixed.size(); ++k) {
    const FixedCostRow& row = fixed[k];
    tools::appendf(out, "    {\"copies\": %d, \"hops_per_packet\": %.4f, ",
                   row.copies, row.hops_per_packet);
    put_stat(out, "ns_per_packet", row.ns_per_packet, 1);
    if (row.copies > 0) {
      tools::appendf(out, ", \"ns_per_hop_deployment\": %.2f",
                     ns_per_hop_deployment(row, fixed[0]));
    }
    out += k + 1 < fixed.size() ? "},\n" : "}\n";
  }
  out += "  ]}\n}\n";
  if (!tools::write_text_file(path, out)) return false;
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_throughput.json";
  tools::Cli cli("[--json PATH] [--obs] [--help]");
  cli.text("--json", &json_path).flag("--obs", &g_obs);
  if (const auto rc = cli.parse(argc, argv)) return *rc;
  std::printf("Throughput comparison (paper §6.2: 'almost identical with "
              "around 20 Gb/s')%s\n\n",
              g_obs ? " [observability ON]" : "");

  const double dur = 0.05;
  const Result b = iperf_run(false, dur);
  const Result h = iperf_run(true, dur);
  std::printf("iperf3-style UDP load:\n");
  std::printf("  %-14s %10s %12s %12s\n", "config", "offered", "delivered",
              "loss");
  auto loss = [](const Result& r) {
    return 100.0 * (1.0 - static_cast<double>(r.delivered) /
                              static_cast<double>(r.sent));
  };
  std::printf("  %-14s %8.2f G %10.2f G %10.3f%%\n", "baseline",
              b.offered_gbps, b.delivered_gbps, loss(b));
  std::printf("  %-14s %8.2f G %10.2f G %10.3f%%\n", "all-checkers",
              h.offered_gbps, h.delivered_gbps, loss(h));
  const double delta =
      100.0 * (b.delivered_gbps - h.delivered_gbps) / b.delivered_gbps;
  std::printf("  delta: %.3f%% -> %s\n\n", delta,
              std::abs(delta) < 1.0 ? "throughput unchanged by Hydra "
                                      "(matches the paper)"
                                    : "NOTICEABLE drop (paper reports none)");

  const Result cb = campus_run(false, 0.05);
  const Result ch = campus_run(true, 0.05);
  std::printf("campus trace replay towards leaf1 (paper: ~350 Kpps):\n");
  std::printf("  %-14s %10s %12s %12s\n", "config", "pps", "offered",
              "delivered");
  std::printf("  %-14s %10.0f %10.2f G %10.2f G\n", "baseline", cb.pps,
              cb.offered_gbps, cb.delivered_gbps);
  std::printf("  %-14s %10.0f %10.2f G %10.2f G\n", "all-checkers", ch.pps,
              ch.offered_gbps, ch.delivered_gbps);

  // 16-switch fabric under all-pairs-style load: simulator wall-clock
  // throughput.
  const FabricResult fs = fabric_reps(0.02);
  std::printf("\n16-switch fabric wall-clock (%u hw threads, median [min, max] "
              "of %d reps):\n",
              std::thread::hardware_concurrency(), kReps);
  std::printf("  %12s %30s\n", "wall_s", "hops/wall-s");
  std::printf("  %12.3f %10.0f [%.0f, %.0f]\n", fs.wall_s.median,
              fs.hops_per_wall_s.median, fs.hops_per_wall_s.min,
              fs.hops_per_wall_s.max);

  const std::vector<FixedCostRow> fixed = fixed_cost_rows();
  std::printf("\nfixed cost per (hop, deployment): K copies of a "
              "one-instruction checker,\nleaf_spine(8, 8, 2), %d packets, "
              "median [min, max] of %d reps:\n",
              kFixedPackets, kReps);
  std::printf("  %4s %9s %28s %22s\n", "K", "hops/pkt", "ns/pkt",
              "ns/(hop, deployment)");
  for (const FixedCostRow& row : fixed) {
    std::printf("  %4d %9.3f %10.1f [%.1f, %.1f]", row.copies,
                row.hops_per_packet, row.ns_per_packet.median,
                row.ns_per_packet.min, row.ns_per_packet.max);
    if (row.copies > 0) {
      std::printf(" %12.2f", ns_per_hop_deployment(row, fixed[0]));
    }
    std::printf("\n");
  }

  return write_json(json_path, b, h, cb, ch, delta, fs, fixed) ? 0 : 1;
}
