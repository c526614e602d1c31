// Chaos soak: sweeps packet-loss and link-flap rates over the 2x2
// leaf-spine with the stateful firewall deployed and the full fault plan
// armed (corruption, duplication, reordering, a mid-run switch restart,
// delayed rule pushes). Two properties are asserted per configuration:
//
//   1. robustness — with faults armed, NO run may throw or abort; damaged
//      telemetry must surface as counted fail-closed rejects (the seed
//      codec threw std::invalid_argument out of the event loop instead);
//   2. accounting — every injected packet is accounted for by exactly one
//      outcome counter (delivered / rejected / fwd / queue / fault drop,
//      or still carried by a duplicate), so fault handling never leaks or
//      double-counts packets.
//
//   $ ./chaos_soak [--json BENCH_chaos.json] [--seed N] [--help]
//
// --help prints this usage and exits 0 without running; any other
// argument exits 2 with the usage. The JSON carries simulation-domain
// numbers only (no wall clock), so a fixed seed gives byte-identical
// output across machines.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "cli_parse.hpp"
#include "forwarding/ipv4_ecmp.hpp"
#include "hydra/hydra.hpp"
#include "net/network.hpp"

using namespace hydra;

namespace {

struct SoakResult {
  double loss = 0.0;
  double flap_rate_hz = 0.0;
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t rejected = 0;
  std::uint64_t fwd_dropped = 0;
  std::uint64_t queue_dropped = 0;
  std::uint64_t fault_dropped = 0;
  std::size_t violations = 0;
  std::string fault_stats;  // FaultStats::to_json()
  bool threw = false;
  std::string error;
};

SoakResult soak_once(double loss, double flap_rate_hz, std::uint64_t seed) {
  SoakResult r;
  r.loss = loss;
  r.flap_rate_hz = flap_rate_hz;
  try {
    auto fabric = net::make_leaf_spine(2, 2, 2);
    net::Network net(fabric.topo);
    net.set_forensics(true, 512);
    fwd::install_leaf_spine_routing(net, fabric);
    const int dep = net.deploy(compile_library_checker("stateful_firewall"));

    net::FaultPlan plan;
    plan.loss = loss;
    plan.corrupt = 0.06;
    plan.duplicate = 0.02;
    plan.reorder = 0.04;
    plan.reorder_max_s = 30e-6;
    plan.flap_rate_hz = flap_rate_hz;
    plan.flap_down_s = 120e-6;
    plan.horizon_s = 3e-3;
    plan.restarts.push_back({fabric.leaves[1], 1.0e-3});
    plan.restart_warmup_s = 300e-6;
    plan.rule_push_delay_s = 60e-6;
    plan.rule_push_jitter_s = 60e-6;
    net.arm_faults(plan, seed);

    const std::uint32_t client = net.topo().node(fabric.hosts[0][0]).ip;
    const std::uint32_t server = net.topo().node(fabric.hosts[1][0]).ip;
    const std::uint32_t intruder = net.topo().node(fabric.hosts[0][1]).ip;
    net.dict_insert_all_delayed(dep, "allowed",
                                {BitVec(32, client), BitVec(32, server)},
                                {BitVec::from_bool(true)});
    net.dict_insert_all_delayed(dep, "allowed",
                                {BitVec(32, server), BitVec(32, client)},
                                {BitVec::from_bool(true)});

    for (int i = 0; i < 300; ++i) {
      const double t = 8e-6 * (i + 1);
      const bool bad = i % 5 == 4;
      const int src_host = bad ? fabric.hosts[0][1] : fabric.hosts[0][0];
      const std::uint32_t src_ip = bad ? intruder : client;
      const auto sport = static_cast<std::uint16_t>(40000 + i % 16);
      net.events().schedule_at(t, [&net, src_host, src_ip, server, sport]() {
        net.send_from_host(src_host,
                           p4rt::make_udp(src_ip, server, sport, 80, 64));
      });
    }
    net.events().run();

    const auto& c = net.counters();
    r.injected = c.injected;
    r.delivered = c.delivered;
    r.rejected = c.rejected;
    r.fwd_dropped = c.fwd_dropped;
    r.queue_dropped = c.queue_dropped;
    r.fault_dropped = c.fault_dropped;
    r.violations = net.violation_reports().size();
    r.fault_stats = net.fault_stats().to_json();
  } catch (const std::exception& e) {
    r.threw = true;
    r.error = e.what();
  } catch (...) {
    r.threw = true;
    r.error = "non-std exception";
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_chaos.json";
  std::uint64_t seed = 42;
  tools::Cli cli("[--json PATH] [--seed N] [--help]");
  cli.text("--json", &json_path).u64("--seed", &seed);
  if (const auto rc = cli.parse(argc, argv)) return *rc;

  const double losses[] = {0.0, 0.01, 0.05};
  const double flaps[] = {0.0, 1000.0, 4000.0};
  std::vector<SoakResult> results;
  bool any_threw = false;

  std::printf("Chaos soak (seed %llu): loss x flap sweep\n\n",
              static_cast<unsigned long long>(seed));
  std::printf("  %-6s %-9s %9s %9s %9s %9s %7s\n", "loss", "flap_hz",
              "injected", "delivered", "rejected", "faultdrop", "threw");
  for (double loss : losses) {
    for (double flap : flaps) {
      SoakResult r = soak_once(loss, flap, seed);
      any_threw = any_threw || r.threw;
      std::printf("  %-6.2f %-9.0f %9llu %9llu %9llu %9llu %7s\n", r.loss,
                  r.flap_rate_hz, static_cast<unsigned long long>(r.injected),
                  static_cast<unsigned long long>(r.delivered),
                  static_cast<unsigned long long>(r.rejected),
                  static_cast<unsigned long long>(r.fault_dropped),
                  r.threw ? "YES" : "no");
      if (r.threw) {
        std::fprintf(stderr, "  ERROR: %s\n", r.error.c_str());
      }
      results.push_back(std::move(r));
    }
  }

  std::string out;
  tools::appendf(out,
                 "{\n  \"bench\": \"chaos_soak\",\n  \"seed\": %llu,\n"
                 "  \"configs\": [\n",
                 static_cast<unsigned long long>(seed));
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SoakResult& r = results[i];
    tools::appendf(
        out,
        "    {\"loss\": %.2f, \"flap_rate_hz\": %.0f, \"injected\": %llu, "
        "\"delivered\": %llu, \"rejected\": %llu, \"fwd_dropped\": %llu, "
        "\"queue_dropped\": %llu, \"fault_dropped\": %llu, "
        "\"violations\": %zu, \"threw\": %s,\n     \"fault_stats\": %s}%s\n",
        r.loss, r.flap_rate_hz, static_cast<unsigned long long>(r.injected),
        static_cast<unsigned long long>(r.delivered),
        static_cast<unsigned long long>(r.rejected),
        static_cast<unsigned long long>(r.fwd_dropped),
        static_cast<unsigned long long>(r.queue_dropped),
        static_cast<unsigned long long>(r.fault_dropped), r.violations,
        r.threw ? "true" : "false",
        r.fault_stats.empty() ? "{}" : r.fault_stats.c_str(),
        i + 1 < results.size() ? "," : "");
  }
  out += "  ]\n}\n";
  if (!tools::write_text_file(json_path, out)) return 1;
  std::printf("\nwrote %s\n", json_path.c_str());

  if (any_threw) {
    std::fprintf(stderr,
                 "FAIL: a fault-armed run threw (fail-closed contract)\n");
    return 1;
  }
  std::printf("all %zu configurations completed without throwing\n",
              results.size());
  return 0;
}
