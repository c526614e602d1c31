// hydrastat — one-shot observability snapshot tool.
//
// Rebuilds a canonical scenario with the observability layer enabled,
// traces a packet of interest, and dumps a combined JSON document
// (metrics snapshot + packet traces) plus a human-readable per-hop
// narrative of each traced packet.
//
//   $ ./hydrastat                          # aether scenario, JSON to stdout
//   $ ./hydrastat --scenario leafspine
//   $ ./hydrastat --out hydrastat.json     # narrative to stdout, JSON to file
//
// Scenarios:
//   aether    — the §5.2 application-filtering bug: a client attaches, the
//               operator updates the slice's rules, and the client's retry
//               of previously-allowed traffic is silently dropped by the
//               UPF. The dropped packet is traced, so the narrative shows
//               the Hydra checker's report at the drop switch.
//   leafspine — a 2x2 leaf-spine running the stateful_firewall checker:
//               one allowed flow is delivered, one unsolicited flow is
//               rejected at its last hop. Both packets are traced.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include <cstdlib>

#include "cli_parse.hpp"

#include "aether/controller.hpp"
#include "forwarding/ipv4_ecmp.hpp"
#include "forwarding/upf.hpp"
#include "hydra/hydra.hpp"
#include "net/network.hpp"

using namespace hydra;

namespace {

void aether_scenario(net::Network& net, const net::LeafSpine& fabric) {
  auto routing = fwd::install_leaf_spine_routing(net, fabric);
  auto upf = std::make_shared<fwd::UpfProgram>(routing);
  net.set_program(fabric.leaves[0], upf);
  const int dep = net.deploy(compile_library_checker("application_filtering"));
  net.set_observability(true);

  aether::AetherController ctl(net, upf, dep);
  ctl.define_slice(aether::example_camera_slice(1));

  const std::uint32_t enb = net.topo().node(fabric.hosts[0][0]).ip;
  const std::uint32_t n3 = 0x0a0001fe;
  const std::uint32_t app = net.topo().node(fabric.hosts[1][0]).ip;
  const std::uint32_t ue = 0x0a640001;
  const std::uint32_t teid = 1001;

  auto uplink = [&]() {
    p4rt::Packet inner = p4rt::make_udp(ue, app, 40000, 81, 64);
    net.send_from_host(fabric.hosts[0][0],
                       p4rt::gtpu_encap(inner, enb, n3, teid));
    net.events().run();
  };

  // Attach, verify the flow works, then apply the buggy rule update. A new
  // client attaching afterwards installs the updated rule as a fresh,
  // higher-priority shared application entry — which the pre-update client
  // has no termination for.
  ctl.attach_client(1, {123450001ULL, ue, teid}, enb, n3);
  uplink();
  aether::Slice updated = aether::example_camera_slice(1);
  updated.rules[1].port_hi = 82;
  updated.rules[1].priority = 30;
  ctl.update_slice_rules(1, updated.rules);
  ctl.attach_client(1, {123459999ULL, 0x0a6400f0, 2001}, enb, n3);

  // The old client retries its previously-allowed traffic; trace that
  // packet — the narrative shows the silent UPF drop and Hydra's report.
  net.trace_next(1);
  uplink();
}

void leafspine_scenario(net::Network& net, const net::LeafSpine& fabric) {
  fwd::install_leaf_spine_routing(net, fabric);
  const int dep = net.deploy(compile_library_checker("stateful_firewall"));
  net.set_observability(true);

  const std::uint32_t client = net.topo().node(fabric.hosts[0][0]).ip;
  const std::uint32_t server = net.topo().node(fabric.hosts[1][0]).ip;
  net.dict_insert_all(dep, "allowed", {BitVec(32, client), BitVec(32, server)},
                      {BitVec::from_bool(true)});
  net.dict_insert_all(dep, "allowed", {BitVec(32, server), BitVec(32, client)},
                      {BitVec::from_bool(true)});

  net.trace_next(2);
  // Allowed flow: delivered end to end.
  net.send_from_host(fabric.hosts[0][0],
                     p4rt::make_udp(client, server, 40000, 80, 64));
  net.events().run();
  // Unsolicited flow from a host with no allow entry: rejected at last hop.
  const std::uint32_t intruder = net.topo().node(fabric.hosts[0][1]).ip;
  net.send_from_host(fabric.hosts[0][1],
                     p4rt::make_udp(intruder, server, 40001, 80, 64));
  net.events().run();
}

// Chaos parity with hydrascope: the same leaf-spine + stateful_firewall
// fabric under the full fault plan (loss, corruption, duplication,
// reordering, link flaps, a mid-run restart, delayed rule pushes), driven
// by one seed, with the observability layer on so the snapshot captures
// the fault-path counters. Deterministic: the same (plan, seed) replays
// bit-identically.
void chaos_scenario(net::Network& net, const net::LeafSpine& fabric,
                    std::uint64_t seed) {
  fwd::install_leaf_spine_routing(net, fabric);
  const int dep = net.deploy(compile_library_checker("stateful_firewall"));
  net.set_observability(true);

  net::FaultPlan plan;
  plan.loss = 0.02;
  plan.corrupt = 0.08;
  plan.duplicate = 0.03;
  plan.reorder = 0.05;
  plan.reorder_max_s = 40e-6;
  plan.flap_rate_hz = 1500.0;
  plan.flap_down_s = 150e-6;
  plan.horizon_s = 4e-3;
  plan.restarts.push_back({fabric.leaves[1], 1.2e-3});
  plan.restart_warmup_s = 400e-6;
  plan.rule_push_delay_s = 80e-6;
  plan.rule_push_jitter_s = 80e-6;
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

  for (int i = 0; i < 240; ++i) {
    const double t = 8e-6 * (i + 1);
    const bool bad = i % 4 == 3;
    const int src_host = bad ? fabric.hosts[0][1] : fabric.hosts[0][0];
    const std::uint32_t src_ip = bad ? intruder : client;
    const auto sport = static_cast<std::uint16_t>(40000 + i % 16);
    net.events().schedule_at(t, [&net, src_host, src_ip, server, sport]() {
      net.send_from_host(src_host,
                         p4rt::make_udp(src_ip, server, sport, 80, 64));
    });
  }
  net.events().run();
}

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--scenario aether|leafspine] [--chaos SEED]\n"
               "          [--out FILE] [--prom FILE]\n",
               prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario = "aether";
  std::string out_path;
  std::string prom_path;
  bool chaos = false;
  std::uint64_t chaos_seed = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
      scenario = argv[++i];
    } else if (std::strcmp(argv[i], "--chaos") == 0 && i + 1 < argc) {
      chaos = true;
      if (!tools::parse_u64_arg(argv[0], "--chaos", argv[++i], &chaos_seed)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--prom") == 0 && i + 1 < argc) {
      prom_path = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }

  auto fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  if (chaos) {
    scenario = "chaos";
    chaos_scenario(net, fabric, chaos_seed);
  } else if (scenario == "aether") {
    aether_scenario(net, fabric);
  } else if (scenario == "leafspine") {
    leafspine_scenario(net, fabric);
  } else {
    std::fprintf(stderr, "unknown scenario '%s'\n", scenario.c_str());
    return 2;
  }

  for (const auto& trace : net.trace_sink().traces()) {
    std::printf("%s\n", obs::TraceSink::narrative(trace).c_str());
  }
  for (const auto& r : net.reports()) {
    std::printf("report: checker=%s switch=%d hop=%d flow=%s\n",
                r.checker.c_str(), r.switch_id, r.hop_count,
                r.flow.to_string().c_str());
  }

  std::string doc = "{\n\"scenario\": \"" + scenario + "\"";
  if (chaos) {
    doc += ",\n\"seed\": " + std::to_string(chaos_seed);
    doc += ",\n\"fault_stats\": " + net.fault_stats().to_json();
  }
  doc += ",\n\"metrics\": " + net.metrics_json() +
         ",\n\"traces\": " + net.trace_sink().to_json() + "\n}\n";
  if (out_path.empty()) {
    std::printf("%s", doc.c_str());
  } else {
    if (!tools::write_text_file(out_path, doc)) return 1;
    std::printf("wrote %s\n", out_path.c_str());
  }
  if (!prom_path.empty()) {
    // Prometheus text exposition format 0.0.4: serve the file with
    // `Content-Type: text/plain; version=0.0.4` (hydrad does); the body
    // ends with exactly one trailing newline.
    if (!tools::write_text_file(prom_path, net.export_prometheus())) return 1;
    std::printf("wrote %s\n", prom_path.c_str());
  }
  return 0;
}
