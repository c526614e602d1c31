// hydrascope — violation forensics and hop-profile dump tool.
//
// Replays a canonical scenario with the forensics flight recorder armed
// and, for every checker reject/report, prints a §5.2-style narrative of
// the violating packet's full journey (per-hop telemetry evolution,
// matched table entries, register deltas, the forwarding verdicts) and
// dumps the assembled ViolationReports as deterministic JSON.
//
//   $ ./hydrascope --forensics                     # aether, narrative+JSON
//   $ ./hydrascope --forensics --out forensics.json
//       # deterministic forensics JSON (cmp-able; see tests/golden)
//   $ ./hydrascope --forensics --trace hop_trace.json
//       # also dump the per-hop profile as Chrome trace-event JSON —
//       # load in https://ui.perfetto.dev or chrome://tracing
//   $ ./hydrascope --forensics --min-violations 1  # exit 1 if fewer
//
// Scenarios (same fabrics as hydrastat):
//   aether    — the §5.2 application-filtering bug: after the buggy shared
//               Applications-table update, the pre-update client's retry is
//               silently dropped by the UPF; the checker reports it, and
//               the forensics show no_termination at the UPF leaf.
//   leafspine — stateful_firewall on a 2x2 leaf-spine: an unsolicited flow
//               is rejected at its last hop.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

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

  // Attach, verify the flow works, then apply the buggy rule update (see
  // tools/hydrastat.cpp). The old client's retry after the update hits the
  // fresh shared Applications entry it has no termination for — the UPF
  // drops silently, and the checker's report triggers forensics assembly.
  ctl.attach_client(1, {123450001ULL, ue, teid}, enb, n3);
  uplink();
  aether::Slice updated = aether::example_camera_slice(1);
  updated.rules[1].port_hi = 82;
  updated.rules[1].priority = 30;
  ctl.update_slice_rules(1, updated.rules);
  ctl.attach_client(1, {123459999ULL, 0x0a6400f0, 2001}, enb, n3);
  uplink();
}

// Chaos mode: the same leaf-spine + stateful_firewall setup, but with the
// full fault plan armed — loss, corruption, duplication, reordering, link
// flaps, a mid-run switch restart, and delayed controller rule pushes —
// all driven by one seed. The run must never throw (damaged telemetry is
// rejected fail-closed), and the emitted JSON carries no wall clock, so
// the golden test byte-compares it.
void chaos_scenario(net::Network& net, const net::LeafSpine& fabric,
                    std::uint64_t seed) {
  fwd::install_leaf_spine_routing(net, fabric);
  const int dep = net.deploy(compile_library_checker("stateful_firewall"));

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
  // The allow entries land late (push delay + jitter): the client's first
  // packets are rejected until the rules arrive — a transient violation
  // window the forensics annotate.
  net.dict_insert_all_delayed(dep, "allowed",
                              {BitVec(32, client), BitVec(32, server)},
                              {BitVec::from_bool(true)});
  net.dict_insert_all_delayed(dep, "allowed",
                              {BitVec(32, server), BitVec(32, client)},
                              {BitVec::from_bool(true)});

  // Deterministic traffic spread over the fault horizon: mostly the
  // allowed client flow, every fourth packet the unsolicited intruder.
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

void leafspine_scenario(net::Network& net, const net::LeafSpine& fabric) {
  fwd::install_leaf_spine_routing(net, fabric);
  const int dep = net.deploy(compile_library_checker("stateful_firewall"));

  const std::uint32_t client = net.topo().node(fabric.hosts[0][0]).ip;
  const std::uint32_t server = net.topo().node(fabric.hosts[1][0]).ip;
  net.dict_insert_all(dep, "allowed", {BitVec(32, client), BitVec(32, server)},
                      {BitVec::from_bool(true)});
  net.dict_insert_all(dep, "allowed", {BitVec(32, server), BitVec(32, client)},
                      {BitVec::from_bool(true)});

  // Allowed flow: delivered end to end (no violation).
  net.send_from_host(fabric.hosts[0][0],
                     p4rt::make_udp(client, server, 40000, 80, 64));
  net.events().run();
  // Unsolicited flow from a host with no allow entry: rejected at last hop.
  const std::uint32_t intruder = net.topo().node(fabric.hosts[0][1]).ip;
  net.send_from_host(fabric.hosts[0][1],
                     p4rt::make_udp(intruder, server, 40001, 80, 64));
  net.events().run();
}

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--scenario aether|leafspine] [--forensics]\n"
               "          [--chaos SEED]\n"
               "          [--ring N] [--out FILE] [--trace FILE]\n"
               "          [--min-violations N]\n"
               "          [--prom FILE] [--series FILE] [--interval SEC]\n"
               "          [--watch]\n",
               prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario = "aether";
  std::string out_path;
  std::string trace_path;
  std::string prom_path;
  std::string series_path;
  long ring = 512;
  long min_violations = 0;
  double interval_s = 0.0;  // 0 = derive a default when export is requested
  bool forensics = false;
  bool chaos = false;
  bool watch = false;
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
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--prom") == 0 && i + 1 < argc) {
      prom_path = argv[++i];
    } else if (std::strcmp(argv[i], "--series") == 0 && i + 1 < argc) {
      series_path = argv[++i];
    } else if (std::strcmp(argv[i], "--interval") == 0 && i + 1 < argc) {
      if (!tools::parse_positive_double_arg(argv[0], "--interval", argv[++i],
                                            &interval_s)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--watch") == 0) {
      watch = true;
    } else if (std::strcmp(argv[i], "--ring") == 0 && i + 1 < argc) {
      if (!tools::parse_long_arg(argv[0], "--ring", argv[++i], 1, 1 << 20,
                                 &ring)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--min-violations") == 0 && i + 1 < argc) {
      if (!tools::parse_long_arg(argv[0], "--min-violations", argv[++i], 0,
                                 1000000000L, &min_violations)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--forensics") == 0) {
      forensics = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (watch && prom_path.empty()) {
    std::fprintf(stderr, "%s: --watch requires --prom FILE\n", argv[0]);
    return usage(argv[0]);
  }

  auto fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  // Chaos mode always records forensics — the annotated reports are the
  // point of the exercise.
  if (forensics || chaos) {
    net.set_forensics(true, static_cast<std::size_t>(ring));
  }
  // The hop profile is wall-clock (not deterministic), so it is only armed
  // when the caller asks for the trace file.
  if (!trace_path.empty()) net.set_engine_profiling(true);
  // Streaming export: armed before any traffic so the window series spans
  // the whole run. Ticks fire on the virtual-time axis, so both the
  // exposition and the series are deterministic.
  const bool exporting =
      !prom_path.empty() || !series_path.empty() || interval_s > 0.0;
  if (exporting) {
    if (interval_s <= 0.0) interval_s = chaos ? 2e-4 : 5e-6;
    net.set_export_interval(interval_s);
    if (watch) {
      // --watch: rewrite the exposition file at every captured window (the
      // long-running service loop a scraper would poll).
      net.set_export_callback([&net, prom_path](const obs::WindowSample&) {
        tools::write_text_file(prom_path, net.export_prometheus());
      });
    }
  }

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

  const auto& violations = net.violation_reports();
  if (!chaos) {
    for (const auto& v : violations) {
      std::printf("%s\n", obs::violation_narrative(v).c_str());
    }
  }
  std::printf("violations: %zu (rejected=%llu reported=%zu)\n",
              violations.size(),
              static_cast<unsigned long long>(net.counters().rejected),
              net.reports().size());
  if (chaos) {
    std::printf("fault stats: %s\n", net.fault_stats().to_json().c_str());
  }

  // The JSON document holds only the scenario name and the assembled
  // reports — no wall clock — so runs can be byte-compared. Chaos mode adds
  // the seed, the fault stats, the simulation counters, and the full
  // (deterministic) metrics snapshot.
  std::string doc = "{\n\"scenario\": \"" + scenario + "\"";
  if (chaos) {
    const auto& c = net.counters();
    doc += ",\n\"seed\": " + std::to_string(chaos_seed);
    doc += ",\n\"fault_stats\": " + net.fault_stats().to_json();
    doc += ",\n\"counters\": {\"injected\": " + std::to_string(c.injected) +
           ", \"delivered\": " + std::to_string(c.delivered) +
           ", \"rejected\": " + std::to_string(c.rejected) +
           ", \"fwd_dropped\": " + std::to_string(c.fwd_dropped) +
           ", \"queue_dropped\": " + std::to_string(c.queue_dropped) +
           ", \"fault_dropped\": " + std::to_string(c.fault_dropped) + "}";
    doc += ",\n\"metrics\": " + net.metrics_json();
  }
  doc += ",\n\"violations\": " + obs::violations_json(violations) + "}\n";
  if (out_path.empty()) {
    std::printf("%s", doc.c_str());
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  }

  if (!trace_path.empty()) {
    const std::string trace = net.engine_profiler().to_chrome_trace_json();
    std::FILE* f = std::fopen(trace_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::fwrite(trace.data(), 1, trace.size(), f);
    std::fclose(f);
    std::printf("wrote %s (load in https://ui.perfetto.dev)\n",
                trace_path.c_str());
  }

  // Final scrape + window series. Written after the run regardless of
  // --watch, so the file always reflects the terminal state. The .prom
  // body is Prometheus text format 0.0.4 (serve as `text/plain;
  // version=0.0.4`) and ends with exactly one trailing newline.
  if (!prom_path.empty()) {
    if (!tools::write_text_file(prom_path, net.export_prometheus())) return 1;
    std::printf("wrote %s\n", prom_path.c_str());
  }
  if (!series_path.empty()) {
    if (!tools::write_text_file(series_path, net.window_series_json())) {
      return 1;
    }
    std::printf("wrote %s\n", series_path.c_str());
  }

  if (static_cast<long>(violations.size()) < min_violations) {
    std::fprintf(stderr, "expected >= %ld violations, got %zu\n",
                 min_violations, violations.size());
    return 1;
  }
  return 0;
}
