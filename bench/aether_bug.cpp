// Regenerates the §5.2 / Figure 11 experiment: the Aether application-
// filtering bug, swept over the number of clients attached before the rule
// update. Every pre-update client silently loses its allowed traffic, and
// Hydra reports each one.
//
//   $ ./aether_bug [--json PATH] [--help]
//
// --json also writes the JSON document to PATH; --help prints this usage
// and exits 0 without running; any other argument exits 2 with the usage.
//
// The JSON document carries the sweep table, the run's reject/report
// totals, and — with the forensics flight recorder armed — the first
// violation's full forensic report (obs::violation_json), so the bug's
// diagnosis is machine-readable without re-running the tool.
#include <cstdio>
#include <string>
#include <vector>

#include "aether/controller.hpp"
#include "cli_parse.hpp"
#include "forwarding/ipv4_ecmp.hpp"
#include "forwarding/upf.hpp"
#include "hydra/hydra.hpp"
#include "net/network.hpp"

using namespace hydra;

namespace {

struct Outcome {
  int old_clients;
  std::uint64_t silently_dropped = 0;
  std::uint64_t hydra_reports = 0;
  std::uint64_t new_client_ok = 0;
  std::uint64_t rejected = 0;
  // One representative report, showing the flow identity Hydra attaches.
  std::string sample_report;
  // First assembled ViolationReport as JSON (forensics runs only).
  std::string first_violation_json;
};

Outcome run(int old_clients, bool forensics) {
  auto fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  auto routing = fwd::install_leaf_spine_routing(net, fabric);
  auto upf = std::make_shared<fwd::UpfProgram>(routing);
  net.set_program(fabric.leaves[0], upf);
  const int dep = net.deploy(compile_library_checker("application_filtering"));
  if (forensics) net.set_forensics(true);
  aether::AetherController ctl(net, upf, dep);
  ctl.define_slice(aether::example_camera_slice(1));

  const std::uint32_t enb = net.topo().node(fabric.hosts[0][0]).ip;
  const std::uint32_t n3 = 0x0a0001fe;
  const std::uint32_t app = net.topo().node(fabric.hosts[1][0]).ip;

  auto uplink = [&](std::uint32_t ue, std::uint32_t teid,
                    std::uint16_t port) {
    p4rt::Packet inner = p4rt::make_udp(ue, app, 40000, port, 64);
    net.send_from_host(fabric.hosts[0][0],
                       p4rt::gtpu_encap(inner, enb, n3, teid));
    net.events().run();
  };

  // Attach the pre-update population and verify they work.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ues;  // (ip, teid)
  for (int i = 0; i < old_clients; ++i) {
    const std::uint32_t ue = 0x0a640001 + static_cast<std::uint32_t>(i);
    const std::uint32_t teid = 1001 + static_cast<std::uint32_t>(i);
    ctl.attach_client(1, {123450001ULL + static_cast<std::uint64_t>(i), ue,
                          teid},
                      enb, n3);
    ues.emplace_back(ue, teid);
    uplink(ue, teid, 81);
  }
  const auto delivered_before = net.counters().delivered;
  if (delivered_before != static_cast<std::uint64_t>(old_clients)) {
    std::printf("  !! pre-update traffic broken\n");
  }

  // Rule update + one new client.
  aether::Slice updated = aether::example_camera_slice(1);
  updated.rules[1].port_hi = 82;
  updated.rules[1].priority = 30;
  ctl.update_slice_rules(1, updated.rules);
  const std::uint32_t new_ue = 0x0a6400f0;
  ctl.attach_client(1, {123459999, new_ue, 2001}, enb, n3);
  uplink(new_ue, 2001, 81);

  Outcome out;
  out.old_clients = old_clients;
  out.new_client_ok = net.counters().delivered - delivered_before;

  // Every old client retries its previously-allowed traffic.
  const auto drops0 = upf->termination_drops();
  const auto reports0 = net.reports().size();
  for (const auto& [ue, teid] : ues) uplink(ue, teid, 81);
  out.silently_dropped = upf->termination_drops() - drops0;
  out.hydra_reports = net.reports().size() - reports0;
  out.rejected = net.counters().rejected;
  if (net.reports().size() > reports0) {
    const net::ReportRecord& r = net.reports()[reports0];
    out.sample_report = "checker=" + r.checker +
                        " switch=" + net.topo().node(r.switch_id).name +
                        " flow=" + r.flow.to_string() +
                        " hop=" + std::to_string(r.hop_count);
  }
  if (forensics && !net.violation_reports().empty()) {
    out.first_violation_json =
        obs::violation_json(net.violation_reports().front());
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  tools::Cli cli("[--json PATH] [--help]");
  cli.text("--json", &json_path);
  if (const auto rc = cli.parse(argc, argv)) return *rc;
  const bool json = !json_path.empty();

  std::printf("Aether application-filtering bug sweep (§5.2, Figure 11)\n");
  std::printf("scenario: N clients attach -> operator updates rule "
              "(81 -> 81-82, prio up) -> client N+1 attaches\n\n");
  std::printf("%12s %14s %18s %14s\n", "old clients", "new client ok",
              "silently dropped", "Hydra reports");
  bool all_detected = true;
  std::string sample;
  std::string first_violation;
  std::uint64_t total_reports = 0;
  std::uint64_t total_rejects = 0;
  std::string rows;
  for (int n : {1, 2, 4, 8, 16}) {
    // Forensics is armed only for the JSON run, so the default invocation
    // measures exactly what it always measured.
    const Outcome o = run(n, json);
    std::printf("%12d %14llu %18llu %14llu\n", o.old_clients,
                static_cast<unsigned long long>(o.new_client_ok),
                static_cast<unsigned long long>(o.silently_dropped),
                static_cast<unsigned long long>(o.hydra_reports));
    if (sample.empty()) sample = o.sample_report;
    if (first_violation.empty()) first_violation = o.first_violation_json;
    total_reports += o.hydra_reports;
    total_rejects += o.rejected;
    if (!rows.empty()) rows += ",\n";
    rows += "    {\"old_clients\": " + std::to_string(o.old_clients) +
            ", \"new_client_ok\": " + std::to_string(o.new_client_ok) +
            ", \"silently_dropped\": " + std::to_string(o.silently_dropped) +
            ", \"hydra_reports\": " + std::to_string(o.hydra_reports) + "}";
    all_detected = all_detected &&
                   o.silently_dropped == static_cast<std::uint64_t>(n) &&
                   o.hydra_reports == o.silently_dropped;
  }
  if (!sample.empty()) {
    std::printf("\nsample report: %s\n", sample.c_str());
  }
  std::printf("\n%s\n",
              all_detected
                  ? "every silent drop produced exactly one Hydra report at "
                    "the switch where it happened (matches the paper)"
                  : "DETECTION MISMATCH");

  if (json) {
    std::string doc = "{\n  \"bench\": \"aether_bug\",\n  \"sweep\": [\n" +
                      rows + "\n  ],\n  \"reports\": " +
                      std::to_string(total_reports) +
                      ",\n  \"rejects\": " + std::to_string(total_rejects) +
                      ",\n  \"all_detected\": " +
                      (all_detected ? "true" : "false") +
                      ",\n  \"first_violation\": " +
                      (first_violation.empty() ? std::string("null")
                                               : first_violation) +
                      "\n}\n";
    if (!tools::write_text_file(json_path, doc)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return all_detected ? 0 : 1;
}
