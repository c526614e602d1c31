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
//   $ ./hydrastat --help                   # usage on stdout, exit 0
//
// Scenarios (tools/scenarios.hpp): aether, leafspine, and --chaos SEED.
// The packets of interest are traced: the aether client's silently
// dropped retry, and both leafspine flows.
#include <cstdint>
#include <cstdio>
#include <string>

#include "cli_parse.hpp"
#include "net/network.hpp"
#include "scenarios.hpp"

using namespace hydra;

namespace {

constexpr const char* kArgs =
    "[--scenario aether|leafspine] [--chaos SEED]\n"
    "          [--out FILE] [--prom FILE] [--help]";

}  // namespace

int main(int argc, char** argv) {
  std::string scenario = "aether";
  std::string out_path;
  std::string prom_path;
  std::uint64_t chaos_seed = 0;
  tools::Cli cli(kArgs);
  cli.choice("--scenario", &scenario, {"aether", "leafspine"})
      .u64("--chaos", &chaos_seed)
      .text("--out", &out_path)
      .text("--prom", &prom_path);
  if (const auto rc = cli.parse(argc, argv)) return *rc;
  const bool chaos = cli.given("--chaos");

  auto fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  if (chaos) {
    scenario = "chaos";
    tools::chaos_scenario(net, fabric, chaos_seed, /*stat=*/true);
  } else if (scenario == "aether") {
    tools::aether_scenario(net, fabric, /*stat=*/true);
  } else {
    tools::leafspine_scenario(net, fabric, /*stat=*/true);
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
