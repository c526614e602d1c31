// hydrascope — violation forensics dump tool.
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
//   $ ./hydrascope --forensics --min-violations 1  # exit 1 if fewer
//   $ ./hydrascope --help  # usage on stdout, exit 0; runs and writes nothing
//
// Scenarios (tools/scenarios.hpp, shared with hydrastat): aether,
// leafspine, and --chaos SEED.
#include <cstdint>
#include <cstdio>
#include <string>

#include "cli_parse.hpp"
#include "net/network.hpp"
#include "scenarios.hpp"

using namespace hydra;

namespace {

constexpr const char* kArgs =
    "[--scenario aether|leafspine] [--forensics]\n"
    "          [--chaos SEED]\n"
    "          [--ring N] [--out FILE]\n"
    "          [--min-violations N]\n"
    "          [--prom FILE] [--series FILE] [--interval SEC]\n"
    "          [--watch] [--help]";

}  // namespace

int main(int argc, char** argv) {
  std::string scenario = "aether";
  std::string out_path;
  std::string prom_path;
  std::string series_path;
  long ring = 512;
  long min_violations = 0;
  double interval_s = 0.0;  // 0 = derive a default when export is requested
  bool forensics = false;
  bool watch = false;
  std::uint64_t chaos_seed = 0;
  tools::Cli cli(kArgs);
  cli.choice("--scenario", &scenario, {"aether", "leafspine"})
      .u64("--chaos", &chaos_seed)
      .text("--out", &out_path)
      .text("--prom", &prom_path)
      .text("--series", &series_path)
      .number("--interval", &interval_s)
      .flag("--watch", &watch)
      .integer("--ring", &ring, 1, 1 << 20)
      .integer("--min-violations", &min_violations, 0, 1000000000L)
      .flag("--forensics", &forensics);
  if (const auto rc = cli.parse(argc, argv)) return *rc;
  const bool chaos = cli.given("--chaos");
  if (watch && prom_path.empty()) {
    return cli.refuse("--watch requires --prom FILE");
  }

  auto fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  // Chaos mode always records forensics — the annotated reports are the
  // point of the exercise.
  if (forensics || chaos) {
    net.set_forensics(true, static_cast<std::size_t>(ring));
  }
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
    tools::chaos_scenario(net, fabric, chaos_seed, /*stat=*/false);
  } else if (scenario == "aether") {
    tools::aether_scenario(net, fabric, /*stat=*/false);
  } else {
    tools::leafspine_scenario(net, fabric, /*stat=*/false);
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
    if (!tools::write_text_file(out_path, doc)) return 1;
    std::printf("wrote %s\n", out_path.c_str());
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
