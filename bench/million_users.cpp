// Million-subscriber Aether UPF workload (§5.2 at scale).
//
// Prefills a UE population through PFCP attach (wall-clock timing every
// rule push), then streams a Poisson superposition of attach/detach churn
// and GTP-U uplink traffic through the UPF leaf with the
// application_filtering checker deployed. Sweeps sessions x churn rate and
// emits BENCH_million_users.json with, per configuration:
//
//   * sim-domain packet accounting (identical across machines for a fixed
//     seed);
//   * wall-clock uplink throughput and attach (rule-push) latency
//     percentiles — prefill and under-churn measured separately;
//   * steady-state RSS (VmRSS) and the shared-Applications-table entry
//     count (the TCAM-sharing optimization: O(rules), not O(sessions));
//   * the arena audit counter across the measured window — zero slab
//     growth proves the packet hot path allocates nothing after warmup.
//
//   $ ./million_users [--sessions N] [--churn-per-s X] [--packets-per-s X]
//                     [--duration-s X] [--warmup-s X] [--seed N]
//                     [--json PATH] [--metrics PATH] [--sweep] [--help]
//
// The scenario (UPF leaf, camera-slice controller, churn addressing) is
// tools/scenarios.hpp's, shared with hydrad.
//
// --metrics writes ONLY deterministic sim-domain numbers (no wall clock,
// no RSS), so runs of the same seed produce byte-identical files — the
// golden test compares one with cmp.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "cli_parse.hpp"
#include "net/network.hpp"
#include "scenarios.hpp"
#include "util/arena.hpp"

using namespace hydra;

namespace {

struct RunConfig {
  std::uint32_t sessions = 0;
  double churn_per_s = 0.0;
  double packets_per_s = 0.0;
  double duration_s = 0.0;
  double warmup_s = 0.0;
  std::uint64_t seed = 0;
};

struct RunResult {
  RunConfig cfg;
  // Sim-domain (deterministic).
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t fwd_dropped = 0;
  std::uint64_t queue_dropped = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t attaches = 0;
  std::uint64_t detaches = 0;
  std::size_t active_sessions = 0;
  std::size_t application_entries = 0;
  std::size_t violations = 0;
  // Wall-clock (machine-dependent; excluded from --metrics).
  double prefill_s = 0.0;
  double run_s = 0.0;
  double throughput_pps = 0.0;
  double prefill_attach_p50_us = 0.0;
  double prefill_attach_p99_us = 0.0;
  double churn_attach_p50_us = 0.0;
  double churn_attach_p99_us = 0.0;
  double churn_attach_max_us = 0.0;
  long rss_mb = 0;
  std::uint64_t arena_slabs_warmup = 0;   // slab allocations up to warmup
  std::uint64_t arena_slabs_measured = 0; // slab allocations during measure
};

long read_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb < 0 ? -1 : kb / 1024;
}

double percentile_us(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t i = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(i, v.size() - 1)] * 1e6;
}

RunResult run_once(const RunConfig& cfg) {
  using clock = std::chrono::steady_clock;
  RunResult r;
  r.cfg = cfg;

  auto fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  auto upf = tools::install_upf_leaf(net, fabric);
  const int dep =
      net.deploy(compile_library_checker("application_filtering"));
  net.set_observability(true);

  aether::AetherController ctl = tools::camera_slice_controller(net, upf, dep);
  aether::SessionChurnGenerator gen(
      net, ctl,
      tools::camera_churn(net, fabric, cfg.sessions, cfg.churn_per_s,
                          cfg.packets_per_s, cfg.seed));

  const auto p0 = clock::now();
  gen.prefill();
  r.prefill_s = std::chrono::duration<double>(clock::now() - p0).count();
  const std::size_t prefill_samples = gen.attach_latencies().size();

  // Warmup: size the packet/control pools to the in-flight peak so the
  // measured window shows zero arena slab growth.
  gen.start(0.0, cfg.warmup_s);
  net.events().run();
  r.arena_slabs_warmup = util::arena_allocations();

  const auto t0 = clock::now();
  const std::uint64_t sent_before = gen.packets_sent();
  gen.start(net.events().now(), cfg.duration_s);
  net.events().run();
  r.run_s = std::chrono::duration<double>(clock::now() - t0).count();
  r.arena_slabs_measured = util::arena_allocations() - r.arena_slabs_warmup;

  const auto& c = net.counters();
  r.injected = c.injected;
  r.delivered = c.delivered;
  r.fwd_dropped = c.fwd_dropped;
  r.queue_dropped = c.queue_dropped;
  r.packets_sent = gen.packets_sent();
  r.attaches = gen.attaches();
  r.detaches = gen.detaches();
  r.active_sessions = gen.active_sessions();
  r.application_entries = upf->application_entries();
  r.violations = net.violation_reports().size();
  r.throughput_pps =
      r.run_s > 0.0
          ? static_cast<double>(r.packets_sent - sent_before) / r.run_s
          : 0.0;

  const auto& lat = gen.attach_latencies();
  const std::vector<double> pre(lat.begin(),
                                lat.begin() + static_cast<std::ptrdiff_t>(
                                                  prefill_samples));
  const std::vector<double> churn(
      lat.begin() + static_cast<std::ptrdiff_t>(prefill_samples), lat.end());
  r.prefill_attach_p50_us = percentile_us(pre, 0.50);
  r.prefill_attach_p99_us = percentile_us(pre, 0.99);
  r.churn_attach_p50_us = percentile_us(churn, 0.50);
  r.churn_attach_p99_us = percentile_us(churn, 0.99);
  r.churn_attach_max_us = percentile_us(churn, 1.00);
  r.rss_mb = read_rss_mb();
  return r;
}

void append_metrics(std::string& out, const RunResult& r) {
  tools::appendf(
      out,
      "sessions=%" PRIu32 " churn_per_s=%.0f injected=%" PRIu64
      " delivered=%" PRIu64 " fwd_dropped=%" PRIu64 " queue_dropped=%" PRIu64
      " packets_sent=%" PRIu64 " attaches=%" PRIu64 " detaches=%" PRIu64
      " active=%zu app_entries=%zu violations=%zu\n",
      r.cfg.sessions, r.cfg.churn_per_s, r.injected, r.delivered,
      r.fwd_dropped, r.queue_dropped, r.packets_sent, r.attaches, r.detaches,
      r.active_sessions, r.application_entries, r.violations);
}

void append_json(std::string& out, const RunResult& r, bool last) {
  tools::appendf(
      out,
      "    {\"sessions\": %" PRIu32 ", \"churn_per_s\": %.0f, "
      "\"packets_per_s\": %.0f, \"duration_s\": %.3f,\n"
      "     \"injected\": %" PRIu64 ", \"delivered\": %" PRIu64
      ", \"fwd_dropped\": %" PRIu64 ", \"queue_dropped\": %" PRIu64 ",\n"
      "     \"attaches\": %" PRIu64 ", \"detaches\": %" PRIu64
      ", \"active_sessions\": %zu, \"application_entries\": %zu, "
      "\"violations\": %zu,\n"
      "     \"prefill_s\": %.3f, \"run_s\": %.3f, \"throughput_pps\": %.0f, "
      "\"rss_mb\": %ld,\n"
      "     \"prefill_attach_p50_us\": %.2f, \"prefill_attach_p99_us\": "
      "%.2f,\n"
      "     \"churn_attach_p50_us\": %.2f, \"churn_attach_p99_us\": %.2f, "
      "\"churn_attach_max_us\": %.2f,\n"
      "     \"arena_slabs_warmup\": %" PRIu64
      ", \"arena_slabs_measured\": %" PRIu64 "}%s\n",
      r.cfg.sessions, r.cfg.churn_per_s, r.cfg.packets_per_s,
      r.cfg.duration_s, r.injected, r.delivered, r.fwd_dropped,
      r.queue_dropped, r.attaches, r.detaches, r.active_sessions,
      r.application_entries, r.violations, r.prefill_s, r.run_s,
      r.throughput_pps, r.rss_mb, r.prefill_attach_p50_us,
      r.prefill_attach_p99_us, r.churn_attach_p50_us, r.churn_attach_p99_us,
      r.churn_attach_max_us, r.arena_slabs_warmup, r.arena_slabs_measured,
      last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig base;
  base.sessions = 1000000;
  base.churn_per_s = 2000.0;
  base.packets_per_s = 100000.0;
  base.duration_s = 1.0;
  base.warmup_s = 0.05;
  base.seed = 42;
  std::string json_path = "BENCH_million_users.json";
  std::string metrics_path;
  bool sweep = false;
  tools::Cli cli(
      "[--sessions N] [--churn-per-s X] [--packets-per-s X]\n"
      "          [--duration-s X] [--warmup-s X] [--seed N]\n"
      "          [--json PATH] [--metrics PATH] [--sweep] [--help]");
  cli.integer("--sessions", &base.sessions, 1, 100000000)
      .number("--churn-per-s", &base.churn_per_s, /*zero_ok=*/true)
      .number("--packets-per-s", &base.packets_per_s)
      .number("--duration-s", &base.duration_s)
      .number("--warmup-s", &base.warmup_s)
      .u64("--seed", &base.seed)
      .text("--json", &json_path)
      .text("--metrics", &metrics_path)
      .flag("--sweep", &sweep);
  if (const auto rc = cli.parse(argc, argv)) return *rc;

  std::vector<RunConfig> configs;
  if (sweep) {
    // Sessions x churn-rate grid up to the headline configuration.
    for (const std::uint32_t sessions : {10000u, 100000u, base.sessions}) {
      for (const double churn : {0.0, base.churn_per_s}) {
        RunConfig c = base;
        c.sessions = sessions;
        c.churn_per_s = churn;
        configs.push_back(c);
      }
    }
  } else {
    configs.push_back(base);
  }

  std::printf("million_users: %zu configuration(s)\n\n", configs.size());
  std::printf("  %-9s %-9s %10s %10s %9s %8s %7s %6s\n", "sessions",
              "churn/s", "delivered", "pkts/s", "attach_us", "rss_mb",
              "slabs", "apps");

  std::string metrics;
  std::string json = "{\n  \"bench\": \"million_users\",\n";
  tools::appendf(json, "  \"seed\": %" PRIu64 ",\n  \"configs\": [\n",
                 base.seed);
  bool hot_path_clean = true;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const RunResult r = run_once(configs[i]);
    hot_path_clean = hot_path_clean && r.arena_slabs_measured == 0;
    std::printf("  %-9" PRIu32 " %-9.0f %10" PRIu64 " %10.0f %9.1f %8ld "
                "%7" PRIu64 " %6zu\n",
                r.cfg.sessions, r.cfg.churn_per_s, r.delivered,
                r.throughput_pps, r.churn_attach_p50_us, r.rss_mb,
                r.arena_slabs_measured, r.application_entries);
    append_metrics(metrics, r);
    append_json(json, r, i + 1 == configs.size());
  }
  json += "  ],\n";
  json += std::string("  \"hot_path_zero_alloc\": ") +
          (hot_path_clean ? "true" : "false") + "\n}\n";

  if (!tools::write_text_file(json_path, json)) return 1;
  std::printf("\nwrote %s\n", json_path.c_str());
  if (!metrics_path.empty()) {
    if (!tools::write_text_file(metrics_path, metrics)) return 1;
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  if (!hot_path_clean) {
    std::fprintf(stderr,
                 "FAIL: arena slabs grew during a measured window (hot "
                 "path allocated)\n");
    return 1;
  }
  return 0;
}
