// hydrad — long-running runtime-verification daemon.
//
// Rebuilds the million-subscriber Aether scenario (leaf-spine fabric, UPF
// leaf, application_filtering checker, SessionChurnGenerator load), arms
// the streaming exporter + live observability plane, and serves the live
// plane over HTTP while continuously advancing simulated time, paced
// against the wall clock:
//
//   GET /metrics     Prometheus text (text/plain; version=0.0.4)
//   GET /healthz     SLO verdict JSON (always 200; verdict in the body)
//   GET /series      windowed series JSON
//   GET /violations  forensic violation reports JSON
//   GET /topk        top-K flow/session/property attribution JSON
//   GET /deploy?checker=<name>   rolling-deploy a library checker (202)
//   GET /undeploy?dep=<id>       rolling-retire a deployment slot (202)
//
//   $ hydrad [--listen PORT] [--interval S] [--snapshot PATH]
//            [--sessions N] [--churn-per-s X] [--packets-per-s X]
//            [--duration-s X] [--pace X] [--topk K] [--ring N] [--seed N]
//            [--forensics]
//
// `--pace` is simulated seconds advanced per wall-clock second (default
// 1). `--duration-s 0` (default) runs until SIGTERM/SIGINT, which
// triggers a graceful shutdown: a full-state snapshot (format v2 —
// clock, deployment set, checker sensors/tables, UPF forwarding state,
// and the whole obs plane) is flushed to `--snapshot PATH` and the
// process exits 0. If PATH already exists at startup it is restored
// first, resuming the simulation clock, deployment set, and every exported
// counter exactly. A corrupt or truncated file, or one in the retired v1
// format, is renamed to PATH.bad and the daemon starts fresh rather than
// dying.
//
// The deploy/undeploy control routes are applied between event slices on
// the main loop via Network::deploy_rolling / undeploy_rolling — traffic
// keeps flowing through the swap, and telemetry frames stamped by a
// retired deployment generation are rejected fail-closed (the
// hydra_checker_stale_generation_rejects_total family), never dropped on
// the floor.
//
// The PFCP control plane (controller bindings, churn bookkeeping) is
// deliberately NOT serialized: after a restore the daemon re-seeds the
// slice and re-attaches the population. Re-installed config entries
// duplicate restored ones with identical match+action — lookups are
// unaffected and duplicates drain as churn detaches sessions.
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "aether/churn.hpp"
#include "aether/controller.hpp"
#include "aether/slice.hpp"
#include "cli_parse.hpp"
#include "forwarding/ipv4_ecmp.hpp"
#include "forwarding/upf.hpp"
#include "hydra/hydra.hpp"
#include "net/network.hpp"
#include "obs/httpd.hpp"

using namespace hydra;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

// UE address block assigned by SessionChurnGenerator (kUeBase=0x50000001):
// PFCP-session top-K attribution keys on flow endpoints inside it.
constexpr std::uint32_t kUeNet = 0x50000000u;
constexpr std::uint32_t kUeMask = 0xFC000000u;

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--listen PORT] [--interval S] [--snapshot PATH]\n"
               "          [--sessions N] [--churn-per-s X] "
               "[--packets-per-s X]\n"
               "          [--duration-s X] [--pace X] [--topk K] [--ring N]\n"
               "          [--seed N] [--forensics]\n",
               prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  long listen_port = 9464;
  double interval_s = 0.01;
  std::string snapshot_path;
  long sessions = 2000;
  double churn_per_s = 500.0;
  double packets_per_s = 20000.0;
  double duration_s = 0.0;  // 0 = run until SIGTERM
  double pace = 1.0;
  long topk_k = 8;
  long ring = 128;
  std::uint64_t seed = 42;
  bool forensics = false;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(a, "--listen") == 0) {
      const char* v = next(a);
      if (v == nullptr || !tools::parse_long_arg(argv[0], a, v, 0, 65535,
                                                 &listen_port)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(a, "--interval") == 0) {
      const char* v = next(a);
      if (v == nullptr ||
          !tools::parse_positive_double_arg(argv[0], a, v, &interval_s)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(a, "--snapshot") == 0) {
      const char* v = next(a);
      if (v == nullptr) return usage(argv[0]);
      snapshot_path = v;
    } else if (std::strcmp(a, "--sessions") == 0) {
      const char* v = next(a);
      if (v == nullptr ||
          !tools::parse_long_arg(argv[0], a, v, 1, 100000000, &sessions)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(a, "--churn-per-s") == 0) {
      const char* v = next(a);
      if (v == nullptr ||
          !tools::parse_positive_double_arg(argv[0], a, v, &churn_per_s)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(a, "--packets-per-s") == 0) {
      const char* v = next(a);
      if (v == nullptr ||
          !tools::parse_positive_double_arg(argv[0], a, v, &packets_per_s)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(a, "--duration-s") == 0) {
      const char* v = next(a);
      if (v == nullptr ||
          !tools::parse_positive_double_arg(argv[0], a, v, &duration_s)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(a, "--pace") == 0) {
      const char* v = next(a);
      if (v == nullptr ||
          !tools::parse_positive_double_arg(argv[0], a, v, &pace)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(a, "--topk") == 0) {
      const char* v = next(a);
      if (v == nullptr ||
          !tools::parse_long_arg(argv[0], a, v, 1, 65536, &topk_k)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(a, "--ring") == 0) {
      const char* v = next(a);
      if (v == nullptr ||
          !tools::parse_long_arg(argv[0], a, v, 1, 1000000, &ring)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(a, "--seed") == 0) {
      const char* v = next(a);
      if (v == nullptr || !tools::parse_u64_arg(argv[0], a, v, &seed)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(a, "--forensics") == 0) {
      forensics = true;
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], a);
      return usage(argv[0]);
    }
  }

  // ---- scenario (identical shape to bench/million_users) -----------------
  auto fabric = net::make_leaf_spine(2, 2, 2);
  std::unique_ptr<net::Network> netp;
  std::shared_ptr<fwd::UpfProgram> upf;
  const auto build_scenario = [&]() {
    netp = std::make_unique<net::Network>(fabric.topo);
    auto routing = fwd::install_leaf_spine_routing(*netp, fabric);
    upf = std::make_shared<fwd::UpfProgram>(routing);
    netp->set_program(fabric.leaves[0], upf);
    netp->set_observability(true);
    if (forensics) netp->set_forensics(true);
    netp->set_export_interval(interval_s, static_cast<std::size_t>(ring));
    net::Network::LiveObsOptions live;
    live.topk_k = static_cast<std::size_t>(topk_k);
    live.session_net = kUeNet;
    live.session_mask = kUeMask;
    netp->arm_live_obs(live);
  };
  build_scenario();

  // Restore BEFORE any deploy or traffic: the snapshot rebuilds the
  // deployment set itself (and the clock, registers, tables, and UPF
  // state). A bad file is set aside and the daemon starts fresh — a
  // crashed snapshot write must not wedge the restart loop.
  std::string snapshot_text;
  if (!snapshot_path.empty()) {
    std::ifstream in(snapshot_path, std::ios::binary);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      snapshot_text = buf.str();
    }
  }
  if (!snapshot_text.empty()) {
    try {
      netp->obs_restore(snapshot_text);
      std::printf("hydrad: restored full network state from %s\n",
                  snapshot_path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hydrad: cannot restore %s: %s\n",
                   snapshot_path.c_str(), e.what());
      const std::string bad = snapshot_path + ".bad";
      if (std::rename(snapshot_path.c_str(), bad.c_str()) == 0) {
        std::fprintf(stderr, "hydrad: set aside as %s; starting fresh\n",
                     bad.c_str());
      }
      build_scenario();  // drop any partially-restored state
    }
  }
  // A restore carries the deployment set: adopt the restored
  // application_filtering slot if one is live, else deploy fresh.
  int dep = -1;
  for (int i = 0; i < netp->deployment_count() && dep < 0; ++i) {
    if (netp->deployment_live(i) &&
        netp->checker(i).name == "application_filtering") {
      dep = i;
    }
  }
  if (dep < 0) {
    dep = netp->deploy(compile_library_checker("application_filtering"));
  }
  net::Network& net = *netp;

  obs::SnapshotPublisher publisher;
  net.set_live_publisher(&publisher);
  std::unique_ptr<obs::HttpServer> server;
  try {
    server = std::make_unique<obs::HttpServer>(
        publisher, static_cast<std::uint16_t>(listen_port));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hydrad: %s\n", e.what());
    return 1;
  }

  aether::AetherController ctl(net, upf, dep);
  ctl.define_slice(aether::example_camera_slice(1));
  aether::SessionChurnGenerator::Config gc;
  gc.sessions = static_cast<std::uint32_t>(sessions);
  gc.churn_per_s = churn_per_s;
  gc.packets_per_s = packets_per_s;
  gc.slice_id = 1;
  gc.enb_host = fabric.hosts[0][0];
  gc.enb_ip = net.topo().node(fabric.hosts[0][0]).ip;
  gc.n3_ip = 0x0a0001fe;
  gc.app_ip = net.topo().node(fabric.hosts[1][0]).ip;
  gc.seed = seed;
  aether::SessionChurnGenerator gen(net, ctl, gc);
  gen.prefill();

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  std::printf("hydrad: listening on 127.0.0.1:%u (pid %d)\n",
              static_cast<unsigned>(server->port()),
              static_cast<int>(::getpid()));
  std::printf(
      "hydrad: sessions=%ld churn=%g/s packets=%g/s interval=%gs pace=%g\n",
      sessions, churn_per_s, packets_per_s, interval_s, pace);
  std::fflush(stdout);

  // ---- serve loop --------------------------------------------------------
  // Advance simulated time in export-interval slices, pacing sim seconds
  // against wall seconds; churn load is scheduled ahead in chunks so the
  // event queue never starves (which would stall export ticks).
  using clock = std::chrono::steady_clock;
  const double slice = interval_s;
  const double chunk =
      duration_s > 0.0 ? duration_s : std::max(0.5, 50.0 * interval_s);
  // A restore resumed the simulation clock; pace, schedule, and stop
  // relative to where the snapshot left off.
  const double sim_start = net.events().now();
  const double sim_stop = duration_s > 0.0 ? sim_start + duration_s : 0.0;
  double scheduled_until = sim_start;
  double target = sim_start;
  const auto wall_start = clock::now();
  while (!g_stop) {
    // Control-plane commands accepted by the HTTP thread since the last
    // slice: applied here, on the main loop, between drains — the
    // HTTP thread never touches simulator state.
    for (const obs::HttpServer::Command& cmd : server->drain_commands()) {
      try {
        if (cmd.kind == obs::HttpServer::Command::Kind::kDeploy) {
          const int slot =
              net.deploy_rolling(compile_library_checker(cmd.checker));
          std::printf("hydrad: rolling deploy of '%s' into slot %d (gen %u)\n",
                      cmd.checker.c_str(), slot,
                      net.deployment_generation(slot));
        } else if (cmd.deployment == dep) {
          // The churn control plane pushes policy into this slot on every
          // attach; retiring it would wedge the generator.
          std::fprintf(stderr,
                       "hydrad: refusing to undeploy slot %d (the churn "
                       "scenario's checker)\n",
                       cmd.deployment);
        } else {
          net.undeploy_rolling(cmd.deployment);
          std::printf("hydrad: rolling undeploy of slot %d\n",
                      cmd.deployment);
        }
        std::fflush(stdout);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "hydrad: control command failed: %s\n",
                     e.what());
      }
    }
    if (target + slice > scheduled_until &&
        (sim_stop <= 0.0 || scheduled_until < sim_stop)) {
      gen.start(scheduled_until, chunk);
      scheduled_until += chunk;
    }
    target += slice;
    net.events().run_until(target);
    if (sim_stop > 0.0 && target >= sim_stop) break;
    // Wall-clock pacing: sleep (in interruptible hops) until this slice's
    // wall deadline; fall behind silently if the machine is too slow.
    const auto deadline =
        wall_start + std::chrono::duration_cast<clock::duration>(
                         std::chrono::duration<double>((target - sim_start) /
                                                       pace));
    while (!g_stop && clock::now() < deadline) {
      const auto remain = deadline - clock::now();
      std::this_thread::sleep_for(
          std::min<clock::duration>(remain, std::chrono::milliseconds(50)));
    }
  }

  // ---- graceful shutdown -------------------------------------------------
  server->stop();
  // Quiesce any rolling swap sweep still in flight (its per-switch flips
  // are scheduled at or before the current virtual time) so the snapshot
  // captures a fully-swapped deployment set.
  if (net.swap_in_progress()) {
    net.events().run_until(net.events().now() + slice);
  }
  const std::string snap = net.full_snapshot();
  if (!snapshot_path.empty()) {
    if (!tools::write_text_file(snapshot_path, snap)) return 1;
    std::printf("hydrad: wrote snapshot %s (%zu bytes)\n",
                snapshot_path.c_str(), snap.size());
  }
  const auto& c = net.counters();
  std::printf(
      "hydrad: exiting at sim t=%.3fs — injected=%llu delivered=%llu "
      "rejected=%llu windows=%llu scrapes=%llu\n",
      net.events().now(), static_cast<unsigned long long>(c.injected),
      static_cast<unsigned long long>(c.delivered),
      static_cast<unsigned long long>(c.rejected),
      static_cast<unsigned long long>(net.export_scheduler_ptr()->captured()),
      static_cast<unsigned long long>(server->requests_served()));
  return 0;
}
