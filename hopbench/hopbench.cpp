// hopbench: the repository's benchmark.
//
// One invocation runs one named workload with one seed for a fixed wall
// budget and prints, as the last line of stdout, one JSON object:
//
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
//
//   $ hopbench --workload NAME --seed N [--seconds S] [--trace 0|1]
//              [--out PATH] [--spans PATH] [--perturb-expected N]
//
// --trace 0 reports the end-to-end metrics, measured with no
// instrumentation. --trace 1 reports the per-layer metrics, measured from
// outside: the benchmark times its own calls into each layer's public
// functions (run_until slices, a timing ForwardingProgram decorator, its
// own traffic generator, scrapes) and runs ladders of configurations that
// add one layer at a time. README.md beside this file defines every metric.
//
// Every run checks the simulation's outputs (packet accounting, exact
// checker verdict counts, scrape bodies, UPF table sizes) and exits 1 when
// a check fails. --perturb-expected adds N to every expected count, which
// must make the gate fail; the self-test uses it.
//
// The benchmark depends only on surfaces that survive the ROADMAP: the
// default serial engine, public Network/obs/aether APIs, and nothing from
// the execution-engine seam.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aether/churn.hpp"
#include "aether/controller.hpp"
#include "aether/slice.hpp"
#include "forwarding/ipv4_ecmp.hpp"
#include "forwarding/upf.hpp"
#include "hydra/hydra.hpp"
#include "net/network.hpp"
#include "obs/httpd.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

using namespace hydra;

namespace {

using Clock = std::chrono::steady_clock;
using Compiled = std::shared_ptr<const compiler::CompiledChecker>;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
std::int64_t nanos(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// ---- workload shape ---------------------------------------------------------
// Fabric workloads: the 16-switch leaf-spine of throughput's fabric_16sw
// anchor, minimum-size frames, Poisson arrivals over every ordered host pair
// with Zipf-popular source ports (so ECMP spreads flows unevenly, as real
// port popularity does).
constexpr int kLeaves = 8;
constexpr int kSpines = 8;
constexpr int kHostsPerLeaf = 2;
constexpr int kFrameBytes = 64;
constexpr int kPayloadBytes = kFrameBytes - 42;  // Ethernet + IPv4 + UDP
constexpr double kHostGbps = 1.0;  // offered per host; 13% of a host link
constexpr int kSportCount = 1024;
constexpr double kZipfExponent = 1.1;
constexpr std::uint16_t kSportBase = 10000;
constexpr std::uint16_t kDport = 5201;
// Unordered host pairs missing from stateful_firewall's `allowed` dict:
// 4 of 120 pairs, so ~3.3% of packets violate the firewall.
constexpr int kBlockedPairs = 4;
// Slices of simulated time between the benchmark's checks: ~2 ms of wall on
// fabric_bare at 32 us, ~2.5 ms on fabric_verify at 8 us.
constexpr double kBareSliceSim = 32e-6;
constexpr double kFabricSliceSim = 8e-6;
constexpr double kExportInterval = 32e-6;  // ~1000 packets per export tick
constexpr auto kScrapeThink = std::chrono::milliseconds(2);
// Every leaf-spine path is 1 (same leaf) or 3 switches, so hop_count_limit
// never fires at 4.
constexpr std::uint64_t kMaxHops = 4;

// The eight fabric_verify properties, in N-curve deploy order: n1 is the
// first one, n2 the first two (today's fabric_16sw anchor set), and so on.
const std::vector<std::string> kVerifyProperties = {
    "valley_free",
    "loops",
    "routing_validity",
    "egress_port_validity",
    "multi_tenancy",
    "stateful_firewall",
    "hop_count_limit",
    "dscp_unchanged",
};

// Aether: 2x2 leaf-spine, UPF on leaf 0, ~10^5 prefilled sessions, and
// attach/detach churn of the same order as the GTP-U uplink rate.
constexpr std::uint32_t kSessions = 100000;
constexpr double kChurnPerS = 50000.0;
constexpr double kUplinkPerS = 100000.0;
constexpr double kAetherSliceSim = 2e-3;
constexpr std::uint32_t kN3Ip = 0x0a0001fe;  // 10.0.1.254, on leaf 0

// Aether set-up is repeated back to back and its median reported (fabric
// set-up repeats before every measured interval instead, in batches).
constexpr int kAetherSetupReps = 5;
constexpr int kFabricSetupBatch = 4;
// One in 256 forwarding calls / generator ticks becomes a span; the timers
// themselves run on every call.
constexpr std::uint64_t kSpanSampleMask = 255;

enum class Workload { kFabricBare, kFabricVerify, kFabricLive, kAetherChurn };

struct WorkloadName {
  const char* name;
  Workload w;
};
constexpr WorkloadName kWorkloads[] = {
    {"fabric_bare", Workload::kFabricBare},
    {"fabric_verify", Workload::kFabricVerify},
    {"fabric_live", Workload::kFabricLive},
    {"aether_churn", Workload::kAetherChurn},
};

// ---- options ------------------------------------------------------------------

struct Options {
  std::string workload;
  Workload w = Workload::kFabricBare;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  std::string out_path;
  std::string spans_path;
  std::uint64_t perturb = 0;
};

void usage(std::FILE* f, const char* prog) {
  std::fprintf(
      f,
      "usage: %s --workload NAME --seed N [--seconds S] [--trace 0|1]\n"
      "          [--out PATH] [--spans PATH] [--perturb-expected N]\n"
      "\n"
      "  --workload          fabric_bare | fabric_verify | fabric_live |\n"
      "                      aether_churn\n"
      "  --seed              traffic / policy seed (unsigned integer)\n"
      "  --seconds           measured wall seconds (default 10)\n"
      "  --trace             0: end-to-end metrics; 1: per-layer metrics\n"
      "  --out               also write the full result JSON to PATH\n"
      "  --spans             write the traced run's spans (Chrome trace\n"
      "                      JSON) to PATH\n"
      "  --perturb-expected  add N to every expected count (gate self-test)\n"
      "\n"
      "The last stdout line is the result JSON; exit 1 when a correctness\n"
      "check fails, 2 on bad arguments.\n",
      prog);
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s[0] == '-' || s[0] == '+') return false;
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && p == end;
}

bool parse_seconds(const std::string& s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size() || !std::isfinite(v) ||
      v < 0.1 || v > 600.0) {
    return false;
  }
  *out = v;
  return true;
}

// Returns -1 to continue, else the exit code.
int parse_options(int argc, char** argv, Options* o) {
  const char* prog = argv[0];
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(stdout, prog);
      return 0;
    }
    std::string value;
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "%s: missing value for '%s'\n", prog, arg.c_str());
      usage(stderr, prog);
      return 2;
    }
    bool ok = true;
    if (arg == "--workload") {
      ok = false;
      for (const auto& wn : kWorkloads) {
        if (value == wn.name) {
          o->workload = value;
          o->w = wn.w;
          ok = true;
        }
      }
      have_workload = ok;
    } else if (arg == "--seed") {
      ok = parse_u64(value, &o->seed);
      have_seed = ok;
    } else if (arg == "--seconds") {
      ok = parse_seconds(value, &o->seconds);
    } else if (arg == "--trace") {
      ok = value == "0" || value == "1";
      o->trace = value == "1" ? 1 : 0;
    } else if (arg == "--out") {
      o->out_path = value;
      ok = !value.empty();
    } else if (arg == "--spans") {
      o->spans_path = value;
      ok = !value.empty();
    } else if (arg == "--perturb-expected") {
      ok = parse_u64(value, &o->perturb) && o->perturb <= 1000000;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", prog, arg.c_str());
      usage(stderr, prog);
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "%s: bad value '%s' for %s\n", prog,
                   value.c_str(), arg.c_str());
      usage(stderr, prog);
      return 2;
    }
  }
  if (!have_workload || !have_seed) {
    std::fprintf(stderr, "%s: --workload and --seed are required\n", prog);
    usage(stderr, prog);
    return 2;
  }
  return -1;
}

// ---- spans --------------------------------------------------------------------
// Spans are kept in memory and written out at the end. Ids are indices + 1;
// parent 0 is the root.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

  std::uint32_t begin(const char* name, std::uint32_t parent,
                      Clock::time_point t = Clock::now()) {
    if (!on_) return 0;
    spans_.push_back({name, nanos(epoch_, t), -1, parent, 0});
    return static_cast<std::uint32_t>(spans_.size());
  }
  void end(std::uint32_t id, Clock::time_point t = Clock::now()) {
    if (id != 0) spans_[id - 1].end_ns = nanos(epoch_, t);
  }
  std::uint32_t add(const char* name, Clock::time_point t0,
                    Clock::time_point t1, std::uint32_t parent, int tid = 0) {
    if (!on_) return 0;
    spans_.push_back({name, nanos(epoch_, t0), nanos(epoch_, t1), parent, tid});
    return static_cast<std::uint32_t>(spans_.size());
  }

  // Parent for spans recorded from inside the program's call stack (the
  // forwarding decorator, the generator): the run_until slice in progress.
  std::uint32_t current = 0;

  // Chrome trace-event JSON ("X" events; args carry id and parent).
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::int64_t end = s.end_ns < 0 ? s.start_ns : s.end_ns;
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %zu, \"parent\": %u}}\n",
                   i == 0 ? "" : ",", s.name, s.tid,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(end - s.start_ns) / 1e3, i + 1,
                   s.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t parent;
    int tid;
  };

  bool on_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// ---- forwarding layer, timed from outside -------------------------------------

struct FwdStats {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
};

// Decorator installed on every switch in traced runs: times each
// ForwardingProgram::process call and samples it as a span.
class TimedForwarding final : public net::ForwardingProgram {
 public:
  TimedForwarding(std::shared_ptr<net::ForwardingProgram> inner,
                  FwdStats& stats, Tracer& tracer)
      : inner_(std::move(inner)), stats_(stats), tracer_(tracer) {}

  Decision process(p4rt::Packet& pkt, int in_port, int switch_id) override {
    const auto t0 = Clock::now();
    const Decision d = inner_->process(pkt, in_port, switch_id);
    const auto t1 = Clock::now();
    stats_.ns += nanos(t0, t1);
    if ((stats_.calls++ & kSpanSampleMask) == 0) {
      tracer_.add("forwarding", t0, t1, tracer_.current);
    }
    return d;
  }
  std::string name() const override { return inner_->name(); }
  void attach_metrics(obs::Registry* registry) override {
    inner_->attach_metrics(registry);
  }

 private:
  std::shared_ptr<net::ForwardingProgram> inner_;
  FwdStats& stats_;
  Tracer& tracer_;
};

// ---- fabric traffic -----------------------------------------------------------
// The benchmark's own traffic source: one superposed Poisson process over
// every ordered host pair. Inputs depend only on the seed; the program sees
// only the packets.
class FabricTraffic final : public net::TickTarget {
 public:
  FabricTraffic(net::Network& net, const net::LeafSpine& fabric,
                std::uint64_t seed)
      : net_(net), rng_(seed) {
    for (std::size_t l = 0; l < fabric.hosts.size(); ++l) {
      for (const int h : fabric.hosts[l]) {
        hosts_.push_back({h, net.topo().node(h).ip, static_cast<int>(l)});
      }
    }
    const std::size_t n = hosts_.size();
    const double per_host_pps = kHostGbps * 1e9 / (kFrameBytes * 8.0);
    mean_gap_s_ = 1.0 / (per_host_pps * static_cast<double>(n));

    double total = 0.0;
    for (int k = 1; k <= kSportCount; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k), kZipfExponent);
      sport_cdf_.push_back(total);
    }
    for (double& c : sport_cdf_) c /= total;

    // The firewall policy comes from its own stream so the traffic is the
    // same whether or not stateful_firewall is deployed.
    Rng policy(seed ^ 0x9e3779b97f4a7c15ULL);
    blocked_.assign(n * n, 0);
    for (int b = 0; b < kBlockedPairs;) {
      const std::size_t s = policy.below(n);
      const std::size_t d = policy.below(n);
      if (s == d || blocked_[s * n + d] != 0) continue;
      blocked_[s * n + d] = blocked_[d * n + s] = 1;
      ++b;
    }
  }

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  void start() {
    stopped_ = false;
    net_.events().schedule_tick_in(0.0, this);
  }
  // The pending tick fires once more and returns without sending.
  void stop() { stopped_ = true; }

  void tick(net::SimTime) override {
    if (stopped_) return;
    const auto t0 = tracer_ != nullptr ? Clock::now() : Clock::time_point();
    const std::size_t n = hosts_.size();
    const std::size_t s = rng_.below(n);
    std::size_t d = rng_.below(n - 1);
    if (d >= s) ++d;
    const double u = rng_.uniform();
    const auto sport = static_cast<std::uint16_t>(
        kSportBase +
        (std::upper_bound(sport_cdf_.begin(), sport_cdf_.end() - 1, u) -
         sport_cdf_.begin()));
    const net::PacketHandle h = net_.alloc_packet();
    p4rt::make_udp_into(net_.packet(h), hosts_[s].ip, hosts_[d].ip, sport,
                        kDport, kPayloadBytes);
    ++sent_;
    hops_ += hosts_[s].leaf == hosts_[d].leaf ? 1 : 3;
    violating_ += blocked_[s * n + d];
    if (tracer_ != nullptr) {
      const auto t1 = Clock::now();
      gen_ns_ += nanos(t0, t1);
      if ((sent_ & kSpanSampleMask) == 0) {
        tracer_->add("generator", t0, t1, tracer_->current);
      }
    }
    net_.send_pooled(hosts_[s].node, h);
    net_.events().schedule_tick_in(rng_.exponential(mean_gap_s_), this);
  }

  struct HostInfo {
    int node;
    std::uint32_t ip;
    int leaf;
  };
  const std::vector<HostInfo>& hosts() const { return hosts_; }
  bool blocked(std::size_t s, std::size_t d) const {
    return blocked_[s * hosts_.size() + d] != 0;
  }

  std::uint64_t sent() const { return sent_; }
  std::uint64_t hops() const { return hops_; }
  std::uint64_t violating() const { return violating_; }
  std::int64_t gen_ns() const { return gen_ns_; }

 private:
  net::Network& net_;
  Rng rng_;
  std::vector<HostInfo> hosts_;
  std::vector<double> sport_cdf_;
  std::vector<std::uint8_t> blocked_;  // [src * n + dst], symmetric
  double mean_gap_s_ = 0.0;
  bool stopped_ = true;
  Tracer* tracer_ = nullptr;
  std::uint64_t sent_ = 0;
  std::uint64_t hops_ = 0;
  std::uint64_t violating_ = 0;
  std::int64_t gen_ns_ = 0;
};

// ---- closed-loop scrape client ------------------------------------------------

bool has_hydra_families(const std::string& body) {
  for (const char* family :
       {"hydra_switch_forwarded_total", "hydra_checker_rejects_total",
        "hydra_link_packets"}) {
    if (body.find(family) == std::string::npos) return false;
  }
  return true;
}

// One client thread: GET /metrics, check it, think, repeat.
class Scraper {
 public:
  explicit Scraper(std::uint16_t port)
      : port_(port), thread_([this] { loop(); }) {}
  ~Scraper() { stop(); }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

  // Read only after stop().
  const std::vector<std::pair<Clock::time_point, Clock::time_point>>& times()
      const {
    return times_;
  }
  std::uint64_t attempts() const { return times_.size(); }
  std::uint64_t failures() const { return failures_; }
  std::uint64_t bytes() const { return bytes_; }

 private:
  void loop() {
    try {
      std::string body;
      while (!stop_.load(std::memory_order_relaxed)) {
        int status = 0;
        body.clear();
        const auto t0 = Clock::now();
        const bool ok = obs::http_get(port_, "/metrics", &body, &status);
        const auto t1 = Clock::now();
        times_.emplace_back(t0, t1);
        bytes_ += body.size();
        if (!ok || status != 200 || !has_hydra_families(body)) ++failures_;
        std::this_thread::sleep_for(kScrapeThink);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "scraper: %s\n", e.what());
      ++failures_;
    }
  }

  std::uint16_t port_;
  std::atomic<bool> stop_{false};
  std::vector<std::pair<Clock::time_point, Clock::time_point>> times_;
  std::uint64_t failures_ = 0;
  std::uint64_t bytes_ = 0;
  std::thread thread_;  // last: the loop uses every member above
};

// ---- results ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> gate_failures;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) gate_failures.push_back(what);
  }
};

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, p) : "null";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Peak resident set of this process image, in MB. VmHWM, not getrusage's
// ru_maxrss, which keeps the high-water mark of the forked parent across
// exec.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb < 0 ? 0.0 : static_cast<double>(kb) / 1024.0;
}

// ---- scenarios ----------------------------------------------------------------

// Compiled checkers reused across the many short ladder runs of a traced
// invocation; set-up timing always compiles afresh instead.
class CheckerCache {
 public:
  Compiled get(const std::string& name) {
    auto it = by_name_.find(name);
    if (it == by_name_.end()) {
      it = by_name_.emplace(name, compile_library_checker(name)).first;
    }
    return it->second;
  }

 private:
  std::map<std::string, Compiled> by_name_;
};

Compiled compile_checker(const std::string& name, CheckerCache* cache) {
  return cache != nullptr ? cache->get(name) : compile_library_checker(name);
}

struct FabricConfig {
  std::vector<std::string> properties;
  bool obs = false;           // observability registry wired
  bool export_ticks = false;  // export scheduler armed (implies obs)
  bool live = false;          // live plane + snapshot publisher
  bool server = false;        // HTTP scrape server
  bool scrape = false;        // closed-loop client during the window
  double slice_sim = kFabricSliceSim;
};

FabricConfig workload_config(Workload w) {
  FabricConfig c;
  if (w == Workload::kFabricBare) c.slice_sim = kBareSliceSim;
  if (w == Workload::kFabricVerify) c.properties = kVerifyProperties;
  if (w == Workload::kFabricLive) {
    c.properties = {"valley_free", "loops"};
    c.obs = c.export_ticks = c.live = c.server = c.scrape = true;
  }
  return c;
}

// Counts taken through the obs layer's public callbacks.
struct LiveCounts {
  std::uint64_t ticks = 0;
  std::uint64_t publishes = 0;
};

// Member order is teardown order in reverse: the scrape server stops first,
// the publisher (borrowed by the network) goes last.
struct FabricScenario {
  net::LeafSpine fabric;
  std::unique_ptr<obs::SnapshotPublisher> publisher;
  std::unique_ptr<net::Network> net;
  std::shared_ptr<fwd::Ipv4EcmpProgram> routing;
  std::unique_ptr<FabricTraffic> gen;
  std::unique_ptr<obs::HttpServer> server;
  bool firewall = false;
};

void deploy_property(FabricScenario& sc, const std::string& name,
                     const Compiled& checker) {
  net::Network& net = *sc.net;
  const int dep = net.deploy(checker);
  if (name == "valley_free") {
    configure_valley_free(net, dep, sc.fabric);
  } else if (name == "routing_validity") {
    configure_routing_validity(net, dep, sc.fabric);
  } else if (name == "egress_port_validity") {
    configure_egress_port_validity(net, dep);
  } else if (name == "multi_tenancy") {
    std::map<std::pair<int, int>, std::uint8_t> tenants;
    for (const int leaf : sc.fabric.leaves) {
      for (int h = 0; h < sc.fabric.hosts_per_leaf; ++h) {
        tenants[{leaf, sc.fabric.leaf_host_port(h)}] = 1;
      }
    }
    configure_multi_tenancy(net, dep, tenants);
  } else if (name == "stateful_firewall") {
    sc.firewall = true;
    const auto& hosts = sc.gen->hosts();
    for (std::size_t s = 0; s < hosts.size(); ++s) {
      for (std::size_t d = 0; d < hosts.size(); ++d) {
        if (s == d || sc.gen->blocked(s, d)) continue;
        net.dict_insert_all(dep, "allowed",
                            {BitVec(32, hosts[s].ip), BitVec(32, hosts[d].ip)},
                            {BitVec::from_bool(true)});
      }
    }
  } else if (name == "hop_count_limit") {
    net.set_config_all(dep, "max_hops", {BitVec(8, kMaxHops)});
  }
}

std::unique_ptr<FabricScenario> build_fabric(const FabricConfig& cfg,
                                             std::uint64_t seed,
                                             CheckerCache* cache, Tracer& tr,
                                             std::uint32_t parent,
                                             LiveCounts* counts = nullptr) {
  auto sc = std::make_unique<FabricScenario>();
  std::uint32_t span = tr.begin("setup.compile", parent);
  std::vector<Compiled> checkers;
  for (const auto& p : cfg.properties) {
    checkers.push_back(compile_checker(p, cache));
  }
  tr.end(span);

  span = tr.begin("setup.build", parent);
  sc->fabric = net::make_leaf_spine(kLeaves, kSpines, kHostsPerLeaf);
  sc->publisher = std::make_unique<obs::SnapshotPublisher>();
  sc->net = std::make_unique<net::Network>(sc->fabric.topo);
  sc->routing = fwd::install_leaf_spine_routing(*sc->net, sc->fabric);
  sc->gen = std::make_unique<FabricTraffic>(*sc->net, sc->fabric, seed);
  tr.end(span);

  span = tr.begin("setup.deploy", parent);
  for (std::size_t i = 0; i < checkers.size(); ++i) {
    deploy_property(*sc, cfg.properties[i], checkers[i]);
  }
  tr.end(span);

  span = tr.begin("setup.obs", parent);
  net::Network& net = *sc->net;
  if (cfg.export_ticks) {
    net.set_export_interval(kExportInterval);
  } else if (cfg.obs) {
    net.set_observability(true);
  }
  if (cfg.live) {
    net.arm_live_obs({});
    net.set_live_publisher(sc->publisher.get());
  }
  if (counts != nullptr && cfg.export_ticks) {
    net.set_export_callback(
        [counts](const obs::WindowSample&) { ++counts->ticks; });
    sc->publisher->set_on_publish(
        [counts](const obs::LiveSnapshot&) { ++counts->publishes; });
  }
  if (cfg.server) {
    sc->server = std::make_unique<obs::HttpServer>(*sc->publisher, 0);
  }
  tr.end(span);
  return sc;
}

// Member order as in FabricScenario: the generator (which unregisters from
// the network in its destructor) and the controller go before the network.
struct AetherScenario {
  net::LeafSpine fabric;
  std::unique_ptr<net::Network> net;
  std::shared_ptr<fwd::Ipv4EcmpProgram> routing;
  std::shared_ptr<fwd::UpfProgram> upf;
  std::unique_ptr<aether::AetherController> ctl;
  std::unique_ptr<aether::SessionChurnGenerator> gen;
  std::size_t rules = 0;
  double prefill_s = 0.0;
};

std::unique_ptr<AetherScenario> build_aether(std::uint64_t seed,
                                             CheckerCache* cache, Tracer& tr,
                                             std::uint32_t parent,
                                             bool observability = false) {
  auto sc = std::make_unique<AetherScenario>();
  std::uint32_t span = tr.begin("setup.compile", parent);
  const Compiled checker = compile_checker("application_filtering", cache);
  tr.end(span);

  span = tr.begin("setup.build", parent);
  sc->fabric = net::make_leaf_spine(2, 2, 2);
  sc->net = std::make_unique<net::Network>(sc->fabric.topo);
  net::Network& net = *sc->net;
  sc->routing = fwd::install_leaf_spine_routing(net, sc->fabric);
  sc->upf = std::make_shared<fwd::UpfProgram>(sc->routing);
  net.set_program(sc->fabric.leaves[0], sc->upf);
  tr.end(span);

  span = tr.begin("setup.deploy", parent);
  const int dep = net.deploy(checker);
  if (observability) net.set_observability(true);
  sc->ctl = std::make_unique<aether::AetherController>(net, sc->upf, dep);
  const aether::Slice slice = aether::example_camera_slice(1);
  sc->rules = slice.rules.size();
  sc->ctl->define_slice(slice);
  aether::SessionChurnGenerator::Config gc;
  gc.sessions = kSessions;
  gc.churn_per_s = kChurnPerS;
  gc.packets_per_s = kUplinkPerS;
  gc.slice_id = 1;
  gc.enb_host = sc->fabric.hosts[0][0];
  gc.enb_ip = net.topo().node(gc.enb_host).ip;
  gc.n3_ip = kN3Ip;
  gc.app_ip = net.topo().node(sc->fabric.hosts[1][0]).ip;
  gc.seed = seed;
  sc->gen = std::make_unique<aether::SessionChurnGenerator>(net, *sc->ctl, gc);
  tr.end(span);

  span = tr.begin("setup.prefill", parent);
  const auto t0 = Clock::now();
  sc->gen->prefill();
  sc->prefill_s = secs(t0, Clock::now());
  tr.end(span);
  return sc;
}

// ---- measurement windows ------------------------------------------------------

// Work the program has completed so far, read between slices.
struct Progress {
  std::uint64_t hops = 0;
  std::size_t ops = 0;  // latency samples recorded so far (aether attaches)
};

// A shared machine only ever slows a run down, in bursts that last seconds
// and, under heavy load, cover most of a run (other tenants of the host).
// The measured window therefore runs as intervals of kIntervalS wall
// seconds, and rates, latencies and set-up times come from the fastest
// 1/kKeepShare of them (by hops per wall second): an estimate of the
// undisturbed program that a few quiet seconds anywhere in the run suffice
// for. A change that slows the program slows every interval, so it shows in
// full.
constexpr double kIntervalS = 0.1;
constexpr std::size_t kKeepShare = 10;
// Slices per wall second the log reserves room for (0.25 ms slices).
constexpr double kMaxSlicesPerS = 4000.0;

// One measured interval: its slices' total wall time and work, and where its
// slice durations and the workload's latency samples lie.
struct Interval {
  Clock::time_point begin;  // first slice's start
  Clock::time_point end;    // last slice's end
  double wall_s = 0.0;      // sum of its slices' wall times
  std::uint64_t hops = 0;
  std::size_t slice_begin = 0;  // its slices in WindowLog::slice_s
  std::size_t slice_end = 0;
  std::size_t ops_begin = 0;  // its latency samples (Progress::ops)
  std::size_t ops_end = 0;
};

// Eight bytes per slice, reserved up front: the log's own memory must not
// move rss_peak_mb with the run's speed (a reallocation would add a
// transient copy whenever the slice count crossed a power of two).
struct WindowLog {
  std::vector<Interval> intervals;
  std::vector<double> slice_s;  // wall time of every logged slice
  std::vector<double> setup_s;  // set-up repetition before each interval
  std::size_t pending_max = 0;  // events().pending() between slices

  void reserve(double seconds) {
    intervals.reserve(static_cast<std::size_t>(seconds / kIntervalS) + 1);
    slice_s.reserve(static_cast<std::size_t>(seconds * kMaxSlicesPerS));
    setup_s.reserve(intervals.capacity());
  }
};

// Runs fixed virtual-time slices until `budget_s` of wall time has passed
// (at least one slice), appending them to `log` when given. `progress`
// reads the workload's completed work.
template <typename ProgressFn>
void run_slices(net::Network& net, double slice_sim, double budget_s,
                Tracer& tr, std::uint32_t parent, WindowLog* log,
                const ProgressFn& progress) {
  const auto start = Clock::now();
  Clock::time_point t1;
  do {
    const Progress before = log != nullptr ? progress() : Progress{};
    const auto t0 = Clock::now();
    const std::uint32_t span = tr.begin("slice", parent, t0);
    tr.current = span;
    net.events().run_until(net.events().now() + slice_sim);
    t1 = Clock::now();
    tr.end(span, t1);
    tr.current = parent;
    net.clear_reports();  // counted through subscribe_reports
    if (log != nullptr) {
      const Progress after = progress();
      Interval& iv = log->intervals.back();
      if (iv.slice_end == iv.slice_begin) {
        iv.begin = t0;
        iv.ops_begin = before.ops;
      }
      iv.end = t1;
      iv.wall_s += secs(t0, t1);
      iv.hops += after.hops - before.hops;
      iv.ops_end = after.ops;
      log->slice_s.push_back(secs(t0, t1));
      iv.slice_end = log->slice_s.size();
      log->pending_max = std::max(log->pending_max, net.events().pending());
    }
  } while (secs(start, t1) < budget_s);
}

// The measured window: intervals of kIntervalS until `seconds` have
// passed. Before each interval `between` runs, then one unlogged slice
// re-warms the caches it may have evicted.
template <typename ProgressFn, typename BetweenFn>
void run_intervals(net::Network& net, double slice_sim, double seconds,
                   Tracer& tr, std::uint32_t parent, WindowLog& log,
                   const ProgressFn& progress, const BetweenFn& between) {
  log.reserve(seconds);
  const auto start = Clock::now();
  do {
    between();
    run_slices(net, slice_sim, 0.0, tr, parent, nullptr, progress);
    Interval iv;
    iv.slice_begin = iv.slice_end = log.slice_s.size();
    log.intervals.push_back(iv);
    run_slices(net, slice_sim, kIntervalS, tr, parent, &log, progress);
  } while (secs(start, Clock::now()) < seconds);
}

struct CleanWindow {
  double hops_per_s = 0.0;
  std::vector<std::size_t> intervals;  // the fastest share, in time order
};

CleanWindow clean_window(const WindowLog& log) {
  const std::size_t n = log.intervals.size();
  std::vector<double> hops(n, 0.0);
  std::vector<double> wall(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    hops[k] = static_cast<double>(log.intervals[k].hops);
    wall[k] = log.intervals[k].wall_s;
  }
  CleanWindow clean;
  clean.intervals.resize(n);
  for (std::size_t k = 0; k < n; ++k) clean.intervals[k] = k;
  std::sort(clean.intervals.begin(), clean.intervals.end(),
            [&](std::size_t a, std::size_t b) {
              return hops[a] * wall[b] > hops[b] * wall[a];
            });
  clean.intervals.resize((n + kKeepShare - 1) / kKeepShare);
  std::sort(clean.intervals.begin(), clean.intervals.end());
  double h = 0.0;
  double w = 0.0;
  for (const std::size_t k : clean.intervals) {
    h += hops[k];
    w += wall[k];
  }
  clean.hops_per_s = w > 0 ? h / w : 0.0;
  return clean;
}

double warmup_seconds(double seconds) { return std::min(0.5, 0.1 * seconds); }

struct FabricWindow {
  double wall_s = 0.0;  // measured window, drain included
  std::uint64_t hops = 0;
  std::uint64_t packets = 0;
  // From the window's fastest share (see clean_window): the rate, the unit
  // operation's latencies (slices, or scrapes when scraping) and the
  // set-up repetitions that preceded those intervals.
  double clean_hops_per_s = 0.0;
  std::vector<double> op_s;
  std::vector<double> setup_s;
  std::uint64_t reports = 0;  // whole run
  WindowLog log;
  std::uint64_t arena_slabs = 0;
  std::uint64_t scrape_attempts = 0;
  std::uint64_t scrape_failures = 0;
  std::uint64_t scrape_bytes = 0;
  std::uint64_t requests_served = 0;
  FwdStats fwd;             // forwarding calls/time inside the window
  std::int64_t gen_ns = 0;  // generator time inside the window
};

// Warm-up, then `seconds` of measured traffic, then a drain that empties the
// network (part of the measured window). `fwd`, when given, is the traced
// decorator's running total; `setup_rep`, when given, times one set-up
// repetition before each interval.
FabricWindow fabric_window(FabricScenario& sc, const FabricConfig& cfg,
                           double seconds, Tracer& tr, std::uint32_t parent,
                           const FwdStats* fwd = nullptr,
                           const std::function<double()>& setup_rep = {}) {
  FabricWindow w;
  net::Network& net = *sc.net;
  net.subscribe_reports([&w](const net::ReportRecord&) { ++w.reports; });
  sc.gen->start();
  const std::uint32_t warm = tr.begin("warmup", parent);
  const auto progress = [&sc] { return Progress{sc.gen->hops(), 0}; };
  run_slices(net, cfg.slice_sim, warmup_seconds(seconds), tr, warm, nullptr,
             progress);
  // The scraper must find a published snapshot from its first request.
  while (cfg.live && sc.publisher->epoch() == 0) {
    run_slices(net, cfg.slice_sim, 0.0, tr, warm, nullptr, progress);
  }
  tr.end(warm);

  const std::uint64_t hops0 = sc.gen->hops();
  const std::uint64_t sent0 = sc.gen->sent();
  const std::uint64_t arena0 = util::arena_allocations();
  const FwdStats fwd0 = fwd != nullptr ? *fwd : FwdStats{};
  const std::int64_t gen0 = sc.gen->gen_ns();
  std::unique_ptr<Scraper> scraper;
  if (cfg.scrape) scraper = std::make_unique<Scraper>(sc.server->port());
  const auto t0 = Clock::now();
  const std::uint32_t window = tr.begin("window", parent, t0);
  run_intervals(net, cfg.slice_sim, seconds, tr, window, w.log, progress,
                [&] {
                  if (setup_rep) w.log.setup_s.push_back(setup_rep());
                });
  sc.gen->stop();
  const std::uint32_t drain = tr.begin("drain", window);
  net.events().run();
  tr.end(drain);
  const auto t1 = Clock::now();
  tr.end(window, t1);
  w.arena_slabs = util::arena_allocations() - arena0;
  w.wall_s = secs(t0, t1);
  w.hops = sc.gen->hops() - hops0;
  w.packets = sc.gen->sent() - sent0;
  if (fwd != nullptr) w.fwd = {fwd->calls - fwd0.calls, fwd->ns - fwd0.ns};
  w.gen_ns = sc.gen->gen_ns() - gen0;

  const CleanWindow clean = clean_window(w.log);
  w.clean_hops_per_s = clean.hops_per_s;
  for (const std::size_t k : clean.intervals) {
    if (!w.log.setup_s.empty()) w.setup_s.push_back(w.log.setup_s[k]);
    if (scraper != nullptr) continue;
    const Interval& iv = w.log.intervals[k];
    const auto slices = w.log.slice_s.begin();
    w.op_s.insert(w.op_s.end(),
                  slices + static_cast<std::ptrdiff_t>(iv.slice_begin),
                  slices + static_cast<std::ptrdiff_t>(iv.slice_end));
  }
  if (scraper != nullptr) {
    scraper->stop();
    sc.server->stop();
    // A scrape belongs to the interval in which it started.
    std::size_t r = 0;
    for (const auto& [s0, s1] : scraper->times()) {
      tr.add("scrape", s0, s1, window, 1);
      while (r < clean.intervals.size() &&
             s0 >= w.log.intervals[clean.intervals[r]].end) {
        ++r;
      }
      if (r < clean.intervals.size() &&
          s0 >= w.log.intervals[clean.intervals[r]].begin) {
        w.op_s.push_back(secs(s0, s1));
      }
    }
    w.scrape_attempts = scraper->attempts();
    w.scrape_failures = scraper->failures();
    w.scrape_bytes = scraper->bytes();
    w.requests_served = sc.server->requests_served();
  }
  net.clear_report_subscribers();
  return w;
}

// Packet accounting and exact verdict counts over the whole run (warm-up
// included). Returns the number of failed packets.
std::uint64_t check_fabric(const FabricScenario& sc, const FabricWindow& w,
                           std::uint64_t perturb, const std::string& label,
                           Outcome& out) {
  const auto& c = sc.net->counters();
  const std::uint64_t sent = sc.gen->sent();
  const std::uint64_t violating = sc.firewall ? sc.gen->violating() : 0;
  const std::uint64_t expected_rejects = violating + perturb;
  out.check(sc.net->packets_in_flight() == 0,
            label + ": packets still in flight after drain");
  out.check(c.injected == sent,
            label + ": injected " + std::to_string(c.injected) +
                " != generated " + std::to_string(sent));
  out.check(c.delivered + c.rejected + c.fwd_dropped + c.queue_dropped +
                    c.fault_dropped ==
                sent,
            label + ": packet accounting does not close");
  out.check(c.rejected == expected_rejects,
            label + ": checker rejects " + std::to_string(c.rejected) +
                " != firewall-violating packets " +
                std::to_string(expected_rejects));
  out.check(w.reports == expected_rejects,
            label + ": checker reports " + std::to_string(w.reports) +
                " != " + std::to_string(expected_rejects));
  out.check(c.delivered + expected_rejects == sent,
            label + ": delivered " + std::to_string(c.delivered) +
                " != every non-violating packet");
  out.check(w.scrape_failures == 0,
            label + ": " + std::to_string(w.scrape_failures) +
                " scrape(s) not a 200 with the hydra_ families");
  out.check(w.requests_served == w.scrape_attempts,
            label + ": server served " + std::to_string(w.requests_served) +
                " of " + std::to_string(w.scrape_attempts) + " requests");
  const std::uint64_t wrong_verdicts =
      c.rejected > violating ? c.rejected - violating : violating - c.rejected;
  return c.fwd_dropped + c.queue_dropped + c.fault_dropped + wrong_verdicts;
}

struct AetherWindow {
  double wall_s = 0.0;
  std::uint64_t hops = 0;
  std::uint64_t packets = 0;
  double clean_hops_per_s = 0.0;  // as in FabricWindow
  std::vector<double> op_s;       // churn attaches in the fastest share
  std::uint64_t reports = 0;
  WindowLog log;
  std::uint64_t arena_slabs = 0;
  std::vector<double> attach_s;  // churn attaches inside the window
  std::uint64_t attaches = 0;    // every churn attach (warm-up included)
  FwdStats fwd;
};

std::uint64_t aether_hops(const net::Network::Counters& c) {
  // Uplinks cross leaf 0 -> spine -> leaf 1; a UPF drop ends at leaf 0.
  return 3 * (c.delivered + c.rejected) + c.fwd_dropped;
}

AetherWindow aether_window(AetherScenario& sc, double seconds, Tracer& tr,
                           std::uint32_t parent,
                           const FwdStats* fwd = nullptr) {
  AetherWindow w;
  net::Network& net = *sc.net;
  aether::SessionChurnGenerator& gen = *sc.gen;
  net.subscribe_reports([&w](const net::ReportRecord&) { ++w.reports; });
  const std::uint64_t attaches0 = gen.attaches();
  gen.start(net.events().now(), 1e9);
  const auto progress = [&net, &gen] {
    return Progress{aether_hops(net.counters()),
                    gen.attach_latencies().size()};
  };
  const std::uint32_t warm = tr.begin("warmup", parent);
  run_slices(net, kAetherSliceSim, warmup_seconds(seconds), tr, warm,
             nullptr, progress);
  tr.end(warm);

  const std::uint64_t hops0 = aether_hops(net.counters());
  const std::uint64_t sent0 = gen.packets_sent();
  const std::size_t lat0 = gen.attach_latencies().size();
  const std::uint64_t arena0 = util::arena_allocations();
  const FwdStats fwd0 = fwd != nullptr ? *fwd : FwdStats{};
  const auto t0 = Clock::now();
  const std::uint32_t window = tr.begin("window", parent, t0);
  run_intervals(net, kAetherSliceSim, seconds, tr, window, w.log, progress,
                [] {});
  const std::size_t lat1 = gen.attach_latencies().size();
  gen.start(net.events().now(), 0.0);  // ends the churn process
  const std::uint32_t drain = tr.begin("drain", window);
  net.events().run();
  tr.end(drain);
  const auto t1 = Clock::now();
  tr.end(window, t1);
  w.arena_slabs = util::arena_allocations() - arena0;
  w.wall_s = secs(t0, t1);
  w.hops = aether_hops(net.counters()) - hops0;
  w.packets = gen.packets_sent() - sent0;
  const auto& lat = gen.attach_latencies();
  w.attach_s.assign(lat.begin() + static_cast<std::ptrdiff_t>(lat0),
                    lat.begin() + static_cast<std::ptrdiff_t>(lat1));
  w.attaches = gen.attaches() - attaches0;
  if (fwd != nullptr) w.fwd = {fwd->calls - fwd0.calls, fwd->ns - fwd0.ns};

  const CleanWindow clean = clean_window(w.log);
  w.clean_hops_per_s = clean.hops_per_s;
  for (const std::size_t k : clean.intervals) {
    const Interval& iv = w.log.intervals[k];
    w.op_s.insert(w.op_s.end(),
                  lat.begin() + static_cast<std::ptrdiff_t>(iv.ops_begin),
                  lat.begin() + static_cast<std::ptrdiff_t>(iv.ops_end));
  }
  net.clear_report_subscribers();
  return w;
}

std::uint64_t check_aether(const AetherScenario& sc, const AetherWindow& w,
                           std::uint64_t perturb, const std::string& label,
                           Outcome& out) {
  const auto& c = sc.net->counters();
  const std::uint64_t sent = sc.gen->packets_sent();
  out.check(sc.net->packets_in_flight() == 0,
            label + ": packets still in flight after drain");
  out.check(c.delivered + c.rejected + c.fwd_dropped + c.queue_dropped +
                    c.fault_dropped ==
                sent + perturb,
            label + ": packet accounting does not close (sent " +
                std::to_string(sent) + ", delivered " +
                std::to_string(c.delivered) + ")");
  out.check(c.rejected == 0 && w.reports == 0,
            label + ": application_filtering raised " +
                std::to_string(c.rejected) + " reject(s) and " +
                std::to_string(w.reports) + " report(s)");
  out.check(sc.upf->application_entries() == sc.rules + perturb,
            label + ": UPF holds " +
                std::to_string(sc.upf->application_entries()) +
                " shared Applications entries, slice has " +
                std::to_string(sc.rules + perturb) + " rules");
  // A packet whose session detached while it was on the eNB link misses
  // the Sessions table: correct UPF behaviour, and the only drop allowed.
  out.check(c.fwd_dropped == sc.upf->session_miss_drops() &&
                sc.upf->termination_drops() == 0,
            label + ": UPF dropped packets of attached sessions");
  out.check(c.queue_dropped + c.fault_dropped == 0,
            label + ": queue or fault drops");
  return c.rejected + c.queue_dropped + c.fault_dropped +
         sc.upf->termination_drops() + c.fwd_dropped -
         std::min(c.fwd_dropped, sc.upf->session_miss_drops());
}

// ---- end-to-end run (--trace 0) -----------------------------------------------

void e2e_common(Outcome& out, double hops_per_s,
                const std::vector<double>& setup_s,
                const std::vector<double>& op_s) {
  out.metric("hops_per_s", hops_per_s, "hops/s");
  out.metric("setup_s", median(setup_s), "s");
  out.metric("rss_peak_mb", peak_rss_mb(), "MB");
  // No tail percentile: on the fabric workloads the operation is a
  // simulation slice, and the slices' tail measures the host, not the
  // program. Under host load p90 rose 49% where p50 rose 23%; even in a
  // quiet period p99 read 2.2-3.1 ms between seeds whose p50 agreed
  // within 3%.
  out.metric("op_p50_us", median(op_s) * 1e6, "us");
}

Outcome run_e2e(const Options& o) {
  Outcome out;
  Tracer off(false);
  if (o.w == Workload::kAetherChurn) {
    // Each set-up holds ~10^5 sessions, so repetitions run back to back
    // before the window rather than beside the measured scenario.
    std::vector<double> setup_s;
    std::unique_ptr<AetherScenario> sc;
    for (int k = 0; k < kAetherSetupReps; ++k) {
      sc.reset();
      const auto t0 = Clock::now();
      sc = build_aether(o.seed, nullptr, off, 0);
      setup_s.push_back(secs(t0, Clock::now()));
    }
    const AetherWindow w = aether_window(*sc, o.seconds, off, 0);
    out.failed = check_aether(*sc, w, o.perturb, o.workload, out);
    out.attempted = sc->gen->packets_sent() + w.attaches;
    e2e_common(out, w.clean_hops_per_s, setup_s, w.op_s);
    return out;
  }
  const FabricConfig cfg = workload_config(o.w);
  auto sc = build_fabric(cfg, o.seed, nullptr, off, 0);
  // Fabric set-up takes microseconds to milliseconds; repeating it before
  // every interval spreads the repetitions over the run like the rate. One
  // repetition is the mean of kFabricSetupBatch set-ups in a row: a single
  // set-up right after an interval of traffic read 80-180 us on fabric_bare,
  // depending on what the interval left in the caches.
  const auto setup_rep = [&] {
    double total = 0.0;
    for (int i = 0; i < kFabricSetupBatch; ++i) {
      const auto t0 = Clock::now();
      const auto rep = build_fabric(cfg, o.seed, nullptr, off, 0);
      total += secs(t0, Clock::now());
    }
    return total / kFabricSetupBatch;
  };
  const FabricWindow w =
      fabric_window(*sc, cfg, o.seconds, off, 0, nullptr, setup_rep);
  out.failed = check_fabric(*sc, w, o.perturb, o.workload, out) +
               w.scrape_failures;
  out.attempted = sc->gen->sent() + w.scrape_attempts;
  e2e_common(out, w.clean_hops_per_s, w.setup_s, w.op_s);
  return out;
}

// ---- traced run (--trace 1) ---------------------------------------------------

double ns_per(double total_s, std::uint64_t count) {
  return count > 0 ? total_s * 1e9 / static_cast<double>(count) : 0.0;
}

// Sums of the registry's counters, read through the public visitor.
struct RegistryCounts {
  std::uint64_t instructions = 0;
  std::uint64_t lookups = 0;  // hits + misses over every p4rt::Table
  std::uint64_t cache_hits = 0;
};

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

RegistryCounts registry_counts(net::Network& net) {
  RegistryCounts rc;
  net.metrics().visit([&rc](const obs::Registry::MetricView& m) {
    if (m.kind != obs::MetricKind::kCounter) return;
    if (m.name.rfind("p4rt.interp.", 0) == 0 &&
        ends_with(m.name, ".instructions")) {
      rc.instructions += m.counter_value;
    } else if (ends_with(m.name, ".cache_hits")) {
      rc.cache_hits += m.counter_value;
    } else if (ends_with(m.name, ".hits") || ends_with(m.name, ".misses")) {
      rc.lookups += m.counter_value;
    }
  });
  return rc;
}

// ns per hop of one fabric configuration, untraced, for a ladder rung.
// Also gates the rung's packet accounting.
double fabric_rung(const FabricConfig& cfg, const Options& o,
                   CheckerCache& cache, double seconds, const std::string& label,
                   Outcome& out, LiveCounts* counts = nullptr,
                   FabricWindow* window = nullptr) {
  Tracer off(false);
  auto sc = build_fabric(cfg, o.seed, &cache, off, 0, counts);
  FabricWindow w = fabric_window(*sc, cfg, seconds, off, 0);
  check_fabric(*sc, w, 0, label, out);
  const double ns = w.clean_hops_per_s > 0 ? 1e9 / w.clean_hops_per_s : 0.0;
  if (window != nullptr) *window = std::move(w);
  return ns;
}

// Runs every rung `rounds` times, interleaved so a burst of machine noise
// spreads over all rungs; returns each rung's median ns/hop.
std::vector<double> run_ladder(const std::vector<FabricConfig>& rungs,
                               const Options& o, CheckerCache& cache,
                               double budget_s, const char* label,
                               Outcome& out, Tracer& tr,
                               std::uint32_t parent,
                               LiveCounts* last_counts = nullptr,
                               FabricWindow* last_window = nullptr) {
  constexpr int kRounds = 3;
  const double per_rung =
      budget_s / static_cast<double>(kRounds * rungs.size());
  std::vector<std::vector<double>> samples(rungs.size());
  const std::uint32_t span = tr.begin(label, parent);
  for (int r = 0; r < kRounds; ++r) {
    for (std::size_t i = 0; i < rungs.size(); ++i) {
      const bool last = i + 1 == rungs.size() && r + 1 == kRounds;
      const auto t0 = Clock::now();
      samples[i].push_back(fabric_rung(
          rungs[i], o, cache, per_rung,
          std::string(label) + "[" + std::to_string(i) + "]", out,
          last ? last_counts : nullptr, last ? last_window : nullptr));
      tr.add("rung", t0, Clock::now(), span);
    }
  }
  tr.end(span);
  std::vector<double> med;
  for (const auto& s : samples) med.push_back(median(s));
  return med;
}

Outcome run_traced(const Options& o) {
  Outcome out;
  Tracer tr(true);
  CheckerCache cache;
  const double B = o.seconds;
  const bool is_aether = o.w == Workload::kAetherChurn;
  const FabricConfig own_cfg = workload_config(o.w);
  const std::uint32_t root = tr.begin("traced_run", 0);

  // 1. The workload untraced: the reference for trace overhead.
  double untraced_hops_per_s = 0.0;
  {
    Tracer off(false);
    if (is_aether) {
      auto sc = build_aether(o.seed, &cache, off, 0);
      const AetherWindow w = aether_window(*sc, 0.2 * B, off, 0);
      check_aether(*sc, w, o.perturb, o.workload + "/untraced", out);
      untraced_hops_per_s = w.clean_hops_per_s;
    } else {
      auto sc = build_fabric(own_cfg, o.seed, &cache, off, 0);
      const FabricWindow w = fabric_window(*sc, own_cfg, 0.2 * B, off, 0);
      check_fabric(*sc, w, o.perturb, o.workload + "/untraced", out);
      untraced_hops_per_s = w.clean_hops_per_s;
    }
  }

  // 2. The workload traced: spans at every boundary the benchmark calls,
  //    the forwarding decorator on every switch, the generator timed.
  FwdStats fwd;
  double wall_s = 0.0;   // measured window, drain included
  double gen_s = 0.0;    // generator time inside the window
  double attach_s = 0.0; // controller attach time inside the window
  std::uint64_t hops = 0;
  std::uint64_t packets = 0;
  double traced_hops_per_s = 0.0;
  FwdStats window_fwd;
  const std::uint32_t own = tr.begin("workload", root);
  const std::uint32_t setup = tr.begin("setup", own);
  auto layer_counts = [&out](const WindowLog& slices,
                             const net::Network::Counters& c,
                             std::uint64_t reports, std::uint64_t slabs) {
    out.metric("net.pending_max", static_cast<double>(slices.pending_max),
               "count");
    out.metric("net.queue_drops", static_cast<double>(c.queue_dropped),
               "count");
    out.metric("checker.rejects", static_cast<double>(c.rejected), "count");
    out.metric("checker.reports", static_cast<double>(reports), "count");
    out.metric("util.arena_slabs", static_cast<double>(slabs), "count");
  };
  if (is_aether) {
    auto sc = build_aether(o.seed, nullptr, tr, setup);
    tr.end(setup);
    auto timed_upf = std::make_shared<TimedForwarding>(sc->upf, fwd, tr);
    auto timed_router =
        std::make_shared<TimedForwarding>(sc->routing, fwd, tr);
    sc->net->set_program(sc->fabric.leaves[0], timed_upf);
    sc->net->set_program(sc->fabric.leaves[1], timed_router);
    for (const int sw : sc->fabric.spines) {
      sc->net->set_program(sw, timed_router);
    }
    const AetherWindow w = aether_window(*sc, 0.2 * B, tr, own, &fwd);
    out.failed += check_aether(*sc, w, o.perturb, o.workload, out);
    out.attempted += sc->gen->packets_sent() + w.attaches;
    wall_s = w.wall_s;
    traced_hops_per_s = w.clean_hops_per_s;
    hops = w.hops;
    packets = w.packets;
    window_fwd = w.fwd;
    for (const double s : w.attach_s) attach_s += s;
    layer_counts(w.log, sc->net->counters(), w.reports, w.arena_slabs);
    out.metric("aether.prefill_s", sc->prefill_s, "s");
    out.metric("aether.attach_s_total", attach_s, "s");
    out.metric("aether.app_entries",
               static_cast<double>(sc->upf->application_entries()), "count");
    // The churn generator belongs to the program, so its packet building
    // cannot be timed in place; time the same work on the side: the
    // generator's draws, a pooled alloc and the in-place GTP-U build.
    constexpr int kIters = 20000;
    Rng rng(o.seed);
    net::Network& net = *sc->net;
    const std::uint32_t enb = net.topo().node(sc->fabric.hosts[0][0]).ip;
    const std::uint32_t app = net.topo().node(sc->fabric.hosts[1][0]).ip;
    const auto t0 = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      (void)rng.uniform();
      const auto slot = static_cast<std::uint32_t>(rng.below(kSessions));
      (void)rng.exponential(1.0 / (kChurnPerS + kUplinkPerS));
      const net::PacketHandle h = net.alloc_packet();
      p4rt::make_gtpu_udp_into(net.packet(h), enb, kN3Ip, 1 + slot,
                               0x50000001u + slot, app, 40000, 81, 64);
      net.free_packet(h);
    }
    const auto t1 = Clock::now();
    tr.add("generator.model", t0, t1, own);
    const double per_pkt_s = secs(t0, t1) / kIters;
    gen_s = per_pkt_s * static_cast<double>(packets);
    out.metric("bench.gen_ns_per_pkt", per_pkt_s * 1e9, "ns");
  } else {
    auto sc = build_fabric(own_cfg, o.seed, nullptr, tr, setup);
    tr.end(setup);
    auto timed = std::make_shared<TimedForwarding>(sc->routing, fwd, tr);
    for (const int sw : sc->fabric.leaves) sc->net->set_program(sw, timed);
    for (const int sw : sc->fabric.spines) sc->net->set_program(sw, timed);
    sc->gen->set_tracer(&tr);
    const FabricWindow w =
        fabric_window(*sc, own_cfg, 0.2 * B, tr, own, &fwd);
    out.failed += check_fabric(*sc, w, o.perturb, o.workload, out) +
                  w.scrape_failures;
    out.attempted += sc->gen->sent() + w.scrape_attempts;
    out.check(fwd.calls == sc->gen->hops(),
              o.workload + ": forwarding calls " + std::to_string(fwd.calls) +
                  " != generated path hops " +
                  std::to_string(sc->gen->hops()));
    wall_s = w.wall_s;
    traced_hops_per_s = w.clean_hops_per_s;
    hops = w.hops;
    packets = w.packets;
    window_fwd = w.fwd;
    gen_s = static_cast<double>(w.gen_ns) / 1e9;
    layer_counts(w.log, sc->net->counters(), w.reports, w.arena_slabs);
    out.metric("bench.gen_ns_per_pkt", ns_per(gen_s, packets), "ns");
  }
  tr.end(own);
  const double fwd_s = static_cast<double>(window_fwd.ns) / 1e9;
  out.metric("net.core_ns_per_hop",
             ns_per(wall_s - fwd_s - gen_s - attach_s, hops), "ns");
  out.metric("forwarding.ns_per_call", ns_per(fwd_s, window_fwd.calls), "ns");
  out.metric("forwarding.calls_per_pkt",
             packets > 0 ? static_cast<double>(window_fwd.calls) /
                               static_cast<double>(packets)
                         : 0.0,
             "ratio");
  out.metric("bench.trace_overhead_pct",
             untraced_hops_per_s > 0
                 ? 100.0 * (untraced_hops_per_s - traced_hops_per_s) /
                       untraced_hops_per_s
                 : 0.0,
             "%");

  // 3. p4rt counters: the workload once more with the registry wired.
  {
    const std::uint32_t span = tr.begin("counting", root);
    Tracer off(false);
    RegistryCounts rc;
    std::uint64_t count_hops = 0;
    if (is_aether) {
      auto sc = build_aether(o.seed, &cache, off, 0, /*observability=*/true);
      const AetherWindow w = aether_window(*sc, 0.05 * B, off, 0);
      check_aether(*sc, w, o.perturb, o.workload + "/counting", out);
      rc = registry_counts(*sc->net);
      count_hops = aether_hops(sc->net->counters());
    } else {
      FabricConfig cfg = own_cfg;
      cfg.obs = true;
      auto sc = build_fabric(cfg, o.seed, &cache, off, 0);
      const FabricWindow w = fabric_window(*sc, cfg, 0.05 * B, off, 0);
      check_fabric(*sc, w, o.perturb, o.workload + "/counting", out);
      rc = registry_counts(*sc->net);
      count_hops = sc->gen->hops();
    }
    const double h = static_cast<double>(std::max<std::uint64_t>(count_hops, 1));
    out.metric("p4rt.interp.instr_per_hop",
               static_cast<double>(rc.instructions) / h, "count");
    out.metric("p4rt.table.lookups_per_hop",
               static_cast<double>(rc.lookups) / h, "count");
    out.metric("p4rt.table.cache_hit_ratio",
               rc.lookups > 0 ? static_cast<double>(rc.cache_hits) /
                                    static_cast<double>(rc.lookups)
                              : 0.0,
               "ratio");
    tr.end(span);
  }

  // 4. Checker ladder on the fabric traffic: bare, each property alone, and
  //    the N-property curve (n1 is the first property alone).
  {
    std::vector<FabricConfig> rungs(1);  // bare
    for (const auto& p : kVerifyProperties) {
      FabricConfig c;
      c.properties = {p};
      rungs.push_back(c);
    }
    for (const std::size_t n : {2, 4, 8}) {
      FabricConfig c;
      c.properties.assign(kVerifyProperties.begin(),
                          kVerifyProperties.begin() +
                              static_cast<std::ptrdiff_t>(n));
      rungs.push_back(c);
    }
    const std::vector<double> ns =
        run_ladder(rungs, o, cache, 0.3 * B, "ladder.checker", out, tr, root);
    const double bare = ns[0];
    const std::size_t n8 = rungs.size() - 1;
    out.metric("checker.ns_per_hop", ns[n8] - bare, "ns");
    for (std::size_t i = 0; i < kVerifyProperties.size(); ++i) {
      out.metric("checker." + kVerifyProperties[i] + ".ns_per_hop",
                 ns[1 + i] - bare, "ns");
    }
    out.metric("checker.n1.ns_per_hop", ns[1] - bare, "ns");
    out.metric("checker.n2.ns_per_hop", ns[n8 - 2] - bare, "ns");
    out.metric("checker.n4.ns_per_hop", ns[n8 - 1] - bare, "ns");
    out.metric("checker.n8.ns_per_hop", ns[n8] - bare, "ns");
  }

  // 5. Observability ladder on fabric_live's traffic and properties:
  //    off -> on -> export -> live -> live + scraper.
  {
    std::vector<FabricConfig> rungs(5);
    for (auto& c : rungs) c.properties = {"valley_free", "loops"};
    rungs[1].obs = true;
    rungs[2].obs = rungs[2].export_ticks = true;
    rungs[3] = rungs[2];
    rungs[3].live = rungs[3].server = true;
    rungs[4] = rungs[3];
    rungs[4].scrape = true;
    LiveCounts counts;
    FabricWindow scraped;
    const std::vector<double> ns =
        run_ladder(rungs, o, cache, 0.15 * B, "ladder.obs", out, tr, root,
                   &counts, &scraped);
    out.metric("obs.hooks_ns_per_hop", ns[1] - ns[0], "ns");
    out.metric("obs.export_ns_per_hop", ns[2] - ns[1], "ns");
    out.metric("obs.live_ns_per_hop", ns[3] - ns[2], "ns");
    out.metric("obs.scrape_ns_per_hop", ns[4] - ns[3], "ns");
    out.metric("obs.ticks", static_cast<double>(counts.ticks), "count");
    out.metric("obs.publishes", static_cast<double>(counts.publishes),
               "count");
    const std::uint64_t ok_scrapes =
        scraped.scrape_attempts - scraped.scrape_failures;
    out.metric("obs.renders_per_scrape",
               ok_scrapes > 0 ? static_cast<double>(counts.publishes) /
                                    static_cast<double>(ok_scrapes)
                              : 0.0,
               "ratio");
    out.metric("obs.metrics_bytes",
               scraped.scrape_attempts > 0
                   ? static_cast<double>(scraped.scrape_bytes) /
                         static_cast<double>(scraped.scrape_attempts)
                   : 0.0,
               "bytes");
    out.metric("obs.httpd.requests",
               static_cast<double>(scraped.requests_served), "count");
  }

  // 6. Aether layer, when the workload did not already measure it.
  if (!is_aether) {
    const std::uint32_t span = tr.begin("aether", root);
    Tracer off(false);
    auto sc = build_aether(o.seed, &cache, off, 0);
    const AetherWindow w = aether_window(*sc, 0.1 * B, off, 0);
    check_aether(*sc, w, 0, "aether", out);
    double attach_s = 0.0;
    for (const double s : w.attach_s) attach_s += s;
    out.metric("aether.prefill_s", sc->prefill_s, "s");
    out.metric("aether.attach_s_total", attach_s, "s");
    out.metric("aether.app_entries",
               static_cast<double>(sc->upf->application_entries()), "count");
    tr.end(span);
  }

  // 7. Set-up layers: compiling every property the benchmark uses, and
  //    deploying + configuring fabric_verify's eight on a fresh fabric.
  {
    auto t0 = Clock::now();
    for (const auto& p : kVerifyProperties) compile_library_checker(p);
    compile_library_checker("application_filtering");
    auto t1 = Clock::now();
    tr.add("compile", t0, t1, root);
    out.metric("compiler.compile_ms", secs(t0, t1) * 1e3, "ms");

    Tracer off(false);
    auto sc = build_fabric(FabricConfig{}, o.seed, &cache, off, 0);
    std::vector<Compiled> checkers;
    for (const auto& p : kVerifyProperties) checkers.push_back(cache.get(p));
    t0 = Clock::now();
    for (std::size_t i = 0; i < checkers.size(); ++i) {
      deploy_property(*sc, kVerifyProperties[i], checkers[i]);
    }
    t1 = Clock::now();
    tr.add("deploy", t0, t1, root);
    out.metric("net.deploy_ms", secs(t0, t1) * 1e3, "ms");
  }
  tr.end(root);

  if (!o.spans_path.empty() && !tr.write(o.spans_path)) {
    out.check(false, "cannot write spans to " + o.spans_path);
  }
  return out;
}

// ---- environment --------------------------------------------------------------

#ifndef HOPBENCH_BUILD_TYPE
#define HOPBENCH_BUILD_TYPE "unknown"
#endif
#ifndef HOPBENCH_CXX_FLAGS
#define HOPBENCH_CXX_FLAGS "unknown"
#endif
#ifndef HOPBENCH_COMPILER
#define HOPBENCH_COMPILER "unknown"
#endif

bool optimized_build() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

std::string sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return std::strstr(HOPBENCH_CXX_FLAGS, "-fsanitize") != nullptr ? "flags"
                                                                  : "none";
#endif
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string env_json(const Options& o) {
  const char* commit = std::getenv("HOPBENCH_GIT_COMMIT");
  return std::string("{\"hw_threads\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": " + json_string(HOPBENCH_COMPILER) +
         ", \"build_type\": " + json_string(HOPBENCH_BUILD_TYPE) +
         ", \"cxx_flags\": " + json_string(HOPBENCH_CXX_FLAGS) +
         ", \"optimized\": " + (optimized_build() ? "true" : "false") +
         ", \"sanitizer\": " + json_string(sanitizer()) +
         ", \"engine\": \"serial\", \"workload\": " +
         json_string(o.workload) + ", \"seed\": " + std::to_string(o.seed) +
         ", \"seconds\": " + num(o.seconds) +
         ", \"trace\": " + std::to_string(o.trace) + ", \"git_commit\": " +
         json_string(commit != nullptr && *commit != '\0' ? commit
                                                          : "unknown") +
         "}";
}

std::string result_json(const Outcome& out) {
  std::string s = std::string("{\"correct\": ") +
                  (out.gate_failures.empty() ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(out.attempted) +
                  ", \"failed\": " + std::to_string(out.failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    s += (i == 0 ? "" : ", ") + json_string(m.name) + ": {\"value\": " +
         num(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  return s + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  const int rc = parse_options(argc, argv, &o);
  if (rc >= 0) return rc;
  try {
    Outcome out = o.trace == 1 ? run_traced(o) : run_e2e(o);
    for (const Metric& m : out.metrics) {
      out.check(std::isfinite(m.value), "metric " + m.name + " not finite");
    }
    if (out.attempted == 0) out.attempted = 1;
    for (const auto& f : out.gate_failures) {
      std::fprintf(stderr, "GATE FAIL: %s\n", f.c_str());
    }
    const std::string env = env_json(o);
    const std::string result = result_json(out);
    if (!o.out_path.empty()) {
      std::string failures = "[";
      for (std::size_t i = 0; i < out.gate_failures.size(); ++i) {
        failures += (i == 0 ? "" : ", ") + json_string(out.gate_failures[i]);
      }
      failures += "]";
      std::FILE* f = std::fopen(o.out_path.c_str(), "w");
      if (f == nullptr ||
          std::fprintf(f, "{\"env\": %s, \"gate_failures\": %s, "
                          "\"result\": %s}\n",
                       env.c_str(), failures.c_str(), result.c_str()) < 0 ||
          std::fclose(f) != 0) {
        std::fprintf(stderr, "cannot write %s\n", o.out_path.c_str());
        return 1;
      }
    }
    std::printf("env %s\n%s\n", env.c_str(), result.c_str());
    return out.gate_failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hopbench: %s\n", e.what());
    return 1;
  }
}
