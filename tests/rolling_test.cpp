// Rolling checker deploy/undeploy and full-state snapshot/restore tests:
// the deployment-slot lifecycle (64-slot cap, retirement, generation-tagged
// reuse), fail-closed stale-frame accounting through a live-traffic swap,
// the snapshot writer (atomic for files, in place for FIFOs), and the v2
// full-state snapshot's restart equivalence — a restored network must
// behave byte-identically to the one that wrote the snapshot.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "../tools/cli_parse.hpp"
#include "forwarding/ipv4_ecmp.hpp"
#include "forwarding/upf.hpp"
#include "hydra/hydra.hpp"
#include "net/network.hpp"
#include "net/traffic.hpp"

namespace hydra {
namespace {

// Value of one labeled sample in a Prometheus exposition; -1 when the
// exact "name{labels}" prefix is absent.
double prom_sample(const std::string& prom, const std::string& prefix) {
  std::size_t pos = 0;
  while ((pos = prom.find(prefix, pos)) != std::string::npos) {
    if (pos == 0 || prom[pos - 1] == '\n') {
      const std::size_t sp = prom.find(' ', pos);
      if (sp == std::string::npos) return -1.0;
      return std::strtod(prom.c_str() + sp + 1, nullptr);
    }
    ++pos;
  }
  return -1.0;
}

// ---- deployment lifecycle --------------------------------------------------

TEST(RollingDeploy, SlotCapFailsLoudlyAndRetiredSlotsAreReused) {
  auto fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  fwd::install_leaf_spine_routing(net, fabric);
  const auto checker = compile_library_checker("loops");
  for (int i = 0; i < net::Network::kMaxDeployments; ++i) {
    EXPECT_EQ(net.deploy(checker), i);
  }
  // Slot 65 must fail loudly — not wrap, clamp, or silently no-op.
  try {
    net.deploy(checker);
    FAIL() << "65th deploy accepted";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("64"), std::string::npos) << msg;
    EXPECT_NE(msg.find("undeploy"), std::string::npos) << msg;
  }
  // Retiring any slot frees exactly one id, and redeploying reuses it
  // under a fresh generation tag.
  net.undeploy(5);
  EXPECT_FALSE(net.deployment_live(5));
  const std::uint32_t old_gen = 5;  // slots were deployed in order
  const int slot = net.deploy(checker);
  EXPECT_EQ(slot, 5);
  EXPECT_TRUE(net.deployment_live(5));
  EXPECT_EQ(net.deployment_generation(5),
            static_cast<std::uint32_t>(net::Network::kMaxDeployments));
  EXPECT_NE(net.deployment_generation(5), old_gen);
}

TEST(RollingDeploy, RetiredAndOutOfRangeIdsFailWithClearErrors) {
  auto fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  fwd::install_leaf_spine_routing(net, fabric);
  const int dep = net.deploy(compile_library_checker("stateful_firewall"));
  net.undeploy(dep);

  // A retired slot: every control-plane entry point reports "retired",
  // never UB against the freed per-switch state.
  const int sw = fabric.leaves[0];
  try {
    net.checker_table(dep, sw, "allowed");
    FAIL() << "checker_table on retired slot accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("retired"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(net.checker_register(dep, sw, "allowed"),
               std::invalid_argument);
  EXPECT_THROW(net.set_config_all(dep, "allowed", {BitVec::from_bool(true)}),
               std::invalid_argument);
  EXPECT_THROW(net.undeploy(dep), std::invalid_argument);
  EXPECT_THROW(net.undeploy_rolling(dep), std::invalid_argument);

  // Out-of-range ids (undeploy introduced holes, but ids beyond the slot
  // vector were never valid): "out of range", not a crash.
  for (const int bad : {-1, net.deployment_count(), 1000}) {
    try {
      net.deployment_live(bad);
      FAIL() << "deployment_live(" << bad << ") accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("out of range"),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW(net.undeploy(bad), std::invalid_argument);
  }
  // The retired checker stays readable for attribution and forensics.
  EXPECT_EQ(net.checker(dep).name, "stateful_firewall");
}

// ---- fail-closed stale frames through a live-traffic swap ------------------

TEST(RollingDeploy, UnknownHeaderAnnotationFailsAtDeployNotAtRunTime) {
  auto fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  fwd::install_leaf_spine_routing(net, fabric);
  // Parses and compiles, but no switch model supplies this annotation.
  const auto bad = std::make_shared<const compiler::CompiledChecker>(
      compiler::compile_checker(R"(
        header bit<16> dport @"hdr.udp.dst_port";
        tele bit<16> seen;
        { seen = dport; } { } { }
      )", "udp_port"));
  for (const bool rolling : {false, true}) {
    try {
      if (rolling) {
        net.deploy_rolling(bad);
      } else {
        net.deploy(bad);
      }
      FAIL() << "deploy accepted an unknown header annotation";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("'udp_port'"), std::string::npos) << msg;
      EXPECT_NE(msg.find("'hdr.udp.dst_port'"), std::string::npos) << msg;
    }
    // Refused before any slot, generation, counter or swap changed.
    EXPECT_EQ(net.deployment_count(), 0);
    EXPECT_TRUE(net.events().empty());
  }
  const int dep = net.deploy(compile_library_checker("loops"));
  EXPECT_EQ(dep, 0);
  EXPECT_EQ(net.deployment_generation(dep), 0u);
  const std::uint32_t sip = net.topo().node(fabric.hosts[0][0]).ip;
  const std::uint32_t dip = net.topo().node(fabric.hosts[1][1]).ip;
  net.send_from_host(fabric.hosts[0][0],
                     p4rt::make_udp(sip, dip, 4000, 53, 64));
  net.events().run();
  EXPECT_EQ(net.counters().delivered, 1u);
  EXPECT_EQ(net.counters().rejected, 0u);
}

TEST(RollingDeploy, UndeployUnderTrafficCountsStaleFramesFailClosed) {
  auto fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  fwd::install_leaf_spine_routing(net, fabric);
  net.set_observability(true);
  net.set_export_interval(5e-5);
  const int dep = net.deploy(compile_library_checker("loops"));
  EXPECT_EQ(net.deployment_generation(dep), 0u);

  // Multi-hop cross-leaf traffic so frames are in flight when the sweep
  // lands. The burst at 0.997 ms is the deterministic core: with 2 µs
  // per-hop propagation its packets are stamped at the ingress leaf
  // (~0.999 ms, before the pause at 1 ms) but reach the spine (~1.001 ms)
  // after every switch has swapped — guaranteed stale frames.
  net::UdpFlood flood(net, fabric.hosts[0][0], fabric.hosts[1][1], 0.6, 600);
  flood.set_poisson(13);
  flood.start(0.0, 2e-3);
  const std::uint32_t sip = net.topo().node(fabric.hosts[0][1]).ip;
  const std::uint32_t dip = net.topo().node(fabric.hosts[1][0]).ip;
  net.events().schedule_at(0.997e-3, [&] {
    for (int i = 0; i < 48; ++i) {
      net.send_from_host(fabric.hosts[0][1],
                         p4rt::make_udp(sip, dip,
                                        static_cast<std::uint16_t>(9000 + i),
                                        80, 128));
    }
  });

  net.events().run_until(1e-3);
  const std::uint64_t rejected_before = net.counters().rejected;
  net.undeploy_rolling(dep);
  EXPECT_TRUE(net.swap_in_progress());
  net.events().run();

  // Sweep committed and the slot fully retired.
  EXPECT_FALSE(net.swap_in_progress());
  EXPECT_FALSE(net.deployment_live(dep));

  // Frames stamped with generation 0 that crossed an already-swapped
  // switch were rejected fail-closed AND counted per generation — never
  // dropped silently, never attributed to checker rejects.
  const std::string prom = net.export_prometheus();
  const double stale = prom_sample(
      prom,
      "hydra_checker_stale_generation_rejects_total{property=\"loops\"}");
  EXPECT_GT(stale, 0.0) << prom;
  EXPECT_EQ(net.counters().rejected, rejected_before);

  // Redeploy into the reused slot: a fresh generation, and the retired
  // generation's counter family stays present and monotone.
  const int again = net.deploy_rolling(compile_library_checker("loops"));
  EXPECT_EQ(again, dep);
  EXPECT_EQ(net.deployment_generation(again), 1u);
  net.events().run();  // drain the enable sweep
  EXPECT_FALSE(net.swap_in_progress());
  EXPECT_TRUE(net.deployment_live(again));
  const double stale_after = prom_sample(
      net.export_prometheus(),
      "hydra_checker_stale_generation_rejects_total{property=\"loops\"}");
  EXPECT_GE(stale_after, stale);
}

TEST(RollingDeploy, ObservabilityOffDetachesRetiredStaleCounters) {
  auto fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  fwd::install_leaf_spine_routing(net, fabric);
  net.set_observability(true);
  const int dep = net.deploy(compile_library_checker("loops"));
  // Sent at 0.995 ms, the burst is stamped at the ingress leaf before the
  // sweep at 1 ms and crosses the spine and the egress leaf after it: 16
  // stale frames, which observability on would count.
  const std::uint32_t sip = net.topo().node(fabric.hosts[0][1]).ip;
  const std::uint32_t dip = net.topo().node(fabric.hosts[1][0]).ip;
  net.events().schedule_at(0.995e-3, [&] {
    for (int i = 0; i < 8; ++i) {
      net.send_from_host(fabric.hosts[0][1],
                         p4rt::make_udp(sip, dip,
                                        static_cast<std::uint16_t>(9000 + i),
                                        80, 128));
    }
  });
  net.events().run_until(1e-3);
  net.undeploy_rolling(dep);
  net.events().run_until(1e-3);  // the sweep commits; the burst flies on
  ASSERT_FALSE(net.swap_in_progress());
  ASSERT_FALSE(net.deployment_live(dep));

  // Turning observability off destroys the registry. The retired
  // generation's stale-frame counter must detach with every other handle:
  // the burst's stale frames then count nowhere, instead of writing into
  // the freed registry (ASan reports that as heap-use-after-free).
  net.set_observability(false);
  net.events().run();
  EXPECT_EQ(net.counters().delivered, 8u);
  net.set_observability(true);
  EXPECT_EQ(net.metrics().counter_value("checker.loops.stale_generation"), 0u);
}

TEST(RollingDeploy, UndeployRollingDuringDeploySweepFailsLoudly) {
  auto fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  fwd::install_leaf_spine_routing(net, fabric);
  const int dep = net.deploy_rolling(compile_library_checker("loops"));
  EXPECT_TRUE(net.swap_in_progress());
  EXPECT_THROW(net.undeploy_rolling(dep), std::logic_error);
  net.events().run();
  EXPECT_FALSE(net.swap_in_progress());
  net.undeploy_rolling(dep);
  net.events().run();
  EXPECT_FALSE(net.deployment_live(dep));
}

// ---- snapshot writer + truncation regression -------------------------------

TEST(SnapshotFile, AtomicWriterLeavesNoPartialFiles) {
  const std::string path = ::testing::TempDir() + "rolling_snap.txt";
  const std::string tmp = path + ".tmp";
  std::remove(path.c_str());
  std::remove(tmp.c_str());

  const std::string content = "hydra-obs-snapshot v1\nsim injected 7\nend\n";
  ASSERT_TRUE(tools::write_text_file(path, content));
  std::ifstream in(path, std::ios::binary);
  std::string back((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(back, content);
  // The staging file was renamed away, not left behind.
  EXPECT_FALSE(std::ifstream(tmp).good());
  std::remove(path.c_str());
}

// A symlinked output keeps its link: the target's content is replaced,
// atomically, next to the target.
TEST(SnapshotFile, WriterReplacesASymlinksTarget) {
  const std::string target = ::testing::TempDir() + "rolling_target.txt";
  const std::string link = ::testing::TempDir() + "rolling_link.txt";
  std::remove(target.c_str());
  std::remove(link.c_str());
  std::remove((target + ".tmp").c_str());
  std::remove((link + ".tmp").c_str());
  {
    std::ofstream(target) << "old\n";
  }
  ASSERT_EQ(::symlink(target.c_str(), link.c_str()), 0);

  ASSERT_TRUE(tools::write_text_file(link, "new\n"));
  struct stat st {};
  ASSERT_EQ(::lstat(link.c_str(), &st), 0);
  EXPECT_TRUE(S_ISLNK(st.st_mode));
  std::ifstream in(target, std::ios::binary);
  std::string back((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(back, "new\n");
  EXPECT_NE(::lstat((target + ".tmp").c_str(), &st), 0);
  EXPECT_NE(::lstat((link + ".tmp").c_str(), &st), 0);
  std::remove(link.c_str());
  std::remove(target.c_str());
}

// A FIFO, like any existing path that is not a regular file (/dev/null,
// say), is written in place: it stays a FIFO and its reader gets the bytes.
// The reader opens non-blocking first, so the writer's open never waits.
TEST(SnapshotFile, WriterWritesAFifoInPlace) {
  const std::string path = ::testing::TempDir() + "rolling_fifo";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  const int reader = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_GE(reader, 0);

  const std::string content = "hydra_up 1\n";
  EXPECT_TRUE(tools::write_text_file(path, content));
  struct stat st {};
  ASSERT_EQ(::lstat(path.c_str(), &st), 0);
  EXPECT_TRUE(S_ISFIFO(st.st_mode));
  char buf[64] = {};
  const ssize_t n = ::read(reader, buf, sizeof buf);
  EXPECT_EQ(std::string(buf, n > 0 ? static_cast<std::size_t>(n) : 0),
            content);
  EXPECT_NE(::lstat((path + ".tmp").c_str(), &st), 0);
  ::close(reader);
  std::remove(path.c_str());
}

TEST(SnapshotFile, TruncatedSnapshotIsRejected) {
  auto fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  fwd::install_leaf_spine_routing(net, fabric);
  net.set_observability(true);
  net.set_export_interval(5e-5);
  const int dep = net.deploy(compile_library_checker("loops"));
  net::UdpFlood flood(net, fabric.hosts[0][0], fabric.hosts[1][1], 0.5, 400);
  flood.set_poisson(7);
  flood.start(0.0, 1e-3);
  net.events().run();
  net.undeploy(dep);
  net.deploy(compile_library_checker("loops"));
  const std::string snap = net.full_snapshot();
  ASSERT_GT(snap.size(), 200u);

  // A kill mid-write (the scenario the atomic writer prevents, and the
  // .bad quarantine handles): every truncation point must throw, and a
  // fresh scenario must remain deployable afterwards.
  for (const std::size_t cut :
       {snap.size() / 4, snap.size() / 2, snap.size() - 3}) {
    net::Network fresh(fabric.topo);
    fwd::install_leaf_spine_routing(fresh, fabric);
    fresh.set_observability(true);
    fresh.set_export_interval(5e-5);
    EXPECT_THROW(fresh.obs_restore(snap.substr(0, cut)),
                 std::invalid_argument)
        << "cut at " << cut;
    // The failed restore does not wedge the scenario: rebuild-and-deploy
    // (hydrad's .bad fallback path) still works on a fresh network.
    net::Network rebuilt(fabric.topo);
    fwd::install_leaf_spine_routing(rebuilt, fabric);
    rebuilt.set_observability(true);
    EXPECT_EQ(rebuilt.deploy(compile_library_checker("loops")), 0);
  }

  // A v2 snapshot refuses to land on a scenario that already deployed.
  net::Network occupied(fabric.topo);
  fwd::install_leaf_spine_routing(occupied, fabric);
  occupied.set_observability(true);
  occupied.set_export_interval(5e-5);
  occupied.deploy(compile_library_checker("loops"));
  EXPECT_THROW(occupied.obs_restore(snap), std::logic_error);
}

// ---- full-state restart equivalence ---------------------------------------

namespace {

// The hydrad-like scenario: UPF forwarding state on one leaf, observability
// + export + top-K armed, and a deployment history that spans three
// generations (deploy, rolling undeploy, rolling redeploy) under traffic.
struct FullBed {
  net::LeafSpine fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net{fabric.topo};
  std::shared_ptr<fwd::UpfProgram> upf;

  FullBed() {
    auto routing = fwd::install_leaf_spine_routing(net, fabric);
    upf = std::make_shared<fwd::UpfProgram>(routing);
    net.set_program(fabric.leaves[0], upf);
    net.set_observability(true);
    net.set_export_interval(1e-4);
    net::Network::LiveObsOptions live;
    live.topk_k = 4;
    net.arm_live_obs(live);
  }

  std::uint32_t ip(int host) const { return net.topo().node(host).ip; }

  // Deterministic cross-leaf bursts at absolute times t0+k*step: the same
  // call produces the same packets whether the clock started at 0 or was
  // restored mid-run.
  void drive(double t0, int rounds) {
    const int a = fabric.hosts[0][0];
    const int b = fabric.hosts[1][1];
    for (int i = 0; i < rounds; ++i) {
      const double t = t0 + 2e-5 * (i + 1);
      net.events().schedule_at(t, [this, a, b, i] {
        net.send_from_host(
            a, p4rt::make_udp(ip(a), ip(b),
                              static_cast<std::uint16_t>(6000 + i % 32), 80,
                              96 + 8 * (i % 4)));
      });
    }
    net.events().run();
  }
};

}  // namespace

TEST(FullSnapshot, ThirdGenerationRestoreIsByteIdentical) {
  // Generation history: gen0 loops (stays), gen1 stateful_firewall
  // rolling-deployed mid-traffic then rolling-retired, gen2 reuses the
  // slot. Stale frames from the swap land in the per-generation family.
  FullBed a;
  const int base = a.net.deploy(compile_library_checker("loops"));
  a.drive(0.0, 40);
  const int fw =
      a.net.deploy_rolling(compile_library_checker("stateful_firewall"));
  EXPECT_NE(fw, base);
  a.drive(a.net.events().now(), 40);
  a.net.undeploy_rolling(fw);
  a.drive(a.net.events().now(), 20);
  EXPECT_FALSE(a.net.swap_in_progress());
  const int fw2 =
      a.net.deploy_rolling(compile_library_checker("stateful_firewall"));
  EXPECT_EQ(fw2, fw);
  a.drive(a.net.events().now(), 20);
  EXPECT_EQ(a.net.deployment_generation(fw2), 2u);

  const std::string snap1 = a.net.full_snapshot();
  EXPECT_NE(snap1.find("hydra-obs-snapshot v2"), std::string::npos);
  EXPECT_NE(snap1.find("gen 1 1 stateful_firewall"), std::string::npos);

  // Restart equivalence, round 1: a fresh process restores the snapshot
  // and must re-emit it byte for byte.
  FullBed b;
  b.net.obs_restore(snap1);
  EXPECT_EQ(b.net.full_snapshot(), snap1);
  EXPECT_EQ(b.net.events().now(), a.net.events().now());
  EXPECT_EQ(b.net.deployment_count(), a.net.deployment_count());
  EXPECT_TRUE(b.net.deployment_live(base));
  EXPECT_EQ(b.net.deployment_generation(fw2), 2u);

  // Identical further traffic on the original and the restored network
  // must produce identical verdict behaviour — counters, exposition,
  // forensics, and the next snapshot all byte-equal.
  const double t0 = a.net.events().now();
  a.drive(t0, 30);
  b.drive(t0, 30);
  EXPECT_EQ(b.net.export_prometheus(), a.net.export_prometheus());
  const std::string snap2 = a.net.full_snapshot();
  EXPECT_EQ(b.net.full_snapshot(), snap2);

  // Round 2 (the third generation of the file itself): restore the
  // resumed run's snapshot and round-trip it again.
  FullBed c;
  c.net.obs_restore(snap2);
  EXPECT_EQ(c.net.full_snapshot(), snap2);
}

// 1-based number of the first line of `snap` that starts with `prefix`.
std::size_t line_of(const std::string& snap, const std::string& prefix) {
  std::istringstream in(snap);
  std::string line;
  for (std::size_t n = 1; std::getline(in, line); ++n) {
    if (line.rfind(prefix, 0) == 0) return n;
  }
  ADD_FAILURE() << "no line starting with '" << prefix << "'";
  return 0;
}

// `snap` with its first `kw` line rewritten: from token `tok` on (token 0
// is the keyword) the line reads `tail` instead.
std::string mutate_line(const std::string& snap, const std::string& kw,
                        std::size_t tok, const std::string& tail) {
  std::istringstream in(snap);
  std::string out;
  std::string line;
  bool done = false;
  while (std::getline(in, line)) {
    if (!done && line.rfind(kw + " ", 0) == 0) {
      std::istringstream ls(line);
      std::string word;
      line.clear();
      for (std::size_t i = 0; i < tok && ls >> word; ++i) line += word + " ";
      line += tail;
      done = true;
    }
    out += line + "\n";
  }
  EXPECT_TRUE(done) << "no '" << kw << "' line";
  return out;
}

// One mutated snapshot per failure a restore can meet: counts that sized
// allocations (~206 TB from a `wlat` line), a table record's bad header
// (std::runtime_error), impossible count (std::length_error) or a row that
// is not canonical (a key word of another width), a
// register cell past the array, an embedded checker source that no longer
// compiles (indus::CompileError) or binds, registry and top-K records
// that do not parse or fit, and files that are not v2 snapshots or end
// early. Each must fail as std::invalid_argument naming the line it was
// found on — the one exception obs_restore documents for bad input.
TEST(FullSnapshot, MutatedRecordsFailAsInvalidArgument) {
  // A checker with a table and one with sensors: the snapshot carries
  // `tab` and `reg` records.
  FullBed a;
  a.net.deploy(compile_library_checker("stateful_firewall"));
  a.net.deploy(compile_library_checker("dc_uplink_load_balance"));
  a.drive(0.0, 40);
  const std::string snap = a.net.full_snapshot();
  {
    FullBed ok;
    ok.net.obs_restore(snap);
    EXPECT_EQ(ok.net.full_snapshot(), snap);
  }
  const std::string huge = "206158430208";
  const std::string max = "18446744073709551615";
  const std::string body = snap.substr(snap.find('\n') + 1);
  const std::size_t src = line_of(snap, "src ");
  std::string no_src = snap;
  {
    const std::size_t at = no_src.find("\nsrc ") + 1;
    no_src.erase(at, no_src.find('\n', at) + 1 - at);
  }
  std::string fwd_spine = snap;
  {
    const std::string leaf = "\nfwd " + std::to_string(a.fabric.leaves[0]);
    fwd_spine.replace(fwd_spine.find(leaf + " "), leaf.size(),
                      "\nfwd " + std::to_string(a.fabric.spines[0]));
  }
  struct Case {
    const char* what;
    std::string snap;
    std::size_t line;   // the line the message must name
    const char* names;  // expected in the message
  };
  const std::vector<Case> cases = {
      {"wlat bucket count", mutate_line(snap, "wlat", 6, huge + " 1 2"),
       line_of(snap, "wlat "), "malformed snapshot line"},
      {"blat bucket count", mutate_line(snap, "blat", 3, huge + " 1 2"),
       line_of(snap, "blat "), "malformed snapshot line"},
      {"hist bucket count", mutate_line(snap, "hist", 4, huge + " 1 2"),
       line_of(snap, "hist "), "malformed snapshot line"},
      {"table header", mutate_line(snap, "tab", 4, "x"),
       line_of(snap, "tab "), "table snapshot"},
      {"table default count", mutate_line(snap, "tab", 5, max),
       line_of(snap, "tab "), "snapshot line"},
      {"table row that is not canonical",
       mutate_line(snap, "tab", 4,
                   "1 0 0 hit 2 16 5 32 4294967295 0 32 0 32 0 "
                   "32 7 32 4294967295 0 32 0 32 0 0"),
       line_of(snap, "tab "),
       "table 'allowed': field 0 (ternary bit<32>): value 16w5 is not "
       "canonical (32w5)"},
      {"register cell", mutate_line(snap, "reg", 4, "1 999999 1"),
       line_of(snap, "reg "), "snapshot line"},
      {"checker source", mutate_line(snap, "src", 2, "control dict<"), src,
       "error"},
      {"checker header binding",
       mutate_line(snap, "src", 2,
                   "header bit<16> dport @\"hdr.udp.dst_port\"; "
                   "tele bit<16> seen; { seen = dport; } { } { }"),
       src, "'hdr.udp.dst_port'"},
      {"v1 header", "hydra-obs-snapshot v1\n" + body, 1,
       "unrecognized snapshot header"},
      {"missing end", snap.substr(0, snap.size() - 4), line_of(snap, "end"),
       "truncated snapshot"},
      {"dep without src", no_src, src, "dep record without matching src line"},
      {"fwd on a stateless switch", fwd_spine, line_of(snap, "fwd "),
       "whose program keeps none"},
      {"counter of another kind",
       mutate_line(snap, "counter", 1, "net.delivered.hops 5"),
       line_of(snap, "counter "), "already registered with another kind"},
      {"hist bucket layout", mutate_line(snap, "hist", 4, "2 1 1"),
       line_of(snap, "hist "), "bucket layout changed"},
      {"topk total", mutate_line(snap, "topk", 2, "x"),
       line_of(snap, "topk "), "malformed snapshot line"},
      {"tke entry", mutate_line(snap, "tke", 3, "x 1 1 1"),
       line_of(snap, "tke "), "malformed snapshot line"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    FullBed b;
    try {
      b.net.obs_restore(c.snap);
      ADD_FAILURE() << "restore accepted the mutated snapshot";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(c.names), std::string::npos) << msg;
      EXPECT_NE(msg.find("snapshot line " + std::to_string(c.line) + ": "),
                std::string::npos)
          << msg;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "wrong exception type: " << e.what();
    }
  }
}

// A snapshot of 65 slots, one past kMaxDeployments: restore fills slots
// through the same helper as deploy, which refuses the 65th. (Accepting
// it made the first reject in slot 64 shift past the 64-bit
// rejected_deps mask.)
TEST(FullSnapshot, RestoreRefusesSlotsPastTheCap) {
  // Slot i's records, copied from a real one-slot snapshot.
  FullBed a;
  a.net.deploy(compile_library_checker("loops"));
  const std::string one = a.net.full_snapshot();
  const auto rest_of = [&one](const std::string& lead) {
    const std::size_t at = one.find("\n" + lead) + 1 + lead.size();
    return one.substr(at, one.find('\n', at) - at);
  };
  const std::string dep_rest = rest_of("dep 0 0 ");
  const std::string src_rest = rest_of("src 0 ");
  const auto snapshot_of = [&](int slots) {
    std::string snap = "hydra-obs-snapshot v2\n";
    for (int i = 0; i < slots; ++i) {
      const std::string n = std::to_string(i);
      snap += "gen " + n + " 0 loops\n";
      snap += "dep " + n + " " + n + " " + dep_rest + "\n";
      snap += "src " + n + " " + src_rest + "\n";
    }
    return snap + "end\n";
  };
  const int cap = net::Network::kMaxDeployments;
  {
    FullBed ok;
    ok.net.obs_restore(snapshot_of(cap));
    EXPECT_EQ(ok.net.deployment_count(), cap);
  }
  FullBed b;
  try {
    b.net.obs_restore(snapshot_of(cap + 1));
    FAIL() << "restore accepted " << cap + 1 << " slots";
  } catch (const std::invalid_argument& e) {
    // Lines 2-4 hold slot 0's gen/dep/src, so slot 64's src line is
    // 3 * 64 + 4: the slot is filled, and the cap enforced, when its
    // source arrives.
    const std::string msg = e.what();
    EXPECT_NE(msg.find("snapshot line " + std::to_string(3 * cap + 4) + ": "),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("all 64 deployment slots"), std::string::npos) << msg;
  }
}

TEST(FullSnapshot, RefusesWhileSweepInFlightAndWithoutObs) {
  auto fabric = net::make_leaf_spine(2, 2, 2);
  net::Network bare(fabric.topo);
  fwd::install_leaf_spine_routing(bare, fabric);
  EXPECT_THROW(bare.full_snapshot(), std::logic_error);

  net::Network net(fabric.topo);
  fwd::install_leaf_spine_routing(net, fabric);
  net.set_observability(true);
  net.deploy_rolling(compile_library_checker("loops"));
  EXPECT_TRUE(net.swap_in_progress());
  EXPECT_THROW(net.full_snapshot(), std::logic_error);
  net.events().run();
  EXPECT_FALSE(net.swap_in_progress());
  EXPECT_NO_THROW(net.full_snapshot());
}

}  // namespace
}  // namespace hydra
