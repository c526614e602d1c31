// Live observability plane tests: Space-Saving top-K sketches (determinism,
// eviction semantics, allocation audit), SLO health grading, the scrape
// HTTP server + snapshot publisher, and obs snapshot/restore across a
// simulated daemon restart.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "forwarding/ipv4_ecmp.hpp"
#include "hydra/hydra.hpp"
#include "net/network.hpp"
#include "obs/health.hpp"
#include "obs/httpd.hpp"
#include "obs/topk.hpp"

using namespace hydra;

// ---- Space-Saving sketch --------------------------------------------------

namespace {

obs::TopKKey key_of(std::uint64_t n) { return obs::TopKKey{n, n * 31 + 7}; }

}  // namespace

TEST(SpaceSaving, ExactWithinCapacity) {
  obs::SpaceSaving sk(4);
  for (int rep = 0; rep < 3; ++rep) {
    for (std::uint64_t k = 0; k < 4; ++k) sk.add(key_of(k), k + 1);
  }
  const auto ranked = sk.ranked();
  ASSERT_EQ(ranked.size(), 4u);
  EXPECT_EQ(ranked[0].key, key_of(3));
  EXPECT_EQ(ranked[0].count, 12u);
  EXPECT_EQ(ranked[0].error, 0u);  // never evicted: counts are exact
  EXPECT_EQ(ranked[3].key, key_of(0));
  EXPECT_EQ(ranked[3].count, 3u);
  EXPECT_EQ(sk.total(), 30u);
}

TEST(SpaceSaving, EvictionChargesMinAndInheritsError) {
  obs::SpaceSaving sk(2);
  sk.add(key_of(1), 10);
  sk.add(key_of(2), 3);
  // Full: a new key evicts the minimum (key 2, count 3) and enters with
  // count min+w and error = min.
  sk.add(key_of(3), 1);
  const auto ranked = sk.ranked();
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].key, key_of(1));
  EXPECT_EQ(ranked[0].count, 10u);
  EXPECT_EQ(ranked[1].key, key_of(3));
  EXPECT_EQ(ranked[1].count, 4u);
  EXPECT_EQ(ranked[1].error, 3u);
  // Total weight counts the whole stream, not just the survivors.
  EXPECT_EQ(sk.total(), 14u);
}

TEST(SpaceSaving, RankTiesBreakByInsertionStamp) {
  obs::SpaceSaving sk(4);
  sk.add(key_of(7), 5);
  sk.add(key_of(5), 5);
  sk.add(key_of(6), 5);
  const auto ranked = sk.ranked();
  ASSERT_EQ(ranked.size(), 3u);
  // Equal counts rank in first-seen order regardless of key value.
  EXPECT_EQ(ranked[0].key, key_of(7));
  EXPECT_EQ(ranked[1].key, key_of(5));
  EXPECT_EQ(ranked[2].key, key_of(6));
}

TEST(SpaceSaving, DeterministicAcrossIdenticalStreams) {
  auto run = [] {
    obs::SpaceSaving sk(8);
    for (std::uint64_t i = 0; i < 5000; ++i) {
      sk.add(key_of(i % 37), 1 + i % 5);
    }
    std::string out;
    for (const auto& e : sk.ranked()) {
      out += std::to_string(e.key.hi) + ":" + std::to_string(e.count) + ":" +
             std::to_string(e.error) + ";";
    }
    return out;
  };
  EXPECT_EQ(run(), run());
}

TEST(SpaceSaving, AllocationsOnlyAtConstruction) {
  const std::uint64_t before = obs::topk_allocations();
  obs::SpaceSaving sk(16);
  EXPECT_EQ(obs::topk_allocations(), before + 2);  // slots + index
  // Heavy churn far past capacity: adds must never allocate.
  for (std::uint64_t i = 0; i < 20000; ++i) sk.add(key_of(i % 997));
  EXPECT_EQ(obs::topk_allocations(), before + 2);
  EXPECT_EQ(sk.size(), 16u);
}

TEST(SpaceSaving, RestoreRoundTripPreservesRanking) {
  obs::SpaceSaving sk(4);
  for (std::uint64_t i = 0; i < 1000; ++i) sk.add(key_of(i % 11), 1 + i % 3);

  obs::SpaceSaving re(4);
  // Replay in stamp order, the order snapshot_text emits entries.
  auto entries = sk.ranked();
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.stamp < b.stamp; });
  for (const auto& e : entries) re.restore_entry(e.key, e.count, e.error);
  re.restore_total(sk.total());

  const auto a = sk.ranked();
  const auto b = re.ranked();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].count, b[i].count);
    EXPECT_EQ(a[i].error, b[i].error);
  }
  EXPECT_EQ(re.total(), sk.total());
}

TEST(TopKFlowKey, PackUnpackRoundTrip) {
  obs::TopKFlow f;
  f.parsed = true;
  f.src_ip = 0x50000001;
  f.dst_ip = 0x0a000203;
  f.src_port = 40000;
  f.dst_port = 81;
  f.proto = 17;
  const obs::TopKFlow g = obs::unpack_flow(obs::pack_flow(f));
  EXPECT_EQ(g.parsed, f.parsed);
  EXPECT_EQ(g.src_ip, f.src_ip);
  EXPECT_EQ(g.dst_ip, f.dst_ip);
  EXPECT_EQ(g.src_port, f.src_port);
  EXPECT_EQ(g.dst_port, f.dst_port);
  EXPECT_EQ(g.proto, f.proto);
}

// ---- top-K attribution bundle ---------------------------------------------

namespace {

obs::TopKFlow make_flow(std::uint32_t src, std::uint32_t dst) {
  obs::TopKFlow f;
  f.parsed = true;
  f.src_ip = src;
  f.dst_ip = dst;
  f.src_port = 40000;
  f.dst_port = 81;
  f.proto = 17;
  return f;
}

}  // namespace

TEST(TopKAttribution, FeedsSessionAndPropertySketches) {
  obs::TopKConfig cfg;
  cfg.k = 4;
  cfg.session_net = 0x50000000;
  cfg.session_mask = 0xFC000000;
  obs::TopKAttribution att(cfg, {"application_filtering"});

  const std::uint32_t ue = 0x50000001;   // inside the session block
  const std::uint32_t app = 0x0a000203;  // outside it
  for (int i = 0; i < 5; ++i) att.on_delivered(make_flow(ue, app));
  att.on_delivered(make_flow(app, ue));  // session keys on either endpoint
  att.on_rejected(make_flow(ue, app), 1ULL << 0);
  att.on_report(make_flow(ue, app), 0);
  att.on_report(make_flow(ue, app), 3);  // unknown deployment -> "dep3"

  EXPECT_EQ(att.flow_packets().total(), 6u);
  ASSERT_EQ(att.session_packets().size(), 1u);
  EXPECT_EQ(att.session_packets().ranked()[0].count, 6u);
  EXPECT_EQ(att.flow_rejects().total(), 1u);
  EXPECT_EQ(att.property_rejects().total(), 1u);

  const std::string json = att.to_json();
  EXPECT_NE(json.find("\"k\": 4"), std::string::npos);
  EXPECT_NE(json.find("80.0.0.1:40000"), std::string::npos);
  EXPECT_NE(json.find("application_filtering"), std::string::npos);
  EXPECT_NE(json.find("dep3"), std::string::npos);

  std::vector<obs::PromFamily> fams;
  att.prom_families(fams);
  ASSERT_FALSE(fams.empty());
  for (std::size_t i = 1; i < fams.size(); ++i) {
    EXPECT_LT(fams[i - 1].name, fams[i].name);  // sorted, no duplicates
  }
  bool saw_session = false;
  for (const auto& f : fams) {
    EXPECT_EQ(f.name.rfind("hydra_topk_", 0), 0u);
    if (f.name == "hydra_topk_session_packets") {
      saw_session = true;
      ASSERT_EQ(f.samples.size(), 1u);
      EXPECT_EQ(f.samples[0].label_body, "session=\"80.0.0.1\"");
      EXPECT_EQ(f.samples[0].value, "6");
    }
  }
  EXPECT_TRUE(saw_session);
}

TEST(TopKAttribution, SessionAttributionDisabledWithoutMask) {
  obs::TopKAttribution att(obs::TopKConfig{}, {});
  att.on_delivered(make_flow(0x50000001, 0x0a000203));
  EXPECT_EQ(att.flow_packets().total(), 1u);
  EXPECT_EQ(att.session_packets().total(), 0u);
}

TEST(TopKAttribution, SnapshotRestoreRoundTrip) {
  obs::TopKConfig cfg;
  cfg.k = 4;
  cfg.session_net = 0x50000000;
  cfg.session_mask = 0xFC000000;
  obs::TopKAttribution att(cfg, {"p0"});
  for (std::uint32_t i = 0; i < 100; ++i) {
    att.on_delivered(make_flow(0x50000001 + i % 9, 0x0a000203));
    if (i % 7 == 0) att.on_rejected(make_flow(0x50000001, 0x0a000203), 1);
  }

  obs::TopKAttribution re(cfg, {"p0"});
  std::istringstream lines(att.snapshot_text());
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(re.restore_line(line)) << line;
  }
  EXPECT_FALSE(re.restore_line("counter foo 1"));  // not topk state
  EXPECT_EQ(re.to_json(), att.to_json());
  EXPECT_EQ(re.snapshot_text(), att.snapshot_text());
}

// ---- health grading -------------------------------------------------------

namespace {

obs::WindowSample window_with(std::uint64_t injected, std::uint64_t rejected,
                              std::uint64_t fault_dropped = 0) {
  obs::WindowSample w;
  w.delta.injected = injected;
  w.delta.rejected = rejected;
  w.delta.fault_dropped = fault_dropped;
  return w;
}

}  // namespace

TEST(Health, EmptyWindowsGradeOk) {
  const auto v = obs::evaluate_health({}, {}, obs::HealthThresholds{});
  EXPECT_EQ(v.status, obs::HealthStatus::kOk);
  EXPECT_TRUE(v.reasons.empty());
  EXPECT_EQ(v.windows_evaluated, 0u);
}

TEST(Health, RejectRateGradesDegradedThenFailing) {
  obs::HealthThresholds t;
  std::deque<obs::WindowSample> w{window_with(1000, 20)};  // 2%
  auto v = obs::evaluate_health(w, {}, t);
  EXPECT_EQ(v.status, obs::HealthStatus::kDegraded);
  ASSERT_EQ(v.reasons.size(), 1u);
  EXPECT_NE(v.reasons[0].find("reject_rate"), std::string::npos);
  EXPECT_DOUBLE_EQ(v.reject_rate, 0.02);

  w.front() = window_with(1000, 150);  // 15%
  v = obs::evaluate_health(w, {}, t);
  EXPECT_EQ(v.status, obs::HealthStatus::kFailing);
  EXPECT_NE(v.to_json().find("\"status\": \"failing\""), std::string::npos);
}

TEST(Health, RollingWindowLimitsEvaluatedSpan) {
  obs::HealthThresholds t;
  t.windows = 2;
  // Old window is terrible, recent two are clean: verdict must only see
  // the configured span.
  std::deque<obs::WindowSample> w{window_with(100, 100), window_with(1000, 0),
                                  window_with(1000, 0)};
  const auto v = obs::evaluate_health(w, {}, t);
  EXPECT_EQ(v.status, obs::HealthStatus::kOk);
  EXPECT_EQ(v.windows_evaluated, 2u);
}

TEST(Health, LatencyThresholdDisabledByDefaultAndGradesWhenSet) {
  // One window whose latency histogram has everything in the overflow
  // bucket beyond 1ms.
  obs::WindowSample w;
  w.delta.injected = 10;
  w.delta.latency_buckets = {0, 100};
  std::deque<obs::WindowSample> ws{w};
  const std::vector<double> bounds{1e-3};

  obs::HealthThresholds t;  // latency thresholds default-disabled
  auto v = obs::evaluate_health(ws, bounds, t);
  EXPECT_EQ(v.status, obs::HealthStatus::kOk);
  EXPECT_DOUBLE_EQ(v.latency_p99_s, 1e-3);  // overflow clamps to last bound

  t.latency_p99_degraded_s = 1e-4;
  v = obs::evaluate_health(ws, bounds, t);
  EXPECT_EQ(v.status, obs::HealthStatus::kDegraded);
  t.latency_p99_failing_s = 5e-4;
  v = obs::evaluate_health(ws, bounds, t);
  EXPECT_EQ(v.status, obs::HealthStatus::kFailing);
}

TEST(Health, ColdSuppressionBurnRate) {
  obs::WindowSample w;
  w.delta.injected = 100;
  w.delta.reports = 1;
  w.delta.cold_suppressed = 9;  // 90% of would-be reports suppressed
  const auto v =
      obs::evaluate_health({w}, {}, obs::HealthThresholds{});
  EXPECT_EQ(v.status, obs::HealthStatus::kFailing);
  EXPECT_DOUBLE_EQ(v.cold_suppression_rate, 0.9);
}

TEST(Health, FaultDropBurnRate) {
  const auto v = obs::evaluate_health({window_with(1000, 0, 30)}, {},
                                      obs::HealthThresholds{});
  EXPECT_EQ(v.status, obs::HealthStatus::kDegraded);
  EXPECT_DOUBLE_EQ(v.fault_drop_rate, 0.03);
}

TEST(Health, StatusNames) {
  EXPECT_STREQ(obs::health_status_name(obs::HealthStatus::kOk), "ok");
  EXPECT_STREQ(obs::health_status_name(obs::HealthStatus::kDegraded),
               "degraded");
  EXPECT_STREQ(obs::health_status_name(obs::HealthStatus::kFailing),
               "failing");
}

// ---- snapshot publisher + HTTP server -------------------------------------

TEST(SnapshotPublisher, EpochAdvancesAndAcquireSeesLatest) {
  obs::SnapshotPublisher pub;
  EXPECT_EQ(pub.acquire(), nullptr);
  EXPECT_EQ(pub.epoch(), 0u);

  int hook_calls = 0;
  pub.set_on_publish([&](const obs::LiveSnapshot&) { ++hook_calls; });
  obs::LiveSnapshot s;
  s.tick_index = 1;
  s.metrics_text = "a";
  pub.publish(s);
  s.tick_index = 2;
  s.metrics_text = "b";
  pub.publish(s);

  EXPECT_EQ(pub.epoch(), 2u);
  EXPECT_EQ(hook_calls, 2);
  auto cur = pub.acquire();
  ASSERT_NE(cur, nullptr);
  EXPECT_EQ(cur->tick_index, 2u);
  EXPECT_EQ(cur->metrics_text, "b");
}

TEST(HttpServer, ServesPublishedSnapshotOnAllRoutes) {
  obs::SnapshotPublisher pub;
  obs::HttpServer server(pub, 0);  // ephemeral port
  ASSERT_GT(server.port(), 0);

  // Before the first publish every route is 503.
  std::string body;
  int status = 0;
  ASSERT_TRUE(obs::http_get(server.port(), "/metrics", &body, &status));
  EXPECT_EQ(status, 503);

  obs::LiveSnapshot s;
  s.tick_index = 7;
  s.metrics_text = "# TYPE x counter\nx 1\n";
  s.series_json = "{\"series\": []}";
  s.health_json = "{\"status\": \"ok\"}";
  s.violations_json = "[]";
  s.topk_json = "{\"k\": 8}";
  pub.publish(s);

  const std::vector<std::pair<std::string, std::string>> routes{
      {"/metrics", s.metrics_text},   {"/healthz", s.health_json},
      {"/series", s.series_json},     {"/violations", s.violations_json},
      {"/topk", s.topk_json},
  };
  for (const auto& [path, want] : routes) {
    ASSERT_TRUE(obs::http_get(server.port(), path, &body, &status)) << path;
    EXPECT_EQ(status, 200) << path;
    EXPECT_EQ(body, want) << path;
  }
  // Query strings are ignored for routing.
  ASSERT_TRUE(obs::http_get(server.port(), "/metrics?x=1", &body, &status));
  EXPECT_EQ(status, 200);

  // The snapshot is a shutdown file (Network::full_snapshot), not a route.
  for (const char* path : {"/nope", "/snapshot"}) {
    ASSERT_TRUE(obs::http_get(server.port(), path, &body, &status)) << path;
    EXPECT_EQ(status, 404) << path;
  }
  EXPECT_GE(server.requests_served(), 8u);
  server.stop();
  server.stop();  // idempotent
}

// ---- network integration: live plane + snapshot/restore -------------------

namespace {

// Keeps only counter/histogram family blocks of an exposition: gauges
// (sim time, link utilization, health signals) are recomputed from live
// state after a restart and are deliberately NOT restored.
std::string cumulative_families(const std::string& prom) {
  std::istringstream in(prom);
  std::string line;
  std::string out;
  bool keep = false;
  while (std::getline(in, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      keep = line.find(" gauge") == std::string::npos;
    }
    if (keep) {
      out += line;
      out += '\n';
    }
  }
  return out;
}

// Leaf-spine scenario with export + live obs armed and enough scheduled
// traffic to cross several export ticks; mirrors obs_test's ExportBed but
// with checker rejects so attribution sketches fill. A bed built with
// `deploy` false is a restart target: a full-state snapshot restores into
// a scenario that has deployed nothing, and brings its own deployments.
struct LiveBed {
  net::LeafSpine fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net{fabric.topo};
  std::shared_ptr<fwd::Ipv4EcmpProgram> routing =
      fwd::install_leaf_spine_routing(net, fabric);

  std::uint32_t ip(int host) const { return net.topo().node(host).ip; }

  explicit LiveBed(bool deploy = true) {
    if (deploy) {
      const int dep = net.deploy(compile_library_checker("stateful_firewall"));
      const int h0 = fabric.hosts[0][0];
      const int h2 = fabric.hosts[1][0];
      for (const auto& [s, d] : {std::pair{h0, h2}, std::pair{h2, h0}}) {
        net.dict_insert_all(dep, "allowed",
                            {BitVec(32, ip(s)), BitVec(32, ip(d))},
                            {BitVec::from_bool(true)});
      }
    }
    net.set_observability(true);
    net.set_export_interval(5e-6);
    net::Network::LiveObsOptions opts;
    opts.topk_k = 4;
    net.arm_live_obs(opts);
  }

  // Mix of allowed traffic and a flow the firewall rejects.
  void run_traffic(int rounds) {
    const int h0 = fabric.hosts[0][0];
    const int h1 = fabric.hosts[0][1];  // not allowed -> rejects
    const int h2 = fabric.hosts[1][0];
    for (int i = 0; i < rounds; ++i) {
      const double t = net.events().now() + 2e-6 * (i + 1);
      net.events().schedule_at(t, [this, h0, h1, h2, i] {
        net.send_from_host(h0,
                           p4rt::make_udp(ip(h0), ip(h2), 40000, 80, 64));
        if (i % 2 == 0) {
          net.send_from_host(h1,
                             p4rt::make_udp(ip(h1), ip(h2), 41000, 80, 64));
        }
      });
    }
    net.events().run();
  }
};

}  // namespace

TEST(NetworkLiveObs, ArmRequiresExportAndPublishesEachTick) {
  net::LeafSpine fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  EXPECT_THROW(net.arm_live_obs({}), std::logic_error);

  LiveBed bed;
  EXPECT_TRUE(bed.net.live_obs_armed());
  obs::SnapshotPublisher pub;
  bed.net.set_live_publisher(&pub);
  bed.run_traffic(20);

  const std::uint64_t ticks = bed.net.export_scheduler_ptr()->captured();
  EXPECT_GT(ticks, 2u);
  EXPECT_EQ(pub.epoch(), ticks);
  auto snap = pub.acquire();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->tick_index, ticks);
  // The published exposition carries health gauges and top-K families.
  EXPECT_NE(snap->metrics_text.find("hydra_health_status"),
            std::string::npos);
  EXPECT_NE(snap->metrics_text.find("hydra_topk_flow_packets"),
            std::string::npos);

  const auto& health = bed.net.last_health();
  EXPECT_GT(health.windows_evaluated, 0u);
  EXPECT_NE(bed.net.health_json().find("\"status\""), std::string::npos);
  EXPECT_NE(bed.net.topk_json().find("flow_packets"), std::string::npos);
}

TEST(NetworkLiveObs, GaugesAndTopKAbsentWhenLiveOff) {
  LiveBed bed;
  bed.net.disarm_live_obs();
  EXPECT_FALSE(bed.net.live_obs_armed());
  bed.run_traffic(10);
  const std::string prom = bed.net.export_prometheus();
  EXPECT_EQ(prom.find("hydra_topk_"), std::string::npos);
  EXPECT_THROW(bed.net.last_health(), std::logic_error);
  EXPECT_THROW(bed.net.topk_json(), std::logic_error);
}

TEST(NetworkLiveObs, SnapshotRestoreResumesCountersMonotonically) {
  LiveBed first;
  first.run_traffic(30);
  const std::string saved = first.net.full_snapshot();
  const std::string prom_before = first.net.export_prometheus();
  const std::uint64_t rejected_before = first.net.counters().rejected;
  ASSERT_GT(first.net.counters().injected, 0u);
  ASSERT_GT(rejected_before, 0u);

  // "Restart": a fresh network restores the snapshot before new traffic.
  LiveBed second(/*deploy=*/false);
  second.net.obs_restore(saved);
  // Counters resume at the saved totals, exposition included (gauges are
  // recomputed from the fresh network, so compare cumulative families).
  EXPECT_EQ(second.net.counters().injected, first.net.counters().injected);
  EXPECT_EQ(cumulative_families(second.net.export_prometheus()),
            cumulative_families(prom_before));
  EXPECT_EQ(second.net.topk_json(), first.net.topk_json());
  EXPECT_EQ(second.net.window_series_json(), first.net.window_series_json());

  // New traffic only grows them (monotone across the restart).
  second.run_traffic(10);
  EXPECT_GT(second.net.counters().injected, first.net.counters().injected);
  EXPECT_GE(second.net.counters().rejected, rejected_before);
  // A second snapshot of the resumed network restores cleanly too.
  const std::string again = second.net.full_snapshot();
  LiveBed third(/*deploy=*/false);
  third.net.obs_restore(again);
  EXPECT_EQ(cumulative_families(third.net.export_prometheus()),
            cumulative_families(second.net.export_prometheus()));
}

TEST(NetworkLiveObs, RestoreRejectsMalformedSnapshots) {
  // A failed restore may leave its network partly restored, so each case
  // gets a fresh one, as hydrad rebuilds its scenario.
  const auto restore = [](const std::string& text) {
    LiveBed bed(/*deploy=*/false);
    bed.net.obs_restore(text);
  };
  EXPECT_THROW(restore("not a snapshot\n"), std::invalid_argument);
  EXPECT_THROW(restore("hydra-obs-snapshot v2\n"),
               std::invalid_argument);  // missing end marker
  EXPECT_THROW(restore("hydra-obs-snapshot v2\nbogus 1\nend\n"),
               std::invalid_argument);
  // The retired counters-only v1 format is no longer read.
  EXPECT_THROW(restore("hydra-obs-snapshot v1\nsim injected 7\nend\n"),
               std::invalid_argument);
  // A valid empty snapshot is fine.
  EXPECT_NO_THROW(restore("hydra-obs-snapshot v2\nend\n"));
}
