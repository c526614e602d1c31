// Observability layer tests: metrics registry semantics, zero-cost
// disabled paths, table/interpreter/network instrumentation, and per-packet
// hop tracing through a leaf-spine fabric.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "forwarding/ipv4_ecmp.hpp"
#include "hydra/hydra.hpp"
#include "net/network.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "p4rt/table.hpp"

using namespace hydra;

// ---- registry -------------------------------------------------------------

TEST(Registry, CounterSemantics) {
  obs::Registry reg;
  obs::Counter c = reg.counter("x");
  EXPECT_TRUE(c.attached());
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(reg.counter_value("x"), 42u);
  // Re-registering the same name shares the slot.
  obs::Counter again = reg.counter("x");
  again.inc();
  EXPECT_EQ(c.value(), 43u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, GaugeSemantics) {
  obs::Registry reg;
  obs::Gauge g = reg.gauge("level");
  g.set(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(reg.gauge_value("level"), 2.0);
}

TEST(Registry, HistogramSemantics) {
  obs::Registry reg;
  obs::Histogram h = reg.histogram("lat", {1.0, 10.0, 100.0});
  h.observe(0.5);    // bucket 0 (<= 1)
  h.observe(1.0);    // bucket 0 (inclusive upper bound)
  h.observe(5.0);    // bucket 1
  h.observe(1000.0); // overflow bucket
  ASSERT_NE(h.data(), nullptr);
  EXPECT_EQ(h.data()->buckets, (std::vector<std::uint64_t>{2, 1, 0, 1}));
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1006.5);
}

TEST(Registry, KindConflictThrows) {
  obs::Registry reg;
  reg.counter("m");
  EXPECT_THROW(reg.gauge("m"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("m", {1.0}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("h", {2.0, 1.0}), std::invalid_argument);
}

TEST(Registry, DetachedHandlesAreNoOps) {
  obs::Counter c;
  obs::Gauge g;
  obs::Histogram h;
  c.inc();
  g.set(3.0);
  h.observe(1.0);
  EXPECT_FALSE(c.attached());
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(Registry, ResetZeroesValuesKeepsRegistrations) {
  obs::Registry reg;
  obs::Counter c = reg.counter("c");
  obs::Gauge g = reg.gauge("g");
  obs::Histogram h = reg.histogram("h", {1.0});
  c.inc(7);
  g.set(7.0);
  h.observe(0.5);
  reg.reset();
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(c.value(), 0u);  // handles stay valid
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.data()->buckets.size(), 2u);
  c.inc();
  EXPECT_EQ(reg.counter_value("c"), 1u);
}

TEST(Registry, SnapshotIsDeterministicAcrossRegistrationOrder) {
  obs::Registry a;
  a.counter("zeta").inc(3);
  a.counter("alpha").inc(1);
  a.gauge("mid").set(2.5);
  a.histogram("hist", {1.0, 2.0}).observe(1.5);

  obs::Registry b;
  b.histogram("hist", {1.0, 2.0}).observe(1.5);
  b.gauge("mid").set(2.5);
  b.counter("alpha").inc(1);
  b.counter("zeta").inc(3);

  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_NE(a.to_json().find("\"alpha\": 1"), std::string::npos);
}

// ---- table instrumentation ------------------------------------------------

TEST(TableMetrics, CountsHitsMissesAndCacheHits) {
  obs::Registry reg;
  p4rt::Table with{"t", {{p4rt::MatchKind::kExact, 32}}};
  p4rt::Table without{"t", {{p4rt::MatchKind::kExact, 32}}};
  p4rt::TableMetrics tm;
  tm.hits = reg.counter("t.hits");
  tm.misses = reg.counter("t.misses");
  tm.cache_hits = reg.counter("t.cache_hits");
  with.attach_metrics(tm);
  for (p4rt::Table* t : {&with, &without}) {
    t->insert_exact({BitVec(32, 5)}, {BitVec(32, 50)});
  }

  const std::vector<BitVec> hit_key{BitVec(32, 5)};
  const std::vector<BitVec> miss_key{BitVec(32, 6)};
  // Instrumented and uninstrumented tables answer identically.
  EXPECT_EQ(with.lookup(hit_key) != nullptr, without.lookup(hit_key) != nullptr);
  EXPECT_EQ(with.lookup(miss_key), nullptr);
  EXPECT_EQ(without.lookup(miss_key), nullptr);
  with.lookup(miss_key);  // served by the last-hit cache

  EXPECT_EQ(reg.counter_value("t.hits"), 1u);
  EXPECT_EQ(reg.counter_value("t.misses"), 2u);
  EXPECT_EQ(reg.counter_value("t.cache_hits"), 1u);
}

// ---- network instrumentation ---------------------------------------------

namespace {

struct Bed {
  net::LeafSpine fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net{fabric.topo};
  std::shared_ptr<fwd::Ipv4EcmpProgram> routing =
      fwd::install_leaf_spine_routing(net, fabric);
  int dep = net.deploy(compile_library_checker("stateful_firewall"));

  std::uint32_t ip(int host) const { return net.topo().node(host).ip; }

  // Installs the bidirectional allow entries the firewall checker wants.
  void allow(int a, int b) {
    for (const auto& [s, d] : {std::pair{a, b}, std::pair{b, a}}) {
      net.dict_insert_all(dep, "allowed",
                          {BitVec(32, ip(s)), BitVec(32, ip(d))},
                          {BitVec::from_bool(true)});
    }
  }

  void send(int from, int to) {
    net.send_from_host(from, p4rt::make_udp(ip(from), ip(to), 40000, 80, 64));
    net.events().run();
  }
};

}  // namespace

TEST(NetworkObs, MetricsEndToEnd) {
  Bed bed;
  const int h0 = bed.fabric.hosts[0][0];
  const int h2 = bed.fabric.hosts[1][0];
  bed.allow(h0, h2);
  bed.net.set_observability(true);
  bed.send(h0, h2);

  obs::Registry& reg = bed.net.metrics();
  // Cross-leaf path: leaf -> spine -> leaf = 3 switch traversals.
  std::uint64_t forwarded = 0;
  for (const char* sw : {"leaf1", "leaf2", "spine1", "spine2"}) {
    forwarded +=
        reg.counter_value("net.switch." + std::string(sw) + ".forwarded");
  }
  EXPECT_EQ(forwarded, 3u);
  EXPECT_EQ(reg.counter_value("checker.stateful_firewall.init_runs"), 1u);
  EXPECT_EQ(reg.counter_value("checker.stateful_firewall.tele_runs"), 3u);
  EXPECT_EQ(reg.counter_value("checker.stateful_firewall.check_runs"), 1u);
  EXPECT_EQ(reg.counter_value("checker.stateful_firewall.rejects"), 0u);
  EXPECT_GT(reg.counter_value("p4rt.table.stateful_firewall.allowed.hits"),
            0u);
  EXPECT_GT(
      reg.counter_value("p4rt.interp.stateful_firewall.instructions"), 0u);
  EXPECT_GT(reg.counter_value("fwd.ipv4_ecmp.routes.hits"), 0u);

  const std::string json = bed.net.metrics_json();
  EXPECT_NE(json.find("\"net.packets.delivered\": 1"), std::string::npos);
  EXPECT_NE(json.find(".utilization"), std::string::npos);
  // 4 switches x 2 directional entries (src->dst and dst->src).
  EXPECT_DOUBLE_EQ(
      reg.gauge_value("p4rt.table.stateful_firewall.allowed.entries"), 8.0);
}

TEST(NetworkObs, MetricsAccessorsThrowWhileDisabled) {
  Bed bed;
  EXPECT_THROW(bed.net.metrics(), std::logic_error);
  EXPECT_THROW(bed.net.trace_sink(), std::logic_error);
  EXPECT_FALSE(bed.net.observability_enabled());
}

TEST(NetworkObs, DisableDetachesHandlesSafely) {
  Bed bed;
  const int h0 = bed.fabric.hosts[0][0];
  const int h2 = bed.fabric.hosts[1][0];
  bed.allow(h0, h2);
  bed.net.set_observability(true);
  bed.send(h0, h2);
  bed.net.set_observability(false);
  EXPECT_FALSE(bed.net.observability_enabled());
  // Post-disable traffic must not touch the destroyed registry (ASan/UBSan
  // in CI guards the dangling-handle case).
  bed.send(h0, h2);
  EXPECT_EQ(bed.net.counters().delivered, 2u);
}

TEST(NetworkObs, TracedPacketThroughLeafSpine) {
  Bed bed;
  const int h0 = bed.fabric.hosts[0][0];
  const int h2 = bed.fabric.hosts[1][0];
  bed.allow(h0, h2);
  bed.net.trace_next(1);
  bed.send(h0, h2);
  bed.send(h0, h2);  // second packet is beyond the sampling budget

  const auto& traces = bed.net.trace_sink().traces();
  ASSERT_EQ(traces.size(), 1u);
  const obs::PacketTrace& t = traces.front();
  EXPECT_EQ(t.fate, obs::PacketFate::kDelivered);
  EXPECT_NE(t.flow.find(" udp"), std::string::npos);
  ASSERT_EQ(t.hops.size(), 3u);
  EXPECT_EQ(t.hops[0].switch_name, "leaf1");
  EXPECT_EQ(t.hops[2].switch_name, "leaf2");
  EXPECT_TRUE(t.hops[0].first_hop);
  EXPECT_FALSE(t.hops[0].last_hop);
  EXPECT_TRUE(t.hops[2].last_hop);
  for (const auto& h : t.hops) {
    EXPECT_GE(h.eg_port, 0);
    EXPECT_EQ(h.forwarding, "ipv4-ecmp");
    EXPECT_FALSE(h.rejected);
  }
  // First hop ran init then tele; last hop ran the check block.
  ASSERT_EQ(t.hops[0].checkers.size(), 2u);
  EXPECT_TRUE(t.hops[0].checkers[0].ran_init);
  EXPECT_TRUE(t.hops[0].checkers[1].ran_tele);
  ASSERT_EQ(t.hops[2].checkers.size(), 1u);
  EXPECT_TRUE(t.hops[2].checkers[0].ran_check);
  EXPECT_FALSE(t.hops[2].checkers[0].reject);

  // Delivered-hop histogram saw the 3-hop journey.
  const std::string json = bed.net.metrics_json();
  EXPECT_NE(json.find("net.delivered.hops"), std::string::npos);
  EXPECT_NE(bed.net.trace_sink().to_json().find("\"fate\": \"delivered\""),
            std::string::npos);
}

TEST(NetworkObs, TraceRecordsRejectVerdictAndReportGainsFlowIdentity) {
  Bed bed;  // no allow entries: the firewall rejects at the last hop
  const int h0 = bed.fabric.hosts[0][0];
  const int h2 = bed.fabric.hosts[1][0];
  bed.net.trace_next(1);
  bed.send(h0, h2);

  ASSERT_EQ(bed.net.trace_sink().traces().size(), 1u);
  const obs::PacketTrace& t = bed.net.trace_sink().traces().front();
  EXPECT_EQ(t.fate, obs::PacketFate::kRejected);
  ASSERT_EQ(t.hops.size(), 3u);
  EXPECT_TRUE(t.hops[2].rejected);
  const obs::CheckerHopRecord& last = t.hops[2].checkers.back();
  EXPECT_TRUE(last.reject);
  ASSERT_FALSE(last.reports.empty());
  // The firewall's tele.violated flag was set at the first hop and carried.
  bool saw_violated = false;
  for (const auto& f : t.hops[0].checkers[0].tele) {
    if (f.name.find("violated") != std::string::npos) {
      saw_violated = f.after == 1;
    }
  }
  EXPECT_TRUE(saw_violated);

  // The ReportRecord names the flow and the hop where it fired.
  ASSERT_FALSE(bed.net.reports().empty());
  const net::ReportRecord& r = bed.net.reports().back();
  EXPECT_TRUE(r.flow.parsed);
  EXPECT_EQ(r.flow.src_ip, bed.ip(h0));
  EXPECT_EQ(r.flow.dst_ip, bed.ip(h2));
  EXPECT_EQ(r.flow.src_port, 40000);
  EXPECT_EQ(r.flow.dst_port, 80);
  EXPECT_EQ(r.hop_count, 3);
  EXPECT_NE(r.flow.to_string().find(":40000 -> "), std::string::npos);

  EXPECT_EQ(bed.net.metrics().counter_value(
                "checker.stateful_firewall.rejects"), 1u);
  // Narrative renders the verdict for terminal consumption.
  EXPECT_NE(obs::TraceSink::narrative(t).find("VERDICT: reject"),
            std::string::npos);
}

// ---- Prometheus exposition ------------------------------------------------

TEST(Prometheus, EscapesLabelValues) {
  EXPECT_EQ(obs::prom_escape("plain"), "plain");
  EXPECT_EQ(obs::prom_escape("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");

  obs::Registry reg;
  reg.counter("weird", "hydra_weird_total", {{"name", "q\"v\\x\ny"}}).inc();
  EXPECT_NE(obs::to_prometheus(reg).find(
                "hydra_weird_total{name=\"q\\\"v\\\\x\\ny\"} 1"),
            std::string::npos);
}

TEST(Prometheus, FamilyFromNameSanitizesAndSuffixes) {
  using obs::MetricKind;
  EXPECT_EQ(obs::prom_family_from_name("net.packets.delivered",
                                       MetricKind::kCounter),
            "hydra_net_packets_delivered_total");
  // Counters already ending in _total keep a single suffix.
  EXPECT_EQ(obs::prom_family_from_name("x_total", MetricKind::kCounter),
            "hydra_x_total");
  EXPECT_EQ(obs::prom_family_from_name("net.time_s", MetricKind::kGauge),
            "hydra_net_time_s");
  EXPECT_EQ(obs::prom_family_from_name("net.delivered.hops",
                                       MetricKind::kHistogram),
            "hydra_net_delivered_hops");
}

TEST(Prometheus, ExpositionIsSortedTypedAndCumulative) {
  obs::Registry reg;
  // Registered deliberately out of order: families and samples must still
  // come out sorted.
  reg.counter("b.count", "hydra_zeta_total", {{"property", "p1"}}).inc(2);
  reg.counter("a.count", "hydra_zeta_total", {{"property", "p0"}}).inc();
  reg.gauge("g", "hydra_alpha", {{"k", "v"}}).set(1.5);
  obs::Histogram h =
      reg.histogram("h", "hydra_lat_seconds", {}, {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(100.0);

  const std::string text = obs::to_prometheus(reg);
  const std::string one = obs::detail::format_double(1.0);
  const std::string ten = obs::detail::format_double(10.0);
  const auto pos = [&text](const std::string& needle) {
    const std::size_t p = text.find(needle);
    EXPECT_NE(p, std::string::npos) << needle << "\nin:\n" << text;
    return p;
  };
  // TYPE line per family, families in sorted order.
  const std::size_t alpha = pos("# TYPE hydra_alpha gauge\n");
  const std::size_t lat = pos("# TYPE hydra_lat_seconds histogram\n");
  const std::size_t zeta = pos("# TYPE hydra_zeta_total counter\n");
  EXPECT_LT(alpha, lat);
  EXPECT_LT(lat, zeta);
  // Samples within a family sorted by label body.
  EXPECT_LT(pos("hydra_zeta_total{property=\"p0\"} 1\n"),
            pos("hydra_zeta_total{property=\"p1\"} 2\n"));
  // Buckets are cumulative, +Inf terminated, with _sum and _count.
  pos("hydra_lat_seconds_bucket{le=\"" + one + "\"} 1\n");
  pos("hydra_lat_seconds_bucket{le=\"" + ten + "\"} 2\n");
  pos("hydra_lat_seconds_bucket{le=\"+Inf\"} 3\n");
  pos("hydra_lat_seconds_sum " + obs::detail::format_double(105.5) + "\n");
  pos("hydra_lat_seconds_count 3\n");
  pos("hydra_alpha{k=\"v\"} " + obs::detail::format_double(1.5) + "\n");
}

TEST(Prometheus, FamilyKindConflictThrows) {
  obs::Registry reg;
  reg.counter("c", "hydra_same", {});
  reg.gauge("g", "hydra_same", {});
  EXPECT_THROW(obs::to_prometheus(reg), std::invalid_argument);
}

TEST(Prometheus, HistogramQuantileInterpolatesAndClamps) {
  const std::vector<double> bounds{1.0, 2.0, 4.0};
  const std::vector<std::uint64_t> buckets{0, 10, 0, 10};  // overflow last
  // rank 5 of 10 in [1, 2) -> midpoint.
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(0.25, bounds, buckets), 1.5);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(0.5, bounds, buckets), 2.0);
  // Overflow bucket clamps to the last finite bound.
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(0.99, bounds, buckets), 4.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(0.5, bounds, {0, 0, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(0.5, {}, {}), 0.0);
}

TEST(Prometheus, HistogramQuantileIsNaNFreeOnDegenerateInput) {
  const std::vector<double> bounds{1.0, 2.0};
  const std::vector<std::uint64_t> buckets{3, 4, 1};
  // Empty / all-zero bucket windows and missing bounds return 0, never
  // NaN or a crash — the health evaluator feeds idle windows through here.
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(0.99, bounds, {}), 0.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(0.99, {}, buckets), 0.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(0.99, bounds, {0, 0, 0}), 0.0);
  // Non-finite or out-of-range quantiles clamp instead of poisoning the
  // interpolation.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(nan, bounds, buckets),
                   obs::histogram_quantile(0.0, bounds, buckets));
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(-1.0, bounds, buckets),
                   obs::histogram_quantile(0.0, bounds, buckets));
  const double q1 = obs::histogram_quantile(1.0, bounds, buckets);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(inf, bounds, buckets), q1);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(2.0, bounds, buckets), q1);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_TRUE(std::isfinite(obs::histogram_quantile(q, bounds, buckets)));
  }
}

TEST(Prometheus, ExpositionEndsWithSingleTrailingNewline) {
  obs::Registry reg;
  reg.counter("c", "hydra_c_total", {}).inc();
  const std::string text = obs::to_prometheus(reg);
  ASSERT_GE(text.size(), 2u);
  EXPECT_EQ(text.back(), '\n');
  EXPECT_NE(text[text.size() - 2], '\n');
}

// ---- export scheduler -----------------------------------------------------

TEST(ExportScheduler, WindowDeltasRatesRingAndRebaseline) {
  obs::ExportScheduler sched(1e-3, 1e-3, {1.0, 10.0}, /*ring_capacity=*/2);
  EXPECT_DOUBLE_EQ(sched.next_tick(), 1e-3);

  int fires = 0;
  sched.set_on_tick([&fires](const obs::WindowSample&) { ++fires; });

  obs::ExportCumulative c1;
  c1.delivered = 5;
  c1.rejected = 1;
  c1.latency_buckets = {3, 1, 1};
  c1.latency_count = 5;
  c1.latency_sum = 7.5;
  c1.properties.push_back({"fw", 1, 1, 5, 10});
  sched.tick(c1);
  ASSERT_EQ(sched.windows().size(), 1u);
  const obs::WindowSample& w0 = sched.windows().front();
  EXPECT_DOUBLE_EQ(w0.t0, 0.0);
  EXPECT_DOUBLE_EQ(w0.t1, 1e-3);
  EXPECT_EQ(w0.delta.delivered, 5u);
  EXPECT_DOUBLE_EQ(w0.pps, 5000.0);
  EXPECT_DOUBLE_EQ(w0.rejects_per_s, 1000.0);
  ASSERT_EQ(w0.delta.properties.size(), 1u);
  EXPECT_EQ(w0.delta.properties[0].check_runs, 5u);
  EXPECT_DOUBLE_EQ(sched.next_tick(), 2e-3);

  obs::ExportCumulative c2 = c1;
  c2.delivered = 8;
  c2.properties[0].check_runs = 9;
  sched.tick(c2);
  EXPECT_EQ(sched.windows().back().delta.delivered, 3u);
  EXPECT_DOUBLE_EQ(sched.windows().back().pps, 3000.0);
  EXPECT_EQ(sched.windows().back().delta.properties[0].check_runs, 4u);

  // Third capture evicts the oldest; indices stay monotone.
  sched.tick(c2);
  EXPECT_EQ(sched.captured(), 3u);
  ASSERT_EQ(sched.windows().size(), 2u);
  EXPECT_EQ(sched.windows().front().index, 1u);
  EXPECT_EQ(sched.windows().back().delta.delivered, 0u);
  EXPECT_EQ(fires, 3);

  // Rebaseline drops windows and re-anchors deltas without rewinding the
  // tick clock.
  const double tick_before = sched.next_tick();
  sched.rebaseline(obs::ExportCumulative{});
  EXPECT_EQ(sched.captured(), 0u);
  EXPECT_TRUE(sched.windows().empty());
  EXPECT_DOUBLE_EQ(sched.next_tick(), tick_before);
  sched.tick(c1);
  EXPECT_EQ(sched.windows().back().delta.delivered, 5u);
}

TEST(ExportScheduler, RingWrapsManyTimesOnLongRunsWithoutDrift) {
  // Long-run wraparound: a small ring lapped thousands of times must keep
  // indices monotone, deltas exact, and tick boundaries drift-free (they
  // are computed multiplicatively, not by repeated addition).
  constexpr std::size_t kRing = 8;
  constexpr std::uint64_t kTicks = 10000;
  obs::ExportScheduler sched(1e-3, 1e-3, {}, kRing);
  obs::ExportCumulative cum;
  for (std::uint64_t i = 0; i < kTicks; ++i) {
    cum.injected += 3;
    cum.delivered += 2;
    sched.tick(cum);
    ASSERT_LE(sched.windows().size(), kRing);
  }
  EXPECT_EQ(sched.captured(), kTicks);
  ASSERT_EQ(sched.windows().size(), kRing);
  // The ring holds exactly the last kRing windows, contiguously indexed.
  for (std::size_t i = 0; i < kRing; ++i) {
    const obs::WindowSample& w = sched.windows()[i];
    EXPECT_EQ(w.index, kTicks - kRing + i);
    EXPECT_EQ(w.delta.injected, 3u);
    EXPECT_EQ(w.delta.delivered, 2u);
    // Boundaries are exact multiples of the interval (multiplicative, no
    // accumulated error); window width is their difference.
    EXPECT_DOUBLE_EQ(w.t1, 1e-3 + 1e-3 * static_cast<double>(w.index));
  }
  // No accumulated floating-point drift after 10k boundaries.
  EXPECT_DOUBLE_EQ(sched.next_tick(),
                   1e-3 + 1e-3 * static_cast<double>(kTicks));
}

namespace {

// Leaf-spine run with the exporter armed: an allowed flow sent on a fixed
// schedule so virtual time crosses several tick boundaries in one drain.
struct ExportBed : Bed {
  explicit ExportBed(std::size_t ring_capacity = 128) {
    const int h0 = fabric.hosts[0][0];
    const int h2 = fabric.hosts[1][0];
    allow(h0, h2);
    net.set_export_interval(5e-6, ring_capacity);
    for (int i = 0; i < 20; ++i) {
      const double t = 2e-6 * (i + 1);
      net.events().schedule_at(t, [this, h0, h2] {
        net.send_from_host(h0,
                           p4rt::make_udp(ip(h0), ip(h2), 40000, 80, 64));
      });
    }
    net.events().run();
  }
};

}  // namespace

TEST(NetworkObs, StreamingExportLabeledFamiliesAndCompatNames) {
  ExportBed bed;
  EXPECT_TRUE(bed.net.export_armed());
  EXPECT_TRUE(bed.net.observability_enabled());
  ASSERT_GT(bed.net.export_scheduler_ptr()->captured(), 0u);

  const std::string prom = bed.net.export_prometheus();
  for (const char* needle :
       {"# TYPE hydra_checker_rejects_total counter",
        "hydra_checker_rejects_total{property=\"stateful_firewall\"} 0",
        "hydra_checker_check_runs_total{property=\"stateful_firewall\"}",
        "hydra_switch_forwarded_total{switch=\"leaf1\"}",
        "hydra_table_hits_total{property=\"stateful_firewall\","
        "table=\"allowed\"}",
        "hydra_delivered_latency_seconds_bucket",
        "le=\"+Inf\"", "hydra_delivered_latency_seconds_count",
        "hydra_link_utilization{",
        "# TYPE hydra_net_packets_delivered gauge"}) {
    EXPECT_NE(prom.find(needle), std::string::npos) << needle;
  }

  // The flat snapshot names survive untouched next to the labeled families.
  const std::string json = bed.net.metrics_json();
  EXPECT_NE(json.find("\"checker.stateful_firewall.rejects\": 0"),
            std::string::npos);
  EXPECT_NE(json.find("\"net.switch.leaf1.forwarded\""), std::string::npos);

  const std::string series = bed.net.window_series_json();
  EXPECT_NE(series.find("\"property\": \"stateful_firewall\""),
            std::string::npos);
  EXPECT_NE(series.find("\"pps\": "), std::string::npos);
}

TEST(NetworkObs, WindowSeriesDeterministicAcrossRuns) {
  ExportBed a;
  ExportBed b;
  EXPECT_EQ(a.net.window_series_json(), b.net.window_series_json());
  EXPECT_EQ(a.net.export_prometheus(), b.net.export_prometheus());
}

TEST(NetworkObs, WindowRingEvictsButKeepsCaptureCount) {
  ExportBed small(/*ring_capacity=*/4);
  const std::uint64_t captured = small.net.export_scheduler_ptr()->captured();
  ASSERT_GT(captured, 4u);
  const std::string series = small.net.window_series_json();
  std::size_t windows = 0;
  for (std::size_t p = series.find("\"index\": "); p != std::string::npos;
       p = series.find("\"index\": ", p + 1)) {
    ++windows;
  }
  EXPECT_EQ(windows, 4u);
  EXPECT_NE(series.find("\"captured\": " + std::to_string(captured)),
            std::string::npos);
}

TEST(NetworkObs, ExportGuardsAndDisarm) {
  Bed bed;
  EXPECT_FALSE(bed.net.export_armed());
  EXPECT_THROW(bed.net.window_series_json(), std::logic_error);
  EXPECT_THROW(bed.net.set_export_callback([](const obs::WindowSample&) {}),
               std::logic_error);

  bed.net.set_export_interval(1e-5);
  EXPECT_TRUE(bed.net.export_armed());
  int fires = 0;
  bed.net.set_export_callback(
      [&fires](const obs::WindowSample&) { ++fires; });

  bed.net.set_export_interval(0);  // disarm
  EXPECT_FALSE(bed.net.export_armed());
  EXPECT_THROW(bed.net.window_series_json(), std::logic_error);
  // Observability stays on; traffic still flows with a null scheduler.
  EXPECT_TRUE(bed.net.observability_enabled());
  const int h0 = bed.fabric.hosts[0][0];
  const int h2 = bed.fabric.hosts[1][0];
  bed.allow(h0, h2);
  bed.send(h0, h2);
  EXPECT_EQ(bed.net.counters().delivered, 1u);
  EXPECT_EQ(fires, 0);
}

TEST(NetworkObs, ResetSemantics) {
  Bed bed;
  const int h0 = bed.fabric.hosts[0][0];
  const int h2 = bed.fabric.hosts[1][0];
  bed.net.trace_next(4);
  bed.send(h0, h2);  // rejected (no allow entries) -> report + trace

  int callback_fires = 0;
  bed.net.subscribe_reports(
      [&callback_fires](const net::ReportRecord&) { ++callback_fires; });

  ASSERT_FALSE(bed.net.reports().empty());
  const std::size_t names_before = bed.net.metrics().size();
  ASSERT_GT(
      bed.net.metrics().counter_value("checker.stateful_firewall.rejects"),
      0u);

  // clear_reports drops records only; subscribers keep firing.
  bed.net.clear_reports();
  EXPECT_TRUE(bed.net.reports().empty());
  bed.send(h0, h2);
  EXPECT_GT(callback_fires, 0);
  EXPECT_FALSE(bed.net.reports().empty());

  // reset_observability zeroes metrics and drops traces; registrations,
  // the trace_next countdown, and reports are untouched.
  EXPECT_FALSE(bed.net.trace_sink().empty());
  bed.net.reset_observability();
  EXPECT_TRUE(bed.net.trace_sink().empty());
  EXPECT_EQ(
      bed.net.metrics().counter_value("checker.stateful_firewall.rejects"),
      0u);
  EXPECT_EQ(bed.net.metrics().size(), names_before);
  EXPECT_FALSE(bed.net.reports().empty());  // not reset_observability's job

  // clear_report_subscribers drops the callbacks.
  const int fires_before = callback_fires;
  bed.net.clear_report_subscribers();
  bed.send(h0, h2);
  EXPECT_EQ(callback_fires, fires_before);
}
