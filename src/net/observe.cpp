// The observability plane of net::Network: the hop seam the simulator
// calls (observe_*), packet traces, the forensics flight recorder and
// violation assembly, hop profiling, streaming export, the live plane,
// pull-model metrics, and the wiring of every hot-path obs handle to the
// registry. Everything here runs only while observability is on; the
// simulator (network.cpp) never reads ObsState itself.
#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "net/network.hpp"

namespace hydra::net {

namespace {

obs::TopKFlow to_topk_flow(const p4rt::FlowId& f) {
  return {f.parsed, f.src_ip, f.dst_ip, f.src_port, f.dst_port, f.proto};
}

// A report's payload values as words, as traces and violations show them.
std::vector<std::uint64_t> payload_words(const std::vector<BitVec>& values) {
  std::vector<std::uint64_t> words;
  words.reserve(values.size());
  for (const BitVec& v : values) words.push_back(v.value());
  return words;
}

}  // namespace

// ---- the hop seam ---------------------------------------------------------

void Network::observe_inject(const p4rt::Packet& pkt) {
  if (obs_->trace_left == 0 || !obs_->traces.has_capacity()) return;
  --obs_->trace_left;
  obs_->traces.begin(pkt.id, events_.now(), p4rt::flow_of(pkt).to_string());
}

obs::TraceHop* Network::observe_hop_begin(const p4rt::Packet& pkt,
                                          const HopContext& hctx) {
  // The untraced cost is one branch plus, while any trace is live, one
  // hash probe on the packet id. The record is appended to the packet's
  // trace here and filled in place; the sink's deque keeps it put while
  // the hop runs.
  if (!obs_->traces.tracing()) return nullptr;
  obs::PacketTrace* tr = obs_->traces.active(pkt.id);
  if (tr == nullptr) return nullptr;
  obs::TraceHop* hop = &tr->hops.emplace_back();
  hop->hop = pkt.hops;
  hop->switch_id = hctx.switch_id;
  hop->switch_name = topo_.node(hctx.switch_id).name;
  hop->time = events_.now();
  hop->in_port = hctx.in_port;
  hop->first_hop = hctx.first_hop;
  hop->wire_bytes = hctx.wire_bytes;
  return hop;
}

void Network::observe_hop_end(const p4rt::Packet& pkt, const HopContext& hctx,
                              obs::TraceHop* hop,
                              const ForwardingProgram* prog, bool rejected,
                              std::uint64_t rejected_deps,
                              const char* reject_reason) {
  if (hop != nullptr) {
    hop->eg_port = hctx.eg_port;
    hop->last_hop = hctx.last_hop;
    hop->fwd_drop = hctx.fwd_drop;
    hop->rejected = rejected;
    hop->forwarding = prog != nullptr ? prog->name() : "none";
  }
  if (obs_->recorder != nullptr && (rejected || !hop_reports_.empty())) {
    build_violation(pkt, hctx.switch_id, rejected, reject_reason);
  }
  obs::TopKAttribution* topk =
      obs_->live != nullptr ? obs_->live->topk.get() : nullptr;
  if (topk != nullptr) {
    for (const ReportRecord& rec : hop_reports_) {
      topk->on_report(to_topk_flow(rec.flow), rec.deployment);
    }
  }
  SwitchObsCounters& c =
      obs_->switches[static_cast<std::size_t>(hctx.switch_id)];
  if (hctx.fwd_drop) {
    c.fwd_dropped.inc();
    observe_fate(pkt, obs::PacketFate::kFwdDropped);
  } else if (rejected) {
    if (topk != nullptr) {
      topk->on_rejected(to_topk_flow(p4rt::flow_of(pkt)), rejected_deps);
    }
    c.rejected.inc();
    observe_fate(pkt, obs::PacketFate::kRejected);
  } else {
    c.forwarded.inc();
  }
}

void Network::observe_fate(const p4rt::Packet& pkt, obs::PacketFate fate) {
  if (fate == obs::PacketFate::kDelivered) {
    if (obs_->live != nullptr) {
      obs_->live->topk->on_delivered(to_topk_flow(p4rt::flow_of(pkt)));
    }
    obs_->delivered_hops.observe(pkt.hops);
    // Detached (one branch) unless streaming export armed the handle.
    obs_->delivered_latency.observe(events_.now() - pkt.created_at);
  }
  if (obs_->traces.tracing()) obs_->traces.finish(pkt.id, fate, events_.now());
}

void Network::observe_refill(std::size_t slot) {
  // A reused slot must not inherit the old property's attribution.
  if (obs_->live != nullptr) {
    obs_->live->topk->redefine_property(static_cast<int>(slot),
                                        deployments_[slot].checker->name);
  }
}

// ---- traces and forensics -------------------------------------------------

obs::CheckerHopRecord Network::trace_checker_record(
    const Deployment& d, const p4rt::TeleFrame& after,
    const std::vector<std::uint64_t>* before, const p4rt::ExecOutcome& out,
    bool init, bool tele, bool check) const {
  obs::CheckerHopRecord rec;
  rec.checker = d.checker->name;
  rec.ran_init = init;
  rec.ran_tele = tele;
  rec.ran_check = check;
  rec.reject = out.reject;
  for (const auto& r : out.reports) rec.reports.push_back(payload_words(r));
  const auto& entries = d.checker->layout.entries;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    obs::TraceFieldValue fv;
    fv.name = d.checker->ir.field(entries[i].field).name;
    fv.before = before != nullptr ? (*before)[i] : 0;
    fv.after = after.words[i];
    rec.tele.push_back(std::move(fv));
  }
  return rec;
}

void Network::record_hop_forensics(const Deployment& d, std::size_t di,
                                   const p4rt::Packet& pkt,
                                   const p4rt::TeleFrame& frame,
                                   const HopContext& hctx, SimTime t,
                                   const char* fwd_reason,
                                   const char* fault_note) {
  obs::HopRecord& rec = obs_->recorder->append(hctx.switch_id, d.rec);
  rec.packet_id = pkt.id;
  rec.hop = pkt.hops;
  rec.switch_id = hctx.switch_id;
  rec.deployment = static_cast<int>(di);
  rec.time = t;
  rec.in_port = hctx.in_port;
  rec.eg_port = hctx.eg_port;
  rec.first_hop = hctx.first_hop;
  rec.last_hop = hctx.last_hop;
  rec.fwd_drop = hctx.fwd_drop;
  rec.fwd_reason = fwd_reason;
  rec.fault_note = fault_note;
  const auto& entries = d.checker->layout.entries;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    rec.add_tele(static_cast<std::int16_t>(entries[i].field.id),
                 frame.words[i]);
  }
}

void Network::build_violation(const p4rt::Packet& pkt, int sw, bool rejected,
                              const char* reject_reason) {
  if (obs_->violations.size() >= kMaxViolationReports) return;

  std::vector<const obs::HopRecord*> recs;
  obs_->recorder->collect(pkt.id, recs);
  std::sort(recs.begin(), recs.end(),
            [](const obs::HopRecord* a, const obs::HopRecord* b) {
              if (a->hop != b->hop) return a->hop < b->hop;
              return a->deployment < b->deployment;
            });

  obs::ViolationReport vr;
  vr.packet_id = pkt.id;
  vr.flow = p4rt::flow_of(pkt).to_string();
  vr.kind = rejected ? "reject" : "report";
  vr.reason = reject_reason != nullptr
                  ? reject_reason
                  : (rejected ? "checker_reject" : "checker_report");
  vr.switch_id = sw;
  vr.switch_name = topo_.node(sw).name;
  vr.time = events_.now();
  vr.hop_count = pkt.hops;
  for (const auto& rep : hop_reports_) {
    vr.report_payloads.push_back(payload_words(rep.values));
  }
  // Checkers behind the verdict: final-hop records that rejected/reported.
  for (const obs::HopRecord* r : recs) {
    if (r->hop != pkt.hops || (!r->reject && r->report_count == 0)) {
      continue;
    }
    const std::string& name =
        deployments_[static_cast<std::size_t>(r->deployment)].checker->name;
    if (std::find(vr.checkers.begin(), vr.checkers.end(), name) ==
        vr.checkers.end()) {
      vr.checkers.push_back(name);
    }
  }
  // One ViolationHop per hop number; one checker entry per record.
  for (const obs::HopRecord* r : recs) {
    if (vr.hops.empty() || vr.hops.back().hop != r->hop) {
      obs::ViolationHop vh;
      vh.hop = r->hop;
      vh.switch_id = r->switch_id;
      vh.switch_name = topo_.node(r->switch_id).name;
      vh.time = r->time;
      vh.in_port = r->in_port;
      vh.eg_port = r->eg_port;
      vh.first_hop = r->first_hop;
      vh.last_hop = r->last_hop;
      vh.fwd_drop = r->fwd_drop;
      vh.fwd_reason = r->fwd_reason != nullptr ? r->fwd_reason : "";
      vr.hops.push_back(std::move(vh));
    }
    const compiler::CompiledChecker& checker =
        *deployments_[static_cast<std::size_t>(r->deployment)].checker;
    const ir::CheckerIR& ir = checker.ir;
    obs::ViolationHopChecker vc;
    vc.checker = checker.name;
    vc.ran_init = r->ran_init;
    vc.ran_tele = r->ran_tele;
    vc.ran_check = r->ran_check;
    vc.reject = r->reject;
    vc.report_count = r->report_count;
    vc.provenance_truncated = r->truncated != 0;
    if (r->fault_note != nullptr) vc.fault_note = r->fault_note;
    for (int i = 0; i < r->n_table_hits; ++i) {
      const auto& th = r->table_hits[i];
      vc.table_hits.push_back(
          {ir.tables[static_cast<std::size_t>(th.table)].name, th.entry,
           th.hit});
    }
    for (int i = 0; i < r->n_reg_touches; ++i) {
      const auto& rt = r->reg_touches[i];
      vc.reg_touches.push_back(
          {ir.registers[static_cast<std::size_t>(rt.reg)].name, rt.wrote,
           rt.before, rt.after});
    }
    for (int i = 0; i < r->n_tele; ++i) {
      const auto& tv = r->tele[i];
      vc.tele.push_back(
          {ir.fields[static_cast<std::size_t>(tv.field)].name, tv.value});
    }
    vr.hops.back().checkers.push_back(std::move(vc));
  }
  // Truncated when the rings have already evicted the first-hop records
  // (or the packet entered the network before forensics was armed).
  vr.truncated = vr.hops.empty() || !vr.hops.front().first_hop;
  obs::detail::note_forensics_allocation();
  obs_->violations.push_back(std::move(vr));
}

void Network::set_forensics(bool enabled, std::size_t ring_capacity) {
  if (!enabled) {
    if (obs_ == nullptr || obs_->recorder == nullptr) return;
    obs_->recorder.reset();
    obs_->violations.clear();
    rewire_observability();  // disarms interpreter provenance capture
    return;
  }
  if (ring_capacity == 0) {
    throw std::invalid_argument("set_forensics: ring_capacity must be > 0");
  }
  set_observability(true);
  if (obs_->recorder != nullptr &&
      obs_->recorder->capacity() == ring_capacity) {
    return;
  }
  obs_->recorder = std::make_unique<obs::FlightRecorder>(topo_.node_count(),
                                                         ring_capacity);
  rewire_observability();
}

const std::vector<obs::ViolationReport>& Network::violation_reports() const {
  static const std::vector<obs::ViolationReport> kEmpty;
  return obs_ != nullptr ? obs_->violations : kEmpty;
}

std::string Network::violation_reports_json() const {
  return obs::violations_json(violation_reports());
}

void Network::clear_violation_reports() {
  if (obs_ != nullptr) obs_->violations.clear();
}

// ---- hop profiling ----------------------------------------------------------

void Network::set_engine_profiling(bool enabled) {
  if (!enabled) {
    if (obs_ == nullptr || obs_->profiler == nullptr) return;
    obs_->profiler.reset();
    return;
  }
  set_observability(true);
  if (obs_->profiler != nullptr) return;
  obs_->profiler = std::make_unique<obs::EngineProfiler>();
  rewire_observability();
}

obs::EngineProfiler& Network::engine_profiler() {
  if (obs_ == nullptr || obs_->profiler == nullptr) {
    throw std::logic_error(
        "engine profiling is off; call set_engine_profiling(true) first");
  }
  return *obs_->profiler;
}

// ---- streaming export -----------------------------------------------------

// Delivered-latency bucket grid: switch traversal is ~1us plus link
// propagation per hop, so the bounds span a single hop through long
// multi-hop / queueing tails.
const std::vector<double>& Network::delivered_latency_bounds() {
  static const std::vector<double> kBounds{1e-6, 2e-6, 5e-6, 1e-5, 2e-5,
                                           5e-5, 1e-4, 2e-4, 5e-4, 1e-3,
                                           1e-2};
  return kBounds;
}

void Network::set_export_interval(double interval_s,
                                  std::size_t ring_capacity) {
  if (!events_.empty()) {
    throw std::logic_error("set_export_interval: event queue must be idle");
  }
  if (interval_s <= 0.0) {
    if (obs_ != nullptr) {
      obs_->exporter.reset();
      obs_->delivered_latency = {};
    }
    return;
  }
  if (ring_capacity == 0) {
    throw std::invalid_argument(
        "set_export_interval: ring_capacity must be > 0");
  }
  set_observability(true);
  // Registered here — not in set_observability — so snapshots of
  // export-free runs keep their exact pre-export byte layout.
  obs_->delivered_latency = obs_->registry.histogram(
      "net.delivered.latency_s", "hydra_delivered_latency_seconds", {},
      delivered_latency_bounds());
  obs_->exporter = std::make_unique<obs::ExportScheduler>(
      interval_s, events_.now() + interval_s, delivered_latency_bounds(),
      ring_capacity);
  // Anchor the delta baseline at the arm point: the first window reports
  // activity since arming, not since process start.
  obs_->exporter->rebaseline(export_cumulative());
}

void Network::set_export_callback(obs::ExportScheduler::TickCallback cb) {
  if (obs_ == nullptr || obs_->exporter == nullptr) {
    throw std::logic_error(
        "streaming export is off; call set_export_interval first");
  }
  obs_->exporter->set_on_tick(std::move(cb));
}

std::string Network::export_prometheus() {
  collect_metrics();  // throws while observability is off
  std::vector<obs::PromFamily> extra;
  if (obs_->live != nullptr) obs_->live->topk->prom_families(extra);
  return obs::to_prometheus(obs_->registry, extra);
}

std::string Network::window_series_json() const {
  if (obs_ == nullptr || obs_->exporter == nullptr) {
    throw std::logic_error(
        "streaming export is off; call set_export_interval first");
  }
  return obs_->exporter->series_json();
}

// ---- live observability plane ---------------------------------------------

void Network::arm_live_obs(const LiveObsOptions& opts) {
  if (!events_.empty()) {
    throw std::logic_error("arm_live_obs: event queue must be idle");
  }
  if (obs_ == nullptr || obs_->exporter == nullptr) {
    throw std::logic_error(
        "arm_live_obs: streaming export must be armed first "
        "(set_export_interval)");
  }
  auto live = std::make_unique<ObsState::LiveObs>();
  obs::TopKConfig cfg;
  cfg.k = opts.topk_k;
  cfg.session_net = opts.session_net;
  cfg.session_mask = opts.session_mask;
  std::vector<std::string> props;
  props.reserve(deployments_.size());
  for (const auto& d : deployments_) props.push_back(d.checker->name);
  live->topk = std::make_unique<obs::TopKAttribution>(cfg, std::move(props));
  obs_->live = std::move(live);
}

void Network::disarm_live_obs() {
  if (obs_ != nullptr) obs_->live.reset();
}

void Network::set_live_publisher(obs::SnapshotPublisher* publisher) {
  if (obs_ == nullptr || obs_->live == nullptr) {
    throw std::logic_error(
        "set_live_publisher: live obs is off; call arm_live_obs first");
  }
  obs_->live->publisher = publisher;
}

const obs::HealthVerdict& Network::last_health() const {
  if (obs_ == nullptr || obs_->live == nullptr) {
    throw std::logic_error("last_health: live obs is off");
  }
  return obs_->live->health;
}

std::string Network::topk_json() const {
  if (obs_ == nullptr || obs_->live == nullptr) {
    throw std::logic_error("topk_json: live obs is off");
  }
  return obs_->live->topk->to_json();
}

void Network::update_live_after_tick() {
  ObsState::LiveObs& live = *obs_->live;
  const obs::ExportScheduler& sched = *obs_->exporter;
  live.health = obs::evaluate_health(sched.windows(), sched.latency_bounds(),
                                     obs::HealthThresholds{});
  // Gauges registered here (not at arm time) keep export-only runs
  // byte-identical to pre-live releases.
  obs::Registry& reg = obs_->registry;
  reg.gauge("health.status", "hydra_health_status", {})
      .set(static_cast<double>(static_cast<int>(live.health.status)));
  reg.gauge("health.reject_rate", "hydra_health_reject_rate", {})
      .set(live.health.reject_rate);
  reg.gauge("health.latency_p99_s", "hydra_health_latency_p99_seconds", {})
      .set(live.health.latency_p99_s);
  reg.gauge("health.fault_drop_rate", "hydra_health_fault_drop_rate", {})
      .set(live.health.fault_drop_rate);
  reg.gauge("health.cold_suppression_rate",
            "hydra_health_cold_suppression_rate", {})
      .set(live.health.cold_suppression_rate);
  if (live.publisher == nullptr) return;

  obs::LiveSnapshot snap;
  snap.tick_index = sched.captured();
  snap.sim_time = events_.now();
  snap.metrics_text = export_prometheus();
  snap.series_json = sched.series_json();
  snap.health_json = live.health.to_json();
  snap.violations_json = violation_reports_json();
  snap.topk_json = live.topk->to_json();
  live.publisher->publish(std::move(snap));
}

obs::ExportCumulative Network::export_cumulative() const {
  obs::ExportCumulative cum;
  cum.injected = counters_.injected;
  cum.delivered = counters_.delivered;
  cum.rejected = counters_.rejected;
  cum.fwd_dropped = counters_.fwd_dropped;
  cum.queue_dropped = counters_.queue_dropped;
  cum.fault_dropped = counters_.fault_dropped;
  if (obs_ == nullptr) return cum;
  const obs::Registry& reg = obs_->registry;
  // One row per property ever deployed (sorted unique), not per slot:
  // shared-checker deployments count once and retired properties keep
  // their attribution rows across undeploys and restores. The totals sum
  // the same rows: reports raised (from the monotone counters, since
  // reports() can be cleared mid-run, which would break deltas) and the
  // health burn-rate inputs.
  for (const std::string& cn : known_properties_) {
    obs::ExportCumulative::Property p;
    p.name = cn;
    p.rejects = reg.counter_value("checker." + cn + ".rejects");
    p.reports = reg.counter_value("checker." + cn + ".reports");
    p.check_runs = reg.counter_value("checker." + cn + ".check_runs");
    p.tele_runs = reg.counter_value("checker." + cn + ".tele_runs");
    cum.reports += p.reports;
    cum.decode_rejects +=
        reg.counter_value("checker." + cn + ".tele_decode_rejects");
    cum.cold_suppressed +=
        reg.counter_value("checker." + cn + ".cold_suppressed");
    cum.properties.push_back(std::move(p));
  }
  if (const obs::HistogramData* h = obs_->delivered_latency.data()) {
    cum.latency_buckets = h->buckets;
    cum.latency_count = h->count;
    cum.latency_sum = h->sum;
  }
  return cum;
}

void Network::export_tick_until(SimTime t) {
  obs::ExportScheduler* sched = export_scheduler_ptr();
  if (sched == nullptr) return;
  while (sched->next_tick() <= t) {
    sched->tick(export_cumulative());
    if (obs_->live != nullptr) update_live_after_tick();
  }
}

// ---- metric wiring --------------------------------------------------------

void Network::register_stale_counter(std::uint32_t gen) {
  GenerationInfo& g = generations_[gen];
  if (obs_ == nullptr) {
    g.stale = {};
    return;
  }
  const std::string& prop = g.property;
  g.stale = obs_->registry.counter(
      "checker." + prop + ".stale_generation",
      "hydra_checker_stale_generation_rejects_total",
      {{"property", prop}});
}

void Network::rewire_observability() {
  if (obs_ == nullptr) {
    // Detach every handle; none may outlive the registry it points into.
    for (auto& d : deployments_) {
      d.counters.fill({});
      d.interp->attach_metrics({});
      d.interp->set_provenance(nullptr);
      for (auto& state : d.per_switch) {
        for (auto& table : state.tables) table.attach_metrics({});
      }
    }
    for (GenerationInfo& g : generations_) g.stale = {};
    for (int i = 0; i < topo_.node_count(); ++i) {
      ForwardingProgram* prog = programs_[static_cast<std::size_t>(i)].get();
      if (prog != nullptr) prog->attach_metrics(nullptr);
    }
    return;
  }

  obs::Registry& reg = obs_->registry;
  // The slot counters' flat-name suffixes and families, by SlotCounter.
  static constexpr std::array<std::pair<const char*, const char*>,
                              kSlotCounters>
      kSlotCounterNames{{
          {"init_runs", "hydra_checker_init_runs_total"},
          {"tele_runs", "hydra_checker_tele_runs_total"},
          {"check_runs", "hydra_checker_check_runs_total"},
          {"rejects", "hydra_checker_rejects_total"},
          {"reports", "hydra_checker_reports_total"},
          {"tele_decode_rejects", "hydra_checker_tele_decode_rejects_total"},
          {"tele_decode_recovered",
           "hydra_checker_tele_decode_recovered_total"},
          {"cold_suppressed", "hydra_checker_cold_suppressed_total"},
      }};
  // Per-property counters are registered under their legacy flat names
  // (the JSON snapshot key, unchanged byte-for-byte) with a structured
  // Prometheus identity layered on top: one family per counter kind,
  // attributed by a property="<checker>" label.
  for (Deployment& d : deployments_) {
    const std::string& cn = d.checker->name;
    const std::vector<obs::Label> by_prop{{"property", cn}};
    for (std::size_t k = 0; k < kSlotCounters; ++k) {
      d.counters[k] = reg.counter(
          "checker." + cn + "." + kSlotCounterNames[k].first,
          kSlotCounterNames[k].second, by_prop);
    }

    p4rt::InterpMetrics im;
    im.instructions = reg.counter("p4rt.interp." + cn + ".instructions",
                                  "hydra_interp_instructions_total", by_prop);
    im.table_lookups = reg.counter("p4rt.interp." + cn + ".table_lookups",
                                   "hydra_interp_table_lookups_total",
                                   by_prop);
    im.reg_reads = reg.counter("p4rt.interp." + cn + ".reg_reads",
                               "hydra_interp_reg_reads_total", by_prop);
    im.reg_writes = reg.counter("p4rt.interp." + cn + ".reg_writes",
                                "hydra_interp_reg_writes_total", by_prop);
    d.interp->attach_metrics(im);
    // Provenance capture feeds the flight recorder; disarmed (one branch
    // per lookup/register op) unless forensics is on.
    d.interp->set_provenance(obs_->recorder != nullptr ? &d.rec : nullptr);
  }

  // Checker tables: one aggregate counter set per (checker, table) name,
  // shared by every switch's instance. Retired slots have no per-switch
  // state left to wire.
  for (auto& d : deployments_) {
    if (d.per_switch.empty()) continue;
    for (std::size_t t = 0; t < d.checker->ir.tables.size(); ++t) {
      const std::string& tn = d.checker->ir.tables[t].name;
      const std::string base = "p4rt.table." + d.checker->name + "." + tn;
      const std::vector<obs::Label> by_table{{"property", d.checker->name},
                                             {"table", tn}};
      for (int sw = 0; sw < topo_.node_count(); ++sw) {
        auto& state = d.per_switch[static_cast<std::size_t>(sw)];
        if (t >= state.tables.size()) continue;
        p4rt::TableMetrics tm;
        tm.hits = reg.counter(base + ".hits", "hydra_table_hits_total",
                              by_table);
        tm.misses = reg.counter(base + ".misses", "hydra_table_misses_total",
                                by_table);
        tm.cache_hits = reg.counter(base + ".cache_hits",
                                    "hydra_table_cache_hits_total", by_table);
        state.tables[t].attach_metrics(tm);
      }
    }
  }

  // Forwarding programs, each attached once however many switches share
  // it.
  std::vector<ForwardingProgram*> done;
  for (int sw = 0; sw < topo_.node_count(); ++sw) {
    ForwardingProgram* prog = programs_[static_cast<std::size_t>(sw)].get();
    if (prog == nullptr) continue;
    bool seen = false;
    for (ForwardingProgram* p : done) seen = seen || p == prog;
    if (seen) continue;
    done.push_back(prog);
    prog->attach_metrics(&reg);
  }

  // Retired generations' stale-reject counters: re-register so a rebuilt
  // registry (set_observability toggle, restore) keeps the
  // retired-property families present and monotone.
  for (std::uint32_t g = 0; g < generations_.size(); ++g) {
    if (generations_[g].retired) register_stale_counter(g);
  }
  for (const Deployment& d : deployments_) {
    // A retirement sweep in flight: its counter must already be live (see
    // undeploy_rolling) and must survive a rewire mid-sweep.
    if (d.retiring) register_stale_counter(d.generation);
  }

  if (obs_->profiler != nullptr) obs_->profiler->attach(reg);
}

void Network::set_observability(bool enabled) {
  if (enabled == (obs_ != nullptr)) return;
  if (!enabled) {
    obs_.reset();
    rewire_observability();  // detaches every handle
    return;
  }
  obs_ = std::make_unique<ObsState>();
  obs::Registry& reg = obs_->registry;
  obs_->switches.resize(static_cast<std::size_t>(topo_.node_count()));
  for (int i = 0; i < topo_.node_count(); ++i) {
    if (topo_.node(i).kind != NodeKind::kSwitch) continue;
    const std::string base = "net.switch." + topo_.node(i).name;
    const std::vector<obs::Label> by_switch{{"switch", topo_.node(i).name}};
    auto& c = obs_->switches[static_cast<std::size_t>(i)];
    c.forwarded = reg.counter(base + ".forwarded",
                              "hydra_switch_forwarded_total", by_switch);
    c.fwd_dropped = reg.counter(base + ".fwd_dropped",
                                "hydra_switch_fwd_dropped_total", by_switch);
    c.rejected = reg.counter(base + ".rejected",
                             "hydra_switch_rejected_total", by_switch);
  }
  obs_->delivered_hops = reg.histogram(
      "net.delivered.hops", {1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0});
  rewire_observability();
}

obs::Registry& Network::metrics() {
  if (obs_ == nullptr) {
    throw std::logic_error(
        "observability is off; call set_observability(true) first");
  }
  return obs_->registry;
}

obs::TraceSink& Network::trace_sink() {
  metrics();  // throws while observability is off
  return obs_->traces;
}

void Network::trace_next(std::size_t n) {
  set_observability(true);
  obs_->trace_left = n;
}

void Network::collect_metrics() {
  obs::Registry& reg = metrics();
  const double now = events_.now();
  reg.gauge("net.time_s").set(now);
  reg.gauge("net.packets.injected")
      .set(static_cast<double>(counters_.injected));
  reg.gauge("net.packets.delivered")
      .set(static_cast<double>(counters_.delivered));
  reg.gauge("net.packets.rejected")
      .set(static_cast<double>(counters_.rejected));
  reg.gauge("net.packets.fwd_dropped")
      .set(static_cast<double>(counters_.fwd_dropped));
  reg.gauge("net.packets.queue_dropped")
      .set(static_cast<double>(counters_.queue_dropped));
  reg.gauge("net.packets.fault_dropped")
      .set(static_cast<double>(counters_.fault_dropped));

  if (faults_ != nullptr) {
    faults_->stats().for_each([&reg](const char* name, std::uint64_t v) {
      reg.gauge(std::string("fault.") + name).set(static_cast<double>(v));
    });
  }

  for (std::size_t li = 0; li < links_.size(); ++li) {
    const LinkSpec& spec = links_[li].spec();
    for (int dir = 0; dir < 2; ++dir) {
      const PortRef from = dir == 0 ? spec.a : spec.b;
      const PortRef to = dir == 0 ? spec.b : spec.a;
      const std::string dir_name = topo_.node(from.node).name + ":" +
                                   std::to_string(from.port) + "->" +
                                   topo_.node(to.node).name + ":" +
                                   std::to_string(to.port);
      const std::string base = "net.link." + dir_name;
      const std::vector<obs::Label> by_link{{"link", dir_name}};
      const Link::DirStats& s = links_[li].stats(dir);
      reg.gauge(base + ".packets", "hydra_link_packets", by_link)
          .set(static_cast<double>(s.packets));
      reg.gauge(base + ".bytes", "hydra_link_bytes", by_link)
          .set(static_cast<double>(s.bytes));
      reg.gauge(base + ".drops", "hydra_link_drops", by_link)
          .set(static_cast<double>(s.drops));
      reg.gauge(base + ".utilization", "hydra_link_utilization", by_link)
          .set(links_[li].utilization(dir, now));
    }
  }

  for (const auto& d : deployments_) {
    for (std::size_t t = 0; t < d.checker->ir.tables.size(); ++t) {
      std::size_t entries = 0;
      for (const auto& state : d.per_switch) {
        if (t < state.tables.size()) entries += state.tables[t].size();
      }
      const std::string& tn = d.checker->ir.tables[t].name;
      reg.gauge("p4rt.table." + d.checker->name + "." + tn + ".entries",
                "hydra_table_entries",
                {{"property", d.checker->name}, {"table", tn}})
          .set(static_cast<double>(entries));
    }
  }
}

std::string Network::metrics_json() {
  collect_metrics();
  return obs_->registry.to_json();
}

void Network::reset_observability() {
  if (obs_ == nullptr) return;
  obs_->registry.reset();
  obs_->traces.clear();
  if (obs_->recorder != nullptr) obs_->recorder->clear();
  obs_->violations.clear();
  if (obs_->profiler != nullptr) obs_->profiler->clear();
  if (obs_->exporter != nullptr) {
    // The metrics just went back to zero; re-anchor the delta baseline so
    // the next window does not see a negative (wrapped) delta.
    obs_->exporter->rebaseline(export_cumulative());
  }
}

}  // namespace hydra::net
