// The simulated network: topology + links + switches (forwarding programs
// and deployed Hydra checkers) + hosts + the event queue.
//
// The per-hop pipeline mirrors the paper's linking rules (§4.2):
//   1. first hop (host-facing ingress on an edge switch): run each
//      checker's init block and inject its telemetry frame;
//   2. the forwarding program computes the egress port (and may rewrite
//      the packet — GTP encap/decap, source-route pop);
//   3. every hop (egress): run the telemetry block;
//   4. last hop (host-facing egress, or a forwarding drop, which ends the
//      packet's journey): run the checker block, honour reject, emit
//      reports, and strip telemetry before the packet reaches the host.
//
// ---- Event loop -------------------------------------------------------------
// The network installs itself as its event queue's executor: run_until()
// pops events one at a time in (time, seq) order and runs each to
// completion, so every run is deterministic for a fixed seed. A switch hop
// is one event, scheduled when the packet goes onto the link at arrival +
// switch_latency(); the latency is therefore fixed at transmit. A hop runs
// in one pass (process_hop): init, forwarding, telemetry and check for one
// packet at one switch, then its effects (forensics, reports, counters,
// the drop or the transmit). The hop's reports wait in a reused buffer
// until every checker on it has run, so report callbacks fire only then.
// Control-plane work aimed at one switch (restarts, delayed rule pushes,
// rolling-swap legs) is a closure event that does its own work, landing
// between that switch's hops in (time, seq) order.
//
// ---- Source layout ----------------------------------------------------------
// network.cpp is the simulator. The observability plane (traces, the
// forensics flight recorder, profiling, streaming export, the live plane
// and metric wiring) is net/observe.cpp, and snapshot/restore is
// net/snapshot.cpp; all three are Network members. The simulator reaches
// the obs plane only through the hop seam declared below (observe_*), and
// each deployment slot keeps one flight-recorder record per hop, which the
// checker VM writes its provenance into.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "compiler/compile.hpp"
#include "net/event.hpp"
#include "net/faults.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/switch_node.hpp"
#include "net/topology.hpp"
#include "obs/exporter.hpp"
#include "obs/forensics.hpp"
#include "obs/health.hpp"
#include "obs/httpd.hpp"
#include "obs/metrics.hpp"
#include "obs/topk.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "p4rt/interp.hpp"
#include "util/arena.hpp"

namespace hydra::net {

struct ReportRecord {
  int deployment = -1;
  std::string checker;
  int switch_id = -1;
  double time = 0.0;
  std::vector<BitVec> values;
  // Identity of the packet that triggered the report (inner flow when
  // tunneled) and how many switches it had traversed, so a report is
  // actionable without attaching a debugger to the simulation.
  p4rt::FlowId flow;
  int hop_count = 0;
};

class Network final : public EventExecutor {
 public:
  explicit Network(Topology topo);
  ~Network() override;

  EventQueue& events() { return events_; }
  const Topology& topo() const { return topo_; }
  Host& host(int node_id);
  Link& link(int index) { return links_[static_cast<std::size_t>(index)]; }
  std::size_t link_count() const { return links_.size(); }

  // ---- forwarding -------------------------------------------------------
  void set_program(int switch_id, std::shared_ptr<ForwardingProgram> prog);
  ForwardingProgram* program(int switch_id);

  // ---- Hydra deployment (control-plane API) -----------------------------
  // Deployment slots are bounded (rejected_deps is a 64-bit mask); deploy
  // throws std::runtime_error when all slots are live. Retired slots are
  // REUSED — the new property gets a fresh generation tag, so straggler
  // frames of the old occupant reject fail-closed instead of being
  // misattributed.
  static constexpr int kMaxDeployments = 64;
  int deploy(std::shared_ptr<const compiler::CompiledChecker> checker);
  int deployment_count() const { return static_cast<int>(deployments_.size()); }
  const compiler::CompiledChecker& checker(int deployment) const;

  // ---- rolling deploy / undeploy ----------------------------------------
  // The staged-swap path: the checker is compiled and linked off to the
  // side (slot staged with a fresh generation, init stamping OFF), then
  // one swap closure per switch — (time, seq)-ordered like switch
  // restarts — flips that switch to stamping the new frames. The swap is
  // atomic per switch. Call between drains (the event queue may hold
  // traffic, but must not be mid-drain).
  int deploy_rolling(std::shared_ptr<const compiler::CompiledChecker> checker);
  // Sweeps per-switch disable swaps through the control channel. Frames
  // already in flight keep executing on switches that have not swapped
  // yet; once a switch swaps (and after the slot fully retires), its
  // frames are rejected fail-closed with reason "tele_stale_generation"
  // and counted per generation — never crashed on, never misattributed.
  void undeploy_rolling(int deployment);
  // Immediate undeploy; must be called while the event queue is idle (no
  // in-flight packets). The slot retires at once and becomes reusable.
  void undeploy(int deployment);
  // True while any rolling swap sweep has per-switch flips outstanding.
  bool swap_in_progress() const;
  // False once `deployment` has been undeployed (the slot may since have
  // been reused for a different property). Out-of-range ids throw.
  bool deployment_live(int deployment) const;
  // Generation tag of the slot's current occupant (monotone across the
  // whole network; never reused).
  std::uint32_t deployment_generation(int deployment) const;

  // Table for a control dict/set variable on one switch.
  p4rt::Table& checker_table(int deployment, int switch_id,
                             const std::string& var);
  // Config value(s) for a non-dict control variable on one switch.
  void set_config(int deployment, int switch_id, const std::string& var,
                  std::vector<BitVec> values);
  void set_config_all(int deployment, const std::string& var,
                      std::vector<BitVec> values);
  // Installs the same exact-match dict entry on every switch.
  void dict_insert_all(int deployment, const std::string& var,
                       const std::vector<BitVec>& key,
                       std::vector<BitVec> value);
  p4rt::RegisterArray& checker_register(int deployment, int switch_id,
                                        const std::string& var);

  // ---- fault injection (chaos harness) ----------------------------------
  // Arms the deterministic fault injector: the plan's schedule times are
  // RELATIVE to the arm time, its per-transmit dice are rolled in transmit
  // only, and a fixed (plan, seed) pair yields bit-identical outcomes.
  // Must be called while the event queue is idle (outages and restarts
  // are scheduled here). With faults armed, damaged telemetry NEVER
  // throws: a frame that fails to re-parse becomes a counted,
  // forensics-annotated checker reject.
  void arm_faults(const FaultPlan& plan, std::uint64_t seed);
  // Drops the injector (pending flap/restart events become no-ops). Must
  // be called while the event queue is idle.
  void disarm_faults();
  bool faults_armed() const { return faults_ != nullptr; }
  // Injector counters; a static all-zero snapshot while disarmed.
  const FaultStats& fault_stats() const;

  // Installs the same dict entry on every switch, but through the
  // control-plane channel: with faults armed, each switch's install lands
  // after the plan's push delay (+jitter), ordered against that switch's
  // packet hops. Falls back to dict_insert_all when disarmed.
  void dict_insert_all_delayed(int deployment, const std::string& var,
                               const std::vector<BitVec>& key,
                               const std::vector<BitVec>& value);

  // Reset semantics (each reset clears exactly one concern):
  //   * clear_reports()            — drops stored ReportRecords. Subscribed
  //     callbacks and all switch state (tables, registers) are untouched.
  //   * clear_report_subscribers() — drops the callbacks only.
  //   * reset_observability()      — zeroes every metric value, drops
  //     recorded packet traces, empties the forensics rings and stored
  //     ViolationReports, and drops profiler spans; registrations, the
  //     trace_next countdown, and switch state survive. No-op while
  //     observability is off.
  const std::vector<ReportRecord>& reports() const { return reports_; }
  void clear_reports() { reports_.clear(); }
  void clear_report_subscribers() { report_callbacks_.clear(); }

  // Push-based report delivery: callbacks fire at the simulation time the
  // report is raised (the switch-to-controller digest channel), after
  // every checker on that hop has run. Callbacks may install table entries
  // — that's the closed control loop the paper's stateful firewall uses.
  using ReportCallback = std::function<void(const ReportRecord&)>;
  void subscribe_reports(ReportCallback callback);

  // ---- traffic ----------------------------------------------------------
  // Sends from a host onto its access link at the current time. The
  // by-value overload moves `pkt` into a pooled slot (generic/test path);
  // hot-path generators use alloc_packet + the in-place builders +
  // send_pooled and never construct a Packet temporary.
  void send_from_host(int host_id, p4rt::Packet pkt);
  void send_pooled(int host_id, PacketHandle h);

  // ---- pooled in-flight storage -----------------------------------------
  // Packets live in a slab arena owned by the network; events carry 32-bit
  // handles, and slot buffers (tele frames, header
  // optionals) survive recycling so the steady-state hot path never
  // allocates (audited by util::arena_allocations()). OWNERSHIP: whoever
  // holds the handle frees it (see DESIGN.md "Arena storage").
  PacketHandle alloc_packet() {
    const PacketHandle h = packet_pool_.alloc();
    packet_pool_.get(h).reuse();
    return h;
  }
  p4rt::Packet& packet(PacketHandle h) { return packet_pool_.get(h); }
  const p4rt::Packet& packet(PacketHandle h) const {
    return packet_pool_.get(h);
  }
  void free_packet(PacketHandle h) { packet_pool_.free(h); }
  std::size_t packets_in_flight() const { return packet_pool_.live(); }

  struct Counters {
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t rejected = 0;      // dropped by a Hydra checker
    std::uint64_t fwd_dropped = 0;   // dropped by the forwarding program
    std::uint64_t queue_dropped = 0; // tail-dropped at a full buffer
    std::uint64_t fault_dropped = 0; // dropped by the fault injector
  };
  const Counters& counters() const { return counters_; }

  // ---- latency model ----------------------------------------------------
  // Switch traversal time: base + per-stage cost; stages come from the
  // baseline profile linked with all deployed checkers.
  void set_latency_model(double base_s, double per_stage_s) {
    base_proc_s_ = base_s;
    per_stage_s_ = per_stage_s;
  }
  void set_baseline_profile(compiler::BaselineProfile profile) {
    baseline_ = std::move(profile);
  }
  double switch_latency() const;
  int pipeline_stages() const;  // baseline linked with all deployments

  // When enabled, every telemetry frame is round-tripped through the
  // byte-exact wire codec at every hop (serialize -> parse -> compare),
  // proving that the compiled layout carries the checker state losslessly.
  // Throws std::logic_error on any mismatch. Costs ~2x on telemetry
  // processing; intended for tests and validation runs.
  void set_wire_validation(bool enabled) { wire_validation_ = enabled; }

  // ---- observability ----------------------------------------------------
  // Off by default, and off means free: instrumented components hold
  // detached obs handles, so the only per-packet cost is a handful of
  // predictable null-check branches. Enabling wires counters through every
  // layer — per-table lookup hits/misses, interpreter instruction counts,
  // per-switch forwarded/dropped/rejected, per-checker block-run and
  // verdict counts — and the packet trace sink (trace_next). Disabling
  // detaches every handle again before the registry is destroyed.
  void set_observability(bool enabled);
  bool observability_enabled() const { return obs_ != nullptr; }

  // Both throw std::logic_error while observability is off.
  obs::Registry& metrics();
  obs::TraceSink& trace_sink();

  // Pull-model metrics (per-link bytes/packets/drops/utilization, table
  // entry counts, simulation totals) are gauges refreshed by
  // collect_metrics(); hot-path counters are always current.
  void collect_metrics();
  std::string metrics_json();  // collect_metrics() + registry export

  // Traces the next `n` injected packets hop by hop (a countdown that only
  // moves while the trace sink has capacity), replacing any countdown in
  // progress. Implicitly enables observability.
  void trace_next(std::size_t n);

  void reset_observability();

  // ---- forensics (violation flight recorder) ----------------------------
  // Arms the always-on flight recorder: every per-hop checker execution
  // writes one fixed-size record into that switch's ring (`ring_capacity`
  // slots, allocated up front; recording never allocates). When a checker
  // rejects or reports, the hop assembles the packet's retained hops into
  // a ViolationReport. Implies observability. Disabling drops the rings
  // and the stored reports. Off means free: the per-hop cost is one null
  // check.
  void set_forensics(bool enabled, std::size_t ring_capacity = 512);
  bool forensics_enabled() const {
    return obs_ != nullptr && obs_->recorder != nullptr;
  }
  // Assembled reports, in commit order. Empty while forensics is off.
  const std::vector<obs::ViolationReport>& violation_reports() const;
  std::string violation_reports_json() const;
  void clear_violation_reports();
  // Reports kept per run; later violations still record, but only count.
  static constexpr std::size_t kMaxViolationReports = 1024;

  // ---- hop profiling ----------------------------------------------------
  // Arms the hop profiler (obs/profiler.hpp): the event loop records one
  // wall-clock span per switch hop, exported as Chrome trace-event JSON via
  // engine_profiler().to_chrome_trace_json() and as the
  // "engine.phase.compute_us" histogram in metrics(). Implies
  // observability. Off means free: one null check per hop.
  void set_engine_profiling(bool enabled);
  bool engine_profiling_enabled() const {
    return obs_ != nullptr && obs_->profiler != nullptr;
  }
  obs::EngineProfiler& engine_profiler();  // throws std::logic_error if off

  // ---- streaming export (Prometheus + windowed series) ------------------
  // Arms the export scheduler: every `interval_s` of VIRTUAL time the
  // event loop captures a window sample (interval deltas, rates,
  // delivered-latency percentiles) into a bounded ring of `ring_capacity`
  // windows. Ticks fire between events — after everything with t < tick
  // has run, before anything with t >= tick runs — so the series (and any
  // Prometheus scrape taken at a tick) is a function of the event
  // timeline. Implies observability and registers the delivered-latency
  // histogram. `interval_s` <= 0 disarms. Must be called while the event
  // queue is idle. Off means free: one null check per event.
  void set_export_interval(double interval_s, std::size_t ring_capacity = 128);
  bool export_armed() const {
    return obs_ != nullptr && obs_->exporter != nullptr;
  }
  // Fires on the main thread at every captured window; for --watch style
  // periodic rewrites. Throws std::logic_error while export is disarmed.
  void set_export_callback(obs::ExportScheduler::TickCallback cb);
  // Prometheus text exposition of the full registry (collect_metrics() +
  // obs::to_prometheus). Throws std::logic_error while observability is
  // off.
  std::string export_prometheus();
  // Windowed series JSON; throws std::logic_error while export is
  // disarmed.
  std::string window_series_json() const;

  // ---- live observability plane -----------------------------------------
  // Arms top-K attribution + health evaluation on top of the streaming
  // exporter (which must already be armed): delivered packets, checker
  // rejects, and reports feed deterministic Space-Saving sketches, and
  // every export tick re-evaluates the SLO verdict (against the default
  // obs::HealthThresholds) and sets the `health.*` gauges. With a publisher
  // attached (set_live_publisher), every tick additionally renders an
  // immutable LiveSnapshot — Prometheus text and series/health/violations/
  // topk JSON — and swaps it into the publisher for the HTTP plane. Must
  // be called while the event queue is idle. Off means free: one null
  // check per hop.
  struct LiveObsOptions {
    std::size_t topk_k = 8;
    // Subscriber (UE) block identifying PFCP sessions; mask 0 disables
    // session attribution.
    std::uint32_t session_net = 0;
    std::uint32_t session_mask = 0;
  };
  void arm_live_obs(const LiveObsOptions& opts);
  void disarm_live_obs();
  bool live_obs_armed() const {
    return obs_ != nullptr && obs_->live != nullptr;
  }
  // Borrowed, not owned; nullptr detaches. Throws while live obs is off.
  void set_live_publisher(obs::SnapshotPublisher* publisher);
  // Verdict from the most recent export tick; throws while live obs is
  // off.
  const obs::HealthVerdict& last_health() const;
  std::string health_json() const { return last_health().to_json(); }
  std::string topk_json() const;

  // ---- full-state snapshot/restore (net/snapshot.cpp) -------------------
  // Deterministic line-oriented snapshot (format v2, DESIGN.md §15): the
  // clock, the generation table, the deployment set (each slot's compile
  // options and checker source), every live slot's per-switch registers
  // and tables, mutable forwarding state, per-link counters, and the obs
  // state (sim counters, registry counters and histograms, the export
  // baseline and window ring, and the top-K sketches while live obs is
  // armed). A hydrad restarted from it resumes with identical verdict
  // behavior. Throws std::logic_error while observability is off or while
  // a rolling swap sweep is still in flight (snapshot the quiesced state,
  // not a half-swapped one).
  std::string full_snapshot();
  // Restores a full_snapshot into a network that rebuilt the same scenario
  // and armed the same obs/export/live configuration, but deployed nothing
  // (std::logic_error otherwise, and while observability is off or the
  // event queue is busy). The deployment set, registers, tables,
  // forwarding state and clock are overwritten; counters fold into the
  // current values. A malformed snapshot throws std::invalid_argument
  // naming `snapshot line N`. Records apply as they are read, so a failed
  // restore leaves the network partly restored: discard it and rebuild,
  // as hydrad does.
  void obs_restore(const std::string& text);

  // Null while streaming export is disarmed.
  obs::ExportScheduler* export_scheduler_ptr() {
    return obs_ != nullptr ? obs_->exporter.get() : nullptr;
  }

  // EventExecutor: runs every event with t <= limit in (t, seq) order.
  void drain(EventQueue& queue, SimTime limit) override;

 private:
  // Per-switch swap phase of one deployment slot. Written by a swap
  // closure (ordered against that switch's hops) and by staging/retirement
  // between drains; read by every hop.
  enum : std::uint8_t {
    kPhaseRetired = 0,  // frames for this slot reject fail-closed here
    kPhaseStaged = 1,   // tele/check run for matching generations; no init
    kPhaseEnabled = 2,  // fully live: init stamps new frames
  };

  // The slot counters, attached while observability is on; observe.cpp
  // names them. The last three are fault-path counters: fail-closed
  // telemetry decode verdicts and cold-restart verdict suppression.
  enum SlotCounter : std::uint8_t {
    kInitRuns, kTeleRuns, kCheckRuns, kRejects, kReports,
    kDecodeRejects, kDecodeRecovered, kColdSuppressed, kSlotCounters
  };

  // One deployment slot: its occupant's checker and per-switch state, and
  // the hop pipeline's scratch for it, all reused across packets — the
  // checker VM with its slot file (one uint64_t per IR field, expression
  // temporary and constant) and table-key buffer, the ExecOutcome, the
  // hop's flight-recorder record and the slot's hot-path counters.
  struct Deployment {
    std::shared_ptr<const compiler::CompiledChecker> checker;
    std::vector<p4rt::CheckerState> per_switch;  // indexed by node id
    // The checker's header annotations, bound at deploy; by header index.
    std::vector<BoundHeader> headers;
    // Generation tag stamped into this occupant's telemetry frames; bumps
    // on every (re)deploy so slot reuse never mixes properties.
    std::uint32_t generation = 0;
    bool live = false;      // false once retired; the slot is reusable
    bool retiring = false;  // disable sweep in flight
    int pending_swaps = 0;  // per-switch flips not yet committed
    std::vector<std::uint8_t> phase;  // by node id; see enum above
    // The checker lowered to slot-addressed ops; owns the slot file.
    std::unique_ptr<p4rt::Interp> interp;
    p4rt::ExecOutcome out;
    std::array<obs::Counter, kSlotCounters> counters;
    // This hop's flight-recorder record, written while forensics is on:
    // init, tele and check accumulate their flags, verdict and report
    // count into it, the VM adds its table hits and register touches, and
    // record_hop_forensics copies it into the switch's ring.
    obs::HopRecord rec;
  };

  // One entry per generation ever deployed (never erased): the compiled
  // checker (name, IR, wire layout) survives the slot's reuse, so
  // stale-frame accounting, fault-path reserialization, and wire sizing
  // stay correct for frames stamped by a retired occupant.
  struct GenerationInfo {
    // Null only after a restore for generations whose slot was reused
    // before the snapshot (no source survives); `property` always holds
    // the name, which is all stale-frame accounting needs then — no
    // in-flight frames survive a restore, so the layout is never read.
    std::shared_ptr<const compiler::CompiledChecker> checker;
    std::string property;
    bool retired = false;
    // Stale-frame reject counter, attached from retirement on while
    // observability is on (register_stale_counter).
    obs::Counter stale;
  };

  struct SwitchObsCounters {
    obs::Counter forwarded;
    obs::Counter fwd_dropped;
    obs::Counter rejected;
  };

  struct ObsState {
    obs::Registry registry;
    obs::TraceSink traces;
    std::size_t trace_left = 0;  // trace_next countdown
    std::vector<SwitchObsCounters> switches;  // indexed by node id
    obs::Histogram delivered_hops;
    // Forensics (null unless set_forensics(true)).
    std::unique_ptr<obs::FlightRecorder> recorder;
    std::vector<obs::ViolationReport> violations;
    // Hop profiler (null unless set_engine_profiling(true)).
    std::unique_ptr<obs::EngineProfiler> profiler;
    // Streaming export (null unless set_export_interval armed). The
    // delivered-latency histogram is registered only alongside it, so
    // snapshots of export-free runs stay byte-identical to earlier
    // releases.
    std::unique_ptr<obs::ExportScheduler> exporter;
    obs::Histogram delivered_latency;
    // Live observability plane (null unless arm_live_obs). The publisher
    // is borrowed from the daemon/test that owns the HTTP server.
    struct LiveObs {
      std::unique_ptr<obs::TopKAttribution> topk;
      obs::HealthVerdict health;
      obs::SnapshotPublisher* publisher = nullptr;  // not owned
    };
    std::unique_ptr<LiveObs> live;
  };

  // Stages `checker` into a reused-or-fresh slot with every switch at
  // `phase`; throws std::runtime_error at the kMaxDeployments cap.
  int stage_deployment(std::shared_ptr<const compiler::CompiledChecker> c,
                       std::uint8_t phase);
  // Points slot `slot` at `checker` under `generation`, appending it when
  // `slot` is one past the last: fresh per-switch state with every switch
  // at `phase` (none for a retired slot, kPhaseRetired), a VM bound to the
  // checker, and the slot's top-K property label. Binds the checker's
  // header annotations first and throws std::invalid_argument if they do
  // not bind, or std::runtime_error for a slot past kMaxDeployments,
  // before anything changes. deploy and restore both fill slots here.
  void fill_slot(std::size_t slot,
                 std::shared_ptr<const compiler::CompiledChecker> c,
                 std::uint32_t generation, std::uint8_t phase);
  // Schedules one swap closure per switch at now() flipping `slot` to
  // `phase` there (the sweep's last flip completes a retirement); sets
  // pending_swaps.
  void schedule_swaps(int slot, std::uint8_t phase);
  // Completion of an undeploy (its sweep's last swap, or undeploy itself):
  // frees per-switch state, marks the generation retired, and registers its
  // stale-frame counter.
  void finalize_retirement(std::size_t slot);
  // Bounds- and liveness-checks a deployment id from the control-plane
  // API; throws std::invalid_argument naming `what` for a stale or
  // out-of-range id (undeploy leaves holes — a stale id must produce a
  // clear error, not UB).
  Deployment& live_deployment(int deployment, const char* what);
  // Index of control variable `var`'s table in d's per-switch state;
  // throws std::invalid_argument when the checker has none.
  static std::size_t control_table(const Deployment& d,
                                   const std::string& var);
  const Deployment& live_deployment(int deployment, const char* what) const;
  // Registers (or re-attaches) the fail-closed stale-frame counter for a
  // retired generation: flat "checker.<property>.stale_generation", family
  // hydra_checker_stale_generation_rejects_total. Same-property
  // generations share one counter, which stays registered — and therefore
  // present and monotone in every scrape — forever.
  void register_stale_counter(std::uint32_t gen);
  void note_property(const std::string& name);
  // Delivered-latency bucket bounds: the export histogram's grid, which a
  // snapshot's latency bucket lists must match.
  static const std::vector<double>& delivered_latency_bounds();
  // (Re)wires every hot-path obs handle to the registry (detaches
  // everything when observability is off).
  void rewire_observability();
  // ---- the hop seam (observe.cpp) ----------------------------------------
  // The simulator's only entry points into the obs plane; each is called
  // only while observability is on.
  // A packet leaves its host: starts its trace while trace_next is
  // counting down.
  void observe_inject(const p4rt::Packet& pkt);
  // A hop begins: the traced packet's new TraceHop, or null.
  obs::TraceHop* observe_hop_begin(const p4rt::Packet& pkt,
                                   const HopContext& hctx);
  // Every checker on the hop has run, and its reports wait in
  // hop_reports_: fills the trace hop, assembles the violation, feeds
  // top-K, bumps the switch's counter, and ends the trace of a dropped or
  // rejected packet.
  void observe_hop_end(const p4rt::Packet& pkt, const HopContext& hctx,
                       obs::TraceHop* hop, const ForwardingProgram* prog,
                       bool rejected, std::uint64_t rejected_deps,
                       const char* reject_reason);
  // A packet's fate off the hop path: delivered, fault- or queue-dropped.
  void observe_fate(const p4rt::Packet& pkt, obs::PacketFate fate);
  // Slot `slot` was refilled by deploy or restore: relabels its top-K row.
  void observe_refill(std::size_t slot);

  // Builds one checker's trace record for the current hop. `before` holds
  // the telemetry words entering the hop (nullptr for the init run, whose
  // "before" is the zeroed fresh frame).
  obs::CheckerHopRecord trace_checker_record(
      const Deployment& d, const p4rt::TeleFrame& after,
      const std::vector<std::uint64_t>* before, const p4rt::ExecOutcome& out,
      bool init, bool tele, bool check) const;
  // Copies slot `di`'s record into the switch's ring with the hop's fields
  // and `frame`'s tele words (forensics on only).
  void record_hop_forensics(const Deployment& d, std::size_t di,
                            const p4rt::Packet& pkt,
                            const p4rt::TeleFrame& frame,
                            const HopContext& hctx, SimTime t,
                            const char* fwd_reason, const char* fault_note);
  // One kSwitchWork event: one packet's pass through switch work.sw, in
  // one pass — init/forwarding/telemetry/check, then forensics, reports
  // and callbacks (once every checker on the hop has run), simulation
  // counters, and the drop or the transmit onto the egress link.
  void process_hop(SimTime t, const SwitchWork& work);
  // Fires every export tick with next_tick() <= t. The event loop calls
  // this before running any event at time t.
  void export_tick_until(SimTime t);
  // Damages one telemetry frame's wire bytes (in transmit): serializes the
  // frame through the real codec, then applies the plan's corruption mode
  // driven by `entropy`; the next hop must re-parse before trusting it.
  void corrupt_frame(p4rt::Packet& pkt, std::uint64_t entropy);
  // Joins the rings on the packet id and assembles a ViolationReport
  // (called when a hop rejected or reported; the payloads are the hop's
  // pending reports in hop_reports_).
  void build_violation(const p4rt::Packet& pkt, int sw, bool rejected,
                       const char* reject_reason);

  // Assembles the cumulative export totals (sim counters + per-property
  // registry reads + delivered-latency histogram).
  obs::ExportCumulative export_cumulative() const;

  // Per-export-tick live plane maintenance (live obs armed only):
  // re-evaluates health, refreshes the health.* gauges, and — with a
  // publisher attached — renders and publishes the tick's LiveSnapshot.
  void update_live_after_tick();

  // Delivers a packet that arrived at host `node` (a kPacketSend event).
  void host_receive(int node, PacketHandle pkt);
  void emit_report(ReportRecord record);
  void transmit(PortRef from, PacketHandle pkt);
  // Schedules the event for a packet that reaches `dest` at time `at`: the
  // switch's hop at at + switch_latency(), or the host's delivery at at.
  void schedule_arrival(PortRef dest, SimTime at, PacketHandle pkt);
  int packet_wire_bytes(const p4rt::Packet& pkt) const;
  std::uint32_t switch_tag(int sw) const {
    return static_cast<std::uint32_t>(sw + 1);
  }

  Topology topo_;
  EventQueue events_;
  std::vector<Link> links_;
  std::vector<Host> hosts_;    // indexed by node id (empty for switches)
  std::vector<std::shared_ptr<ForwardingProgram>> programs_;  // by node id
  std::vector<Deployment> deployments_;
  std::vector<GenerationInfo> generations_;  // by generation id, append-only
  // Every property name ever deployed (sorted, unique). export_cumulative
  // iterates this instead of the live slots so a retired property's
  // per-window attribution rows stay present across the swap.
  std::vector<std::string> known_properties_;
  std::vector<ReportRecord> reports_;
  std::vector<ReportCallback> report_callbacks_;
  Counters counters_;
  compiler::BaselineProfile baseline_ = compiler::simple_router_profile();
  double base_proc_s_ = 8e-7;
  double per_stage_s_ = 5e-8;
  std::uint64_t next_packet_id_ = 1;
  bool wire_validation_ = false;
  // Fault injection (null while disarmed). cold_until_[sw] is the sim time
  // until which switch sw's sensors are "cold" after a restart.
  std::unique_ptr<FaultInjector> faults_;
  std::vector<double> cold_until_;
  // In-flight packet pool (see "pooled in-flight storage").
  util::Arena<p4rt::Packet> packet_pool_{1024};
  std::unique_ptr<ObsState> obs_;  // null while observability is off
  // The current hop's reports, held until every checker on it has run;
  // reused by every hop.
  std::vector<ReportRecord> hop_reports_;
};

}  // namespace hydra::net
