#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>

#include "p4rt/tele_codec.hpp"

namespace hydra::net {

Network::Network(Topology topo) : topo_(std::move(topo)) {
  for (const auto& l : topo_.links()) links_.emplace_back(l);
  cold_until_.assign(static_cast<std::size_t>(topo_.node_count()), 0.0);
  hosts_.resize(static_cast<std::size_t>(topo_.node_count()));
  programs_.resize(static_cast<std::size_t>(topo_.node_count()));
  for (int i = 0; i < topo_.node_count(); ++i) {
    const NodeSpec& n = topo_.node(i);
    if (n.kind == NodeKind::kHost) {
      hosts_[static_cast<std::size_t>(i)] = Host(i, n.name, n.ip, n.mac);
    }
  }
  events_.set_executor(this);
}

Network::~Network() = default;

Host& Network::host(int node_id) {
  if (topo_.node(node_id).kind != NodeKind::kHost) {
    throw std::invalid_argument("node " + std::to_string(node_id) +
                                " is not a host");
  }
  return hosts_[static_cast<std::size_t>(node_id)];
}

void Network::set_program(int switch_id,
                          std::shared_ptr<ForwardingProgram> prog) {
  if (topo_.node(switch_id).kind != NodeKind::kSwitch) {
    throw std::invalid_argument("node " + std::to_string(switch_id) +
                                " is not a switch");
  }
  programs_[static_cast<std::size_t>(switch_id)] = std::move(prog);
  if (obs_ != nullptr) rewire_observability();
}

ForwardingProgram* Network::program(int switch_id) {
  return programs_[static_cast<std::size_t>(switch_id)].get();
}

Network::Deployment& Network::live_deployment(int deployment,
                                              const char* what) {
  if (deployment < 0 ||
      deployment >= static_cast<int>(deployments_.size())) {
    throw std::invalid_argument(std::string(what) + ": deployment id " +
                                std::to_string(deployment) +
                                " out of range");
  }
  Deployment& d = deployments_[static_cast<std::size_t>(deployment)];
  if (!d.live) {
    throw std::invalid_argument(
        std::string(what) + ": deployment id " + std::to_string(deployment) +
        " is retired (checker '" + d.checker->name + "' was undeployed)");
  }
  return d;
}

const Network::Deployment& Network::live_deployment(int deployment,
                                                    const char* what) const {
  return const_cast<Network*>(this)->live_deployment(deployment, what);
}

void Network::note_property(const std::string& name) {
  const auto it = std::lower_bound(known_properties_.begin(),
                                   known_properties_.end(), name);
  if (it == known_properties_.end() || *it != name) {
    known_properties_.insert(it, name);
  }
}

int Network::stage_deployment(
    std::shared_ptr<const compiler::CompiledChecker> checker,
    std::uint8_t phase) {
  if (!checker) throw std::invalid_argument("deploy: null checker");
  // Prefer reusing a retired slot; the deployment-id space is bounded by
  // the 64-bit rejected_deps mask, and reuse is what keeps a long-running
  // daemon deploying forever.
  std::size_t slot = 0;
  while (slot < deployments_.size() &&
         (deployments_[slot].live || deployments_[slot].pending_swaps > 0)) {
    ++slot;
  }
  fill_slot(slot, checker, static_cast<std::uint32_t>(generations_.size()),
            phase);
  generations_.push_back({checker, checker->name, false, {}});
  note_property(checker->name);
  if (obs_ != nullptr) rewire_observability();
  return static_cast<int>(slot);
}

void Network::fill_slot(
    std::size_t slot, std::shared_ptr<const compiler::CompiledChecker> checker,
    std::uint32_t generation, std::uint8_t phase) {
  // Bind the header annotations and check the cap before anything
  // changes: a checker reading a header no switch supplies is refused here
  // and leaves the network as it was.
  std::vector<BoundHeader> headers;
  try {
    headers = bind_headers(checker->ir);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("deploy: checker '" + checker->name +
                                "': " + e.what());
  }
  if (slot == deployments_.size()) {
    if (slot >= static_cast<std::size_t>(kMaxDeployments)) {
      throw std::runtime_error(
          "deploy: all " + std::to_string(kMaxDeployments) +
          " deployment slots are live; undeploy one first");
    }
    deployments_.emplace_back();
  }
  Deployment& d = deployments_[slot];
  d.checker = std::move(checker);
  d.headers = std::move(headers);
  d.generation = generation;
  d.live = phase != kPhaseRetired;
  d.retiring = false;
  d.pending_swaps = 0;
  const auto nodes = static_cast<std::size_t>(topo_.node_count());
  d.per_switch.assign(d.live ? nodes : 0, {});
  d.phase.assign(nodes, kPhaseRetired);
  for (std::size_t i = 0; i < d.per_switch.size(); ++i) {
    if (topo_.node(static_cast<int>(i)).kind != NodeKind::kSwitch) continue;
    d.per_switch[i] = p4rt::make_checker_state(d.checker->ir);
    d.phase[i] = phase;
  }
  d.interp = std::make_unique<p4rt::Interp>(d.checker->ir);
  if (obs_ != nullptr) observe_refill(slot);
}

int Network::deploy(
    std::shared_ptr<const compiler::CompiledChecker> checker) {
  return stage_deployment(std::move(checker), kPhaseEnabled);
}

int Network::deploy_rolling(
    std::shared_ptr<const compiler::CompiledChecker> checker) {
  const int slot = stage_deployment(std::move(checker), kPhaseStaged);
  schedule_swaps(slot, kPhaseEnabled);
  return slot;
}

void Network::schedule_swaps(int slot, std::uint8_t phase) {
  Deployment& d = deployments_[static_cast<std::size_t>(slot)];
  for (int sw = 0; sw < topo_.node_count(); ++sw) {
    if (topo_.node(sw).kind != NodeKind::kSwitch) continue;
    events_.schedule_at(events_.now(), [this, slot, sw, phase] {
      Deployment& dep = deployments_[static_cast<std::size_t>(slot)];
      dep.phase[static_cast<std::size_t>(sw)] = phase;
      if (dep.pending_swaps > 0 && --dep.pending_swaps == 0 &&
          dep.retiring) {
        finalize_retirement(static_cast<std::size_t>(slot));
      }
    });
    ++d.pending_swaps;
  }
}

void Network::undeploy_rolling(int deployment) {
  Deployment& d = live_deployment(deployment, "undeploy_rolling");
  if (d.retiring) return;  // sweep already in flight
  if (d.pending_swaps > 0) {
    throw std::logic_error(
        "undeploy_rolling: deploy sweep still in flight for slot " +
        std::to_string(deployment));
  }
  d.retiring = true;
  // Register the per-generation reject counter BEFORE the first switch
  // flips: frames rejected mid-sweep (stamped with this generation, hitting
  // an already-retired switch) must count from the very first one — a
  // detached handle would drop them on the floor.
  register_stale_counter(d.generation);
  schedule_swaps(deployment, kPhaseRetired);
}

void Network::undeploy(int deployment) {
  if (!events_.empty()) {
    throw std::logic_error("undeploy: event queue must be idle");
  }
  Deployment& d = live_deployment(deployment, "undeploy");
  std::fill(d.phase.begin(), d.phase.end(), kPhaseRetired);
  d.retiring = true;
  finalize_retirement(static_cast<std::size_t>(deployment));
}

void Network::finalize_retirement(std::size_t slot) {
  Deployment& d = deployments_[slot];
  d.live = false;
  d.retiring = false;
  d.pending_swaps = 0;
  // The checker stays (name + IR for attribution and forensics labels);
  // the per-switch sensor state is gone for good. Frames stamped with
  // this generation now reject fail-closed wherever they surface.
  d.per_switch.clear();
  d.per_switch.shrink_to_fit();
  generations_[d.generation].retired = true;
  register_stale_counter(d.generation);
}

bool Network::swap_in_progress() const {
  for (const auto& d : deployments_) {
    if (d.pending_swaps > 0) return true;
  }
  return false;
}

bool Network::deployment_live(int deployment) const {
  if (deployment < 0 ||
      deployment >= static_cast<int>(deployments_.size())) {
    throw std::invalid_argument("deployment_live: id out of range");
  }
  return deployments_[static_cast<std::size_t>(deployment)].live;
}

std::uint32_t Network::deployment_generation(int deployment) const {
  if (deployment < 0 ||
      deployment >= static_cast<int>(deployments_.size())) {
    throw std::invalid_argument("deployment_generation: id out of range");
  }
  return deployments_[static_cast<std::size_t>(deployment)].generation;
}

const compiler::CompiledChecker& Network::checker(int deployment) const {
  if (deployment < 0 ||
      deployment >= static_cast<int>(deployments_.size())) {
    throw std::invalid_argument("checker: deployment id out of range");
  }
  // Retired slots keep their CompiledChecker for attribution, so reading
  // the program of an undeployed property stays legal.
  return *deployments_[static_cast<std::size_t>(deployment)].checker;
}

std::size_t Network::control_table(const Deployment& d,
                                   const std::string& var) {
  const int t = d.checker->ir.find_table(var);
  if (t < 0) {
    throw std::invalid_argument("checker '" + d.checker->name +
                                "' has no control table '" + var + "'");
  }
  return static_cast<std::size_t>(t);
}

p4rt::Table& Network::checker_table(int deployment, int switch_id,
                                    const std::string& var) {
  Deployment& d = live_deployment(deployment, "checker_table");
  return d.per_switch.at(static_cast<std::size_t>(switch_id))
      .tables[control_table(d, var)];
}

void Network::set_config(int deployment, int switch_id,
                         const std::string& var,
                         std::vector<BitVec> values) {
  checker_table(deployment, switch_id, var).set_default(std::move(values));
}

void Network::set_config_all(int deployment, const std::string& var,
                             std::vector<BitVec> values) {
  Deployment& d = live_deployment(deployment, "checker_table");
  const std::size_t t = control_table(d, var);
  for (int i = 0; i < topo_.node_count(); ++i) {
    if (topo_.node(i).kind == NodeKind::kSwitch) {
      d.per_switch.at(static_cast<std::size_t>(i)).tables[t].set_default(
          values);
    }
  }
}

void Network::dict_insert_all(int deployment, const std::string& var,
                              const std::vector<BitVec>& key,
                              std::vector<BitVec> value) {
  Deployment& d = live_deployment(deployment, "checker_table");
  const std::size_t t = control_table(d, var);
  // Every switch's copy shares the key spec: the key becomes words once,
  // at the first switch, unless its widths force the pattern path.
  std::vector<std::uint64_t> words;
  int pinned = -1;
  for (int i = 0; i < topo_.node_count(); ++i) {
    if (topo_.node(i).kind != NodeKind::kSwitch) continue;
    p4rt::Table& table = d.per_switch.at(static_cast<std::size_t>(i)).tables[t];
    if (pinned < 0) pinned = table.pinned_words(key, words) ? 1 : 0;
    if (pinned > 0) {
      table.insert_exact(words, value);
    } else {
      table.insert_exact(key, value);
    }
  }
}

// ---- fault injection ------------------------------------------------------

void Network::arm_faults(const FaultPlan& plan, std::uint64_t seed) {
  if (!events_.empty()) {
    throw std::logic_error("arm_faults: event queue must be idle");
  }
  faults_ = std::make_unique<FaultInjector>(plan, seed,
                                            static_cast<int>(links_.size()));
  std::fill(cold_until_.begin(), cold_until_.end(), 0.0);
  const double t0 = events_.now();
  // Outages (scheduled failures + precomputed flaps), as closures: link
  // up/down state is only consulted by transmit.
  for (const LinkFailure& o : faults_->outages()) {
    if (o.link < 0 || o.link >= static_cast<int>(links_.size())) continue;
    if (o.up_at < o.down_at) continue;
    events_.schedule_at(t0 + o.down_at, [this, l = o.link]() {
      if (faults_ != nullptr) faults_->link_down_event(l);
    });
    events_.schedule_at(t0 + o.up_at, [this, l = o.link]() {
      if (faults_ != nullptr) faults_->link_up_event(l);
    });
  }
  // Restarts are closures ordered against the switch's packet hops. A
  // restart loses every deployment's sensor contents on the switch: wipe
  // them and mark the switch cold, so checkers do not raise false
  // violations off zeroed registers. Retired slots have no state left.
  for (const SwitchRestart& r : plan.restarts) {
    if (r.sw < 0 || r.sw >= topo_.node_count() ||
        topo_.node(r.sw).kind != NodeKind::kSwitch) {
      continue;
    }
    const auto sw = static_cast<std::size_t>(r.sw);
    events_.schedule_at(t0 + r.at, [this, sw] {
      for (auto& d : deployments_) {
        if (d.per_switch.empty()) continue;
        for (auto& reg : d.per_switch[sw].registers) reg.reset();
      }
      const double warmup =
          faults_ != nullptr ? faults_->plan().restart_warmup_s : 0.0;
      cold_until_[sw] = events_.now() + warmup;
      if (faults_ != nullptr) ++faults_->stats().restarts;
    });
  }
}

void Network::disarm_faults() {
  if (!events_.empty()) {
    throw std::logic_error("disarm_faults: event queue must be idle");
  }
  faults_.reset();
  std::fill(cold_until_.begin(), cold_until_.end(), 0.0);
}

const FaultStats& Network::fault_stats() const {
  static const FaultStats kEmpty;
  return faults_ != nullptr ? faults_->stats() : kEmpty;
}

void Network::dict_insert_all_delayed(int deployment, const std::string& var,
                                      const std::vector<BitVec>& key,
                                      const std::vector<BitVec>& value) {
  if (faults_ == nullptr || (faults_->plan().rule_push_delay_s <= 0.0 &&
                             faults_->plan().rule_push_jitter_s <= 0.0)) {
    dict_insert_all(deployment, var, key, value);
    return;
  }
  // Validate the variable up front — the pushes run inside the event loop
  // and must not throw.
  control_table(live_deployment(deployment, "dict_insert_all_delayed"),
                var);
  // Each switch's push lands on whatever occupies the slot by then: it is
  // skipped once the slot is retired, and the table is looked up by name
  // (and the key turned into its words) as it lands, never by an index
  // taken from an earlier occupant.
  for (int sw = 0; sw < topo_.node_count(); ++sw) {
    if (topo_.node(sw).kind != NodeKind::kSwitch) continue;
    events_.schedule_at(
        events_.now() + faults_->next_push_delay(),
        [this, deployment, sw, var, key, value] {
          Deployment& d = deployments_[static_cast<std::size_t>(deployment)];
          if (!d.live || d.per_switch.empty()) return;  // undeployed mid-push
          const int ti = d.checker->ir.find_table(var);
          if (ti < 0) return;
          d.per_switch[static_cast<std::size_t>(sw)]
              .tables[static_cast<std::size_t>(ti)]
              .insert_exact(key, value);
          if (faults_ != nullptr) ++faults_->stats().delayed_pushes;
        });
  }
}

void Network::corrupt_frame(p4rt::Packet& pkt, std::uint64_t entropy) {
  if (pkt.tele.empty()) return;
  p4rt::TeleFrame& frame =
      pkt.tele[static_cast<std::size_t>(entropy % pkt.tele.size())];
  if (frame.checker < 0 ||
      frame.checker >= static_cast<int>(deployments_.size()) ||
      frame.damaged) {
    return;
  }
  // Reserialize against the GENERATION the frame was stamped with — the
  // slot may since have been relinked to a different layout.
  if (frame.generation >= generations_.size() ||
      generations_[frame.generation].checker == nullptr) {
    return;
  }
  std::vector<std::uint8_t> bytes = p4rt::serialize_frame(
      generations_[frame.generation].checker->layout, frame);
  CorruptMode mode = faults_->plan().corrupt_mode;
  if (mode == CorruptMode::kRandom) {
    switch ((entropy >> 8) % 3) {
      case 0: mode = CorruptMode::kBadTag; break;
      case 1: mode = CorruptMode::kTruncate; break;
      default: mode = CorruptMode::kBitFlip; break;
    }
  }
  const auto preamble = static_cast<std::size_t>(
      compiler::TelemetryLayout::kPreambleBytes);
  if (mode == CorruptMode::kBitFlip && bytes.size() <= preamble) {
    mode = CorruptMode::kBadTag;  // no payload bits to flip
  }
  switch (mode) {
    case CorruptMode::kBadTag:
      bytes[0] = static_cast<std::uint8_t>(bytes[0] ^ 0xff);
      break;
    case CorruptMode::kTruncate:
      // Strictly shorter, so the size check always fires at the next hop.
      bytes.resize((entropy >> 16) % bytes.size());
      break;
    case CorruptMode::kBitFlip: {
      // Undetectable without a checksum: the frame re-parses fine with a
      // silently wrong value. Realism, not a bug — the fail-closed path
      // only covers damage the codec CAN detect.
      const std::size_t payload = bytes.size() - preamble;
      const std::size_t byte = preamble + ((entropy >> 16) % payload);
      bytes[byte] = static_cast<std::uint8_t>(
          bytes[byte] ^ (1u << ((entropy >> 40) % 8)));
      break;
    }
    case CorruptMode::kRandom:
      break;  // resolved above
  }
  frame.wire = std::move(bytes);
  frame.damaged = true;
}

p4rt::RegisterArray& Network::checker_register(int deployment, int switch_id,
                                               const std::string& var) {
  Deployment& d = live_deployment(deployment, "checker_register");
  const int r = d.checker->ir.find_register(var);
  if (r < 0) {
    throw std::invalid_argument("checker '" + d.checker->name +
                                "' has no sensor '" + var + "'");
  }
  return d.per_switch.at(static_cast<std::size_t>(switch_id))
      .registers[static_cast<std::size_t>(r)];
}

void Network::subscribe_reports(ReportCallback callback) {
  report_callbacks_.push_back(std::move(callback));
}

void Network::emit_report(ReportRecord record) {
  reports_.push_back(std::move(record));
  const ReportRecord& stored = reports_.back();
  for (const auto& cb : report_callbacks_) cb(stored);
}

int Network::pipeline_stages() const {
  int stages = baseline_.stages;
  for (const auto& d : deployments_) {
    if (!d.live) continue;
    stages = std::max(stages, d.checker->resources.checker_stages);
  }
  return stages;
}

double Network::switch_latency() const {
  return base_proc_s_ + per_stage_s_ * pipeline_stages();
}

int Network::packet_wire_bytes(const p4rt::Packet& pkt) const {
  int bytes = pkt.base_wire_bytes();
  for (const auto& f : pkt.tele) {
    if (f.checker < 0) continue;
    // Size by the generation the frame was stamped with: a straggler of a
    // relinked slot still occupies the OLD layout's bytes on the wire.
    if (f.generation < generations_.size() &&
        generations_[f.generation].checker != nullptr) {
      bytes += generations_[f.generation].checker->layout.wire_bytes;
    }
  }
  return bytes;
}

void Network::send_from_host(int host_id, p4rt::Packet pkt) {
  const PacketHandle h = packet_pool_.alloc();
  // Copy-assign into the pooled slot: the slot's vectors keep their
  // capacity, and slab addresses are stable across the alloc above.
  packet(h) = std::move(pkt);
  send_pooled(host_id, h);
}

void Network::send_pooled(int host_id, PacketHandle h) {
  Host& host_obj = host(host_id);
  p4rt::Packet& pkt = packet(h);
  pkt.id = next_packet_id_++;
  pkt.created_at = events_.now();
  if (pkt.eth.src == 0) pkt.eth.src = host_obj.mac();
  ++counters_.injected;
  if (obs_ != nullptr) observe_inject(pkt);
  transmit({host_id, 0}, h);
}

void Network::transmit(PortRef from, PacketHandle ph) {
  const int li = topo_.link_index(from);
  if (li < 0) {
    free_packet(ph);  // unconnected port: packet vanishes
    return;
  }
  const LinkSpec& spec = topo_.links()[static_cast<std::size_t>(li)];
  const int dir = spec.a == from ? 0 : 1;
  const PortRef dest = dir == 0 ? spec.b : spec.a;
  Link& link = links_[static_cast<std::size_t>(li)];
  p4rt::Packet& pkt = packet(ph);

  // Fault injection rolls its dice here and nowhere else on the packet
  // path, in event order, so the per-(link, dir) streams advance
  // identically on every run.
  double extra_delay = 0.0;
  if (faults_ != nullptr) {
    const LinkFaultAction action =
        faults_->on_transmit(li, dir, pkt.has_live_tele());
    if (action.drop) {
      ++counters_.fault_dropped;
      if (obs_ != nullptr) observe_fate(pkt, obs::PacketFate::kFaultDropped);
      free_packet(ph);
      return;
    }
    if (action.corrupt) corrupt_frame(pkt, action.corrupt_entropy);
    if (action.duplicate) {
      // The copy is its own packet (fresh id, never sampled for tracing)
      // and does NOT re-roll the fault dice — one draw per original
      // transmit keeps the streams packet-count-independent.
      const PacketHandle dh = packet_pool_.alloc();
      p4rt::Packet& dup = packet(dh);
      dup = pkt;
      dup.id = next_packet_id_++;
      const auto dup_arrival =
          link.transmit(dir, events_.now(), packet_wire_bytes(dup));
      if (dup_arrival) {
        schedule_arrival(dest, *dup_arrival, dh);
      } else {
        ++counters_.queue_dropped;
        free_packet(dh);
      }
    }
    extra_delay = action.extra_delay_s;
  }

  const auto arrival =
      link.transmit(dir, events_.now(), packet_wire_bytes(pkt));
  if (!arrival) {
    ++counters_.queue_dropped;
    if (obs_ != nullptr) observe_fate(pkt, obs::PacketFate::kQueueDropped);
    free_packet(ph);
    return;
  }
  schedule_arrival(dest, *arrival + extra_delay, ph);
}

void Network::schedule_arrival(PortRef dest, SimTime at, PacketHandle ph) {
  if (topo_.node(dest.node).kind == NodeKind::kSwitch) {
    // The pipeline traversal latency is fixed here, at transmit: the hop
    // is one event at the moment the switch has processed the packet.
    events_.schedule_switch_at(at + switch_latency(), dest.node, dest.port,
                               ph);
  } else {
    events_.schedule_packet_at(at, dest.node, dest.port, ph);
  }
}

void Network::host_receive(int node, PacketHandle ph) {
  p4rt::Packet& pkt = packet(ph);
  ++counters_.delivered;
  if (obs_ != nullptr) observe_fate(pkt, obs::PacketFate::kDelivered);
  Host& h = hosts_[static_cast<std::size_t>(node)];
  auto reply = h.deliver(pkt, events_.now());
  // Recycle the slot before injecting the reply so short request/reply
  // exchanges circulate through a single pooled packet.
  free_packet(ph);
  if (reply) send_from_host(node, std::move(*reply));
}

// ---- event loop + per-hop pipeline ----------------------------------------

void Network::drain(EventQueue& q, SimTime limit) {
  // Null unless profiling / streaming export is armed; one branch per
  // event otherwise.
  obs::EngineProfiler* prof =
      engine_profiling_enabled() ? &engine_profiler() : nullptr;
  obs::ExportScheduler* sched = export_scheduler_ptr();
  while (q.has_ready(limit)) {
    const EventQueue::Item item = q.pop_next();
    // Export ticks fire on the event timeline: every tick T <= item.t is
    // captured after all events with t < T ran and before this event runs.
    if (sched != nullptr && item.t >= sched->next_tick()) {
      export_tick_until(item.t);
    }
    q.advance_now(item.t);
    switch (item.kind) {
      case EventKind::kClosure:
        q.run_closure(item);
        break;
      case EventKind::kTick:
        item.tick->tick(item.t);
        break;
      case EventKind::kPacketSend:
        host_receive(item.work.sw, item.work.pkt);
        break;
      case EventKind::kSwitchWork:
        if (prof != nullptr) {
          const double t0 = prof->now_us();
          process_hop(item.t, item.work);
          prof->hop(t0, prof->now_us());
        } else {
          process_hop(item.t, item.work);
        }
        break;
    }
  }
}

void Network::process_hop(SimTime t, const SwitchWork& work) {
  const int sw = work.sw;
  hop_reports_.clear();

  p4rt::Packet& pkt = packet(work.pkt);
  ++pkt.hops;
  HopContext hctx;
  hctx.switch_id = sw;
  hctx.switch_tag = switch_tag(sw);
  hctx.in_port = work.in_port;
  hctx.first_hop = topo_.host_facing({sw, work.in_port});
  hctx.wire_bytes = packet_wire_bytes(pkt);

  // The obs plane's inputs: the traced packet's hop record (null unless
  // this packet is sampled), and each slot's flight-recorder record while
  // forensics is armed.
  obs::TraceHop* hop = obs_ != nullptr ? observe_hop_begin(pkt, hctx) : nullptr;
  const bool forensic = forensics_enabled();

  auto collect_reports = [&](std::size_t di, const Deployment& d,
                             p4rt::ExecOutcome& out) {
    for (auto& r : out.reports) {
      hop_reports_.push_back({static_cast<int>(di), d.checker->name, sw, t,
                              std::move(r), p4rt::flow_of(pkt), pkt.hops});
    }
  };

  // Cold sensors: a fault-injected restart wiped this switch's registers
  // recently, so checker verdicts computed here cannot be trusted. One
  // branch when faults are disarmed.
  const bool cold_sw =
      faults_ != nullptr && t < cold_until_[static_cast<std::size_t>(sw)];

  // 1. Hydra init at the first hop: create and fill telemetry frames.
  // Only switches whose swap phase is fully enabled stamp frames — the
  // per-switch gate a rolling deploy sweeps through the control channel.
  if (hctx.first_hop) {
    for (std::size_t di = 0; di < deployments_.size(); ++di) {
      Deployment& d = deployments_[di];
      if (d.phase[static_cast<std::size_t>(sw)] != kPhaseEnabled) continue;
      d.counters[kInitRuns].inc();
      // The hop's record starts here; the tele run below adds to it.
      if (forensic) d.rec.reset();
      p4rt::ExecOutcome& out = d.out;
      out.reject = false;
      out.reports.clear();
      d.interp->run(p4rt::Block::kInit,
                    d.per_switch[static_cast<std::size_t>(sw)],
                    HopHeaders(d.headers, pkt, hctx), out);
      // Re-arm a retired tele slot in place (deployment order matches the
      // old push_back order; all slots retire together at the last hop).
      p4rt::TeleFrame& frame = pkt.add_frame(static_cast<int>(di));
      frame.generation = d.generation;
      d.interp->store(frame);
      if (cold_sw) frame.cold = true;
      if (hop != nullptr) {
        hop->checkers.push_back(
            trace_checker_record(d, frame, /*before=*/nullptr, out,
                                 /*init=*/true, /*tele=*/false,
                                 /*check=*/false));
      }
      if (forensic) {
        d.rec.ran_init = true;
        d.rec.add_reports(out.reports.size());
      }
      d.counters[kReports].inc(out.reports.size());
      collect_reports(di, d, out);
    }
  }

  // 2. Forwarding.
  ForwardingProgram* prog = programs_[static_cast<std::size_t>(sw)].get();
  ForwardingProgram::Decision decision;
  if (prog != nullptr) {
    decision = prog->process(pkt, work.in_port, sw);
  } else {
    decision.drop = true;
  }
  hctx.eg_port = decision.eg_port;
  hctx.fwd_drop = decision.drop;
  // A forwarding drop ends the packet's journey: this is its last hop, so
  // the checker still gets to observe (and report) the drop decision.
  hctx.last_hop =
      decision.drop ||
      (decision.eg_port >= 0 && topo_.host_facing({sw, decision.eg_port}));
  hctx.wire_bytes = packet_wire_bytes(pkt);

  // 3./4. Telemetry at every hop; checker at the last hop (or every hop,
  // for checkers compiled with per-hop placement).
  bool rejected = false;
  // Bit d set for each deployment whose checker (or fail-closed telemetry
  // decode) rejected this hop; feeds per-property top-K attribution.
  // fill_slot caps slots at kMaxDeployments (64) on deploy and restore
  // alike, so every deployment id fits and no attribution is dropped.
  std::uint64_t rejected_deps = 0;
  // Static string ("tele_bad_tag", ...) naming why a damaged or stale
  // telemetry frame was rejected fail-closed this hop.
  const char* reject_reason = nullptr;
  for (std::size_t di = 0; di < deployments_.size(); ++di) {
    Deployment& d = deployments_[di];
    p4rt::TeleFrame* frame = pkt.frame(static_cast<int>(di));
    if (frame == nullptr) continue;  // entered before deployment; skip
    // At the first hop the record already holds the init run.
    if (forensic && !hctx.first_hop) d.rec.reset();

    // Stale generation, fail-closed: the frame belongs to a retired (or
    // relinked) occupant of this slot — on this switch the swap has
    // landed, or the slot was reused and the generation no longer
    // matches. Executing it would read freed/foreign state; silently
    // dropping it would lose the frame; attributing it to the slot's
    // CURRENT occupant would mix two properties. So: counted reject,
    // attributed per generation, never a crash. The slot's own counters
    // (kRejects, ...) and rejected_deps deliberately do NOT move.
    if (d.phase[static_cast<std::size_t>(sw)] == kPhaseRetired ||
        frame->generation != d.generation) {
      // Only the FRAME is rejected — the packet itself keeps forwarding.
      // Folding this into `rejected` would drop user traffic (and count a
      // checker verdict) for what is purely control-plane churn.
      reject_reason = "tele_stale_generation";
      if (frame->generation < generations_.size()) {
        generations_[frame->generation].stale.inc();
      }
      if (forensic && frame->generation == d.generation) {
        // Retired-but-not-reused: the layout still matches the frame, so
        // a forensics note is meaningful. After reuse the layouts differ —
        // recording would mix old and new properties, so skip.
        d.rec.reject = true;
        record_hop_forensics(d, di, pkt, *frame, hctx, t, decision.reason,
                             reject_reason);
      }
      continue;
    }

    // Damaged wire bytes (injected corruption on the inbound link): the
    // frame must re-parse through the checked codec before its words can
    // be trusted. A parse failure is the headline fail-closed path — a
    // counted, forensics-annotated reject, NEVER a throw. A success
    // overwrites the words in place.
    if (frame->damaged) {
      const p4rt::FrameError err = p4rt::parse_frame_checked(
          d.checker->layout, frame->checker, frame->wire, *frame);
      if (err != p4rt::FrameError::kOk) {
        const char* reason = p4rt::frame_error_reason(err);
        if (faults_ != nullptr) ++faults_->stats().tele_rejects;
        reject_reason = reason;
        d.counters[kDecodeRejects].inc();
        rejected = true;
        rejected_deps |= 1ULL << di;
        if (forensic) {
          d.rec.reject = true;
          record_hop_forensics(d, di, pkt, *frame, hctx, t, decision.reason,
                               reason);
        }
        continue;
      }
      frame->wire.clear();
      frame->damaged = false;
      if (faults_ != nullptr) ++faults_->stats().tele_recovered;
      d.counters[kDecodeRecovered].inc();
    }
    if (cold_sw) frame->cold = true;

    d.counters[kTeleRuns].inc();
    std::vector<std::uint64_t> trace_before;  // traced packets only
    if (hop != nullptr) trace_before = frame->words;
    d.interp->load(*frame);
    p4rt::ExecOutcome& out = d.out;
    out.reject = false;
    out.reports.clear();
    auto& state = d.per_switch[static_cast<std::size_t>(sw)];
    const HopHeaders hdr(d.headers, pkt, hctx);
    d.interp->run(p4rt::Block::kTele, state, hdr, out);
    const bool run_check =
        hctx.last_hop ||
        d.checker->options.placement == compiler::CheckPlacement::kEveryHop;
    if (run_check) {
      d.counters[kCheckRuns].inc();
      d.interp->run(p4rt::Block::kCheck, state, hdr, out);
    }
    // Cold suppression: a verdict derived from freshly-wiped sensor state
    // is noise, not a violation — drop it, count it, annotate it.
    const char* fault_note = nullptr;
    if (frame->cold && (out.reject || !out.reports.empty())) {
      out.reject = false;
      out.reports.clear();
      if (faults_ != nullptr) ++faults_->stats().cold_suppressed;
      d.counters[kColdSuppressed].inc();
      fault_note = "cold_suppressed";
    }
    d.interp->store(*frame);
    if (hop != nullptr) {
      hop->checkers.push_back(
          trace_checker_record(d, *frame, &trace_before, out,
                               /*init=*/false, /*tele=*/true, run_check));
    }
    if (wire_validation_) {
      const compiler::TelemetryLayout& layout = d.checker->layout;
      const p4rt::TeleFrame back = p4rt::parse_frame(
          layout, frame->checker, p4rt::serialize_frame(layout, *frame));
      for (std::size_t i = 0; i < frame->words.size(); ++i) {
        if (back.words[i] != frame->words[i]) {
          throw std::logic_error(
              "telemetry wire round-trip mismatch in checker '" +
              d.checker->name + "' field '" +
              d.checker->ir.field(layout.entries[i].field).name + "'");
        }
      }
    }
    if (out.reject) {
      d.counters[kRejects].inc();
      rejected_deps |= 1ULL << di;
    }
    d.counters[kReports].inc(out.reports.size());
    if (forensic) {
      d.rec.ran_tele = true;
      d.rec.ran_check = run_check;
      d.rec.reject = out.reject;
      d.rec.add_reports(out.reports.size());
      record_hop_forensics(d, di, pkt, *frame, hctx, t, decision.reason,
                           fault_note);
    }
    collect_reports(di, d, out);
    rejected = rejected || out.reject;
  }

  // Strip telemetry before the packet exits the network (retire, not
  // erase: the slots' capacity belongs to the pooled packet).
  if (hctx.last_hop) pkt.retire_frames();

  // Every checker on the hop has run: the obs plane reads the hop's
  // verdict and pending reports first, then the reports and their
  // callbacks go out.
  if (obs_ != nullptr) {
    observe_hop_end(pkt, hctx, hop, prog, rejected, rejected_deps,
                    reject_reason);
  }
  for (auto& rec : hop_reports_) emit_report(std::move(rec));

  if (decision.drop) {
    ++counters_.fwd_dropped;
    free_packet(work.pkt);
    return;
  }
  if (rejected) {
    ++counters_.rejected;
    free_packet(work.pkt);
    return;
  }
  transmit({sw, decision.eg_port}, work.pkt);
}

}  // namespace hydra::net
