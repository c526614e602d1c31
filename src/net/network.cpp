#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>

#include "p4rt/tele_codec.hpp"

namespace hydra::net {

namespace {

obs::TopKFlow to_topk_flow(const p4rt::FlowId& f) {
  obs::TopKFlow t;
  t.parsed = f.parsed;
  t.src_ip = f.src_ip;
  t.dst_ip = f.dst_ip;
  t.src_port = f.src_port;
  t.dst_port = f.dst_port;
  t.proto = f.proto;
  return t;
}

}  // namespace

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
  if (obs_ != nullptr && obs_->live != nullptr) {
    // A reused slot must not inherit the old property's attribution.
    obs_->live->topk->redefine_property(static_cast<int>(slot),
                                        d.checker->name);
  }
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
    ControlOp op;
    op.kind = ControlOp::Kind::kSwap;
    op.deployment = slot;
    op.enable = phase == kPhaseEnabled;
    schedule_control(events_.now(), sw, std::move(op));
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

p4rt::Table& Network::checker_table(int deployment, int switch_id,
                                    const std::string& var) {
  Deployment& d = live_deployment(deployment, "checker_table");
  const int t = d.checker->ir.find_table(var);
  if (t < 0) {
    throw std::invalid_argument("checker '" + d.checker->name +
                                "' has no control table '" + var + "'");
  }
  return d.per_switch.at(static_cast<std::size_t>(switch_id))
      .tables[static_cast<std::size_t>(t)];
}

void Network::set_config(int deployment, int switch_id,
                         const std::string& var,
                         std::vector<BitVec> values) {
  checker_table(deployment, switch_id, var).set_default(std::move(values));
}

void Network::set_config_all(int deployment, const std::string& var,
                             std::vector<BitVec> values) {
  for (int i = 0; i < topo_.node_count(); ++i) {
    if (topo_.node(i).kind == NodeKind::kSwitch) {
      set_config(deployment, i, var, values);
    }
  }
}

void Network::dict_insert_all(int deployment, const std::string& var,
                              const std::vector<BitVec>& key,
                              std::vector<BitVec> value) {
  for (int i = 0; i < topo_.node_count(); ++i) {
    if (topo_.node(i).kind == NodeKind::kSwitch) {
      checker_table(deployment, i, var).insert_exact(key, value);
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
  // Restarts are control ops, ordered against the switch's packet hops.
  for (const SwitchRestart& r : plan.restarts) {
    if (r.sw < 0 || r.sw >= topo_.node_count() ||
        topo_.node(r.sw).kind != NodeKind::kSwitch) {
      continue;
    }
    schedule_control(t0 + r.at, r.sw, ControlOp{});
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
  // Validate the variable up front — apply_control runs inside the event
  // loop and must not throw.
  const Deployment& d =
      live_deployment(deployment, "dict_insert_all_delayed");
  if (d.checker->ir.find_table(var) < 0) {
    throw std::invalid_argument("checker '" + d.checker->name +
                                "' has no control table '" + var + "'");
  }
  for (int sw = 0; sw < topo_.node_count(); ++sw) {
    if (topo_.node(sw).kind != NodeKind::kSwitch) continue;
    ControlOp op;
    op.kind = ControlOp::Kind::kDictInsert;
    op.deployment = deployment;
    op.var = var;
    op.key = key;
    op.value = value;
    schedule_control(events_.now() + faults_->next_push_delay(), sw,
                     std::move(op));
  }
}

void Network::schedule_control(SimTime t, int sw, ControlOp op) {
  events_.schedule_at(t, [this, sw, op = std::move(op)] {
    apply_control(events_.now(), sw, op);
  });
}

void Network::apply_control(SimTime t, int sw, const ControlOp& op) {
  if (op.kind == ControlOp::Kind::kRestart) {
    // The restart lost every deployment's sensor contents on this switch;
    // wipe them and mark the switch cold so checkers do not raise false
    // violations off zeroed registers. Retired slots have no state left.
    for (auto& d : deployments_) {
      if (d.per_switch.empty()) continue;
      auto& state = d.per_switch[static_cast<std::size_t>(sw)];
      for (auto& reg : state.registers) reg.reset();
    }
    const double warmup =
        faults_ != nullptr ? faults_->plan().restart_warmup_s : 0.0;
    cold_until_[static_cast<std::size_t>(sw)] = t + warmup;
    if (faults_ != nullptr) ++faults_->stats().restarts;
    return;
  }
  const auto dep = static_cast<std::size_t>(op.deployment);
  if (dep >= deployments_.size()) return;
  Deployment& d = deployments_[dep];
  if (op.kind == ControlOp::Kind::kSwap) {
    // One leg of a rolling sweep: flip this switch's phase for the slot.
    // The flip is ordered against this switch's packet hops; the sweep's
    // last flip completes a retirement.
    d.phase[static_cast<std::size_t>(sw)] =
        op.enable ? kPhaseEnabled : kPhaseRetired;
    if (d.pending_swaps > 0 && --d.pending_swaps == 0 && d.retiring) {
      finalize_retirement(dep);
    }
    return;
  }
  // kDictInsert: a delayed controller rule push landing on this switch.
  if (!d.live || d.per_switch.empty()) return;  // undeployed mid-push
  const int ti = d.checker->ir.find_table(op.var);
  if (ti < 0) return;  // validated at schedule time; stay defensive
  d.per_switch[static_cast<std::size_t>(sw)]
      .tables[static_cast<std::size_t>(ti)]
      .insert_exact(op.key, op.value);
  if (faults_ != nullptr) ++faults_->stats().delayed_pushes;
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
  const compiler::CompiledChecker& gc =
      *generations_[frame.generation].checker;
  if (frame.values.size() != gc.ir.fields.size()) return;
  std::vector<std::uint8_t> bytes =
      p4rt::serialize_frame(gc.layout, gc.ir, frame);
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
  if (obs_ != nullptr && obs_->sampler && obs_->traces.has_capacity() &&
      obs_->sampler(pkt)) {
    obs_->traces.begin(pkt.id, events_.now(),
                       p4rt::flow_of(pkt).to_string());
  }
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
      if (obs_ != nullptr && obs_->traces.tracing()) {
        obs_->traces.finish(pkt.id, obs::PacketFate::kFaultDropped,
                            events_.now());
      }
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
    if (obs_ != nullptr && obs_->traces.tracing()) {
      obs_->traces.finish(pkt.id, obs::PacketFate::kQueueDropped,
                          events_.now());
    }
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
  if (obs_ != nullptr) {
    if (obs_->live != nullptr) {
      obs_->live->topk->on_delivered(to_topk_flow(p4rt::flow_of(pkt)));
    }
    obs_->delivered_hops.observe(pkt.hops);
    // Detached (one branch) unless streaming export armed the handle.
    obs_->delivered_latency.observe(events_.now() - pkt.created_at);
    if (obs_->traces.tracing()) {
      obs_->traces.finish(pkt.id, obs::PacketFate::kDelivered,
                          events_.now());
    }
  }
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
  obs::EngineProfiler* prof = obs_ != nullptr ? obs_->profiler.get() : nullptr;
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
  compute_hop(t, work, hop_scratch_);
  commit_hop(t, work, hop_scratch_);
}

void Network::compute_hop(SimTime t, const SwitchWork& work, HopResult& res) {
  const int sw = work.sw;

  res.decision = {};
  res.rejected = false;
  res.rejected_deps = 0;
  res.reject_reason = nullptr;
  res.traced = false;
  res.reports.clear();

  p4rt::Packet& pkt = packet(work.pkt);
  ++pkt.hops;
  HopContext hctx;
  hctx.switch_id = sw;
  hctx.switch_tag = switch_tag(sw);
  hctx.in_port = work.in_port;
  hctx.first_hop = topo_.host_facing({sw, work.in_port});
  hctx.wire_bytes = packet_wire_bytes(pkt);

  // Hop trace, recorded only for sampled packets (the untraced cost is one
  // null check plus, while any trace is live, one hash probe on the packet
  // id). The record is appended to the trace by commit_hop.
  obs::TraceHop* hop = nullptr;
  if (obs_ != nullptr && obs_->traces.tracing() &&
      obs_->traces.active(pkt.id) != nullptr) {
    res.traced = true;
    hop = &res.hop;
    *hop = obs::TraceHop{};  // reset here: only traced hops read it
    hop->hop = pkt.hops;
    hop->switch_id = sw;
    hop->switch_name = topo_.node(sw).name;
    hop->time = t;
    hop->in_port = work.in_port;
    hop->first_hop = hctx.first_hop;
    hop->wire_bytes = hctx.wire_bytes;
  }

  auto collect_reports = [&](std::size_t di, const Deployment& d,
                             p4rt::ExecOutcome& out) {
    for (auto& r : out.reports) {
      ReportRecord rec{static_cast<int>(di), d.checker->name, sw, t,
                       std::move(r)};
      rec.flow = p4rt::flow_of(pkt);
      rec.hop_count = pkt.hops;
      res.reports.push_back(std::move(rec));
    }
  };

  // Flight recorder armed? Provenance buffers are cleared here (and
  // accumulated across the init+tele+check runs of one hop); the interp's
  // provenance pointer itself is wired by rewire_observability.
  const bool forensic = obs_ != nullptr && obs_->recorder != nullptr;

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
      d.init_runs.inc();
      if (forensic) d.prov.clear();
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
            trace_checker_record(d, &frame, /*before=*/nullptr, out,
                                 /*init=*/true, /*tele=*/false,
                                 /*check=*/false));
      }
      d.reports.inc(out.reports.size());
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
  for (std::size_t di = 0; di < deployments_.size(); ++di) {
    Deployment& d = deployments_[di];
    p4rt::TeleFrame* frame = pkt.frame(static_cast<int>(di));
    if (frame == nullptr) continue;  // entered before deployment; skip

    // Stale generation, fail-closed: the frame belongs to a retired (or
    // relinked) occupant of this slot — on this switch the swap has
    // landed, or the slot was reused and the generation no longer
    // matches. Executing it would read freed/foreign state; silently
    // dropping it would lose the frame; attributing it to the slot's
    // CURRENT occupant would mix two properties. So: counted reject,
    // attributed per generation, never a crash. The slot's own counters
    // (d.rejects, ...) and rejected_deps deliberately do NOT move.
    if (d.phase[static_cast<std::size_t>(sw)] == kPhaseRetired ||
        frame->generation != d.generation) {
      // Only the FRAME is rejected — the packet itself keeps forwarding.
      // Folding this into `rejected` would drop user traffic (and count a
      // checker verdict) for what is purely control-plane churn.
      res.reject_reason = "tele_stale_generation";
      if (frame->generation < generations_.size()) {
        generations_[frame->generation].stale.inc();
      }
      if (forensic && frame->generation == d.generation) {
        // Retired-but-not-reused: the IR still matches the frame, so a
        // forensics note is meaningful. After reuse the layouts differ —
        // recording would mix old and new properties, so skip.
        d.prov.clear();
        d.out.reject = true;
        d.out.reports.clear();
        record_hop_forensics(d, di, pkt, hctx, t, &decision, d.out,
                             /*ran_init=*/false, /*ran_tele=*/false,
                             /*ran_check=*/false, "tele_stale_generation");
      }
      continue;
    }

    // Damaged wire bytes (injected corruption on the inbound link): the
    // frame must re-parse through the checked codec before its values can
    // be trusted. A parse failure is the headline fail-closed path — a
    // counted, forensics-annotated reject, NEVER a throw (the pre-fix
    // codec threw std::invalid_argument out of the event loop here).
    if (frame->damaged) {
      p4rt::TeleFrame reparsed;
      const p4rt::FrameError err = p4rt::parse_frame_checked(
          d.checker->layout, d.checker->ir, frame->checker, frame->wire,
          reparsed);
      if (err != p4rt::FrameError::kOk) {
        const char* reason = p4rt::frame_error_reason(err);
        if (faults_ != nullptr) ++faults_->stats().tele_rejects;
        res.reject_reason = reason;
        d.decode_rejects.inc();
        rejected = true;
        // di < 64 always: fill_slot enforces kMaxDeployments on deploy and
        // restore alike, so reject attribution is never silently dropped.
        res.rejected_deps |= 1ULL << di;
        if (forensic) {
          d.prov.clear();
          d.out.reject = true;
          d.out.reports.clear();
          record_hop_forensics(d, di, pkt, hctx, t, &decision, d.out,
                               /*ran_init=*/false, /*ran_tele=*/false,
                               /*ran_check=*/false, reason);
        }
        continue;
      }
      frame->values = std::move(reparsed.values);
      frame->wire.clear();
      frame->damaged = false;
      if (faults_ != nullptr) ++faults_->stats().tele_recovered;
      d.decode_recovered.inc();
    }
    if (cold_sw) frame->cold = true;

    d.tele_runs.inc();
    std::vector<BitVec> trace_before;  // traced packets only
    if (hop != nullptr) trace_before = frame->values;
    // At the first hop the provenance buffer still holds the init run's
    // captures; this hop's record covers init+tele+check together.
    if (forensic && !hctx.first_hop) d.prov.clear();
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
      d.check_runs.inc();
      d.interp->run(p4rt::Block::kCheck, state, hdr, out);
    }
    // Cold suppression: a verdict derived from freshly-wiped sensor state
    // is noise, not a violation — drop it, count it, annotate it.
    const char* fault_note = nullptr;
    if (frame->cold && (out.reject || !out.reports.empty())) {
      out.reject = false;
      out.reports.clear();
      if (faults_ != nullptr) ++faults_->stats().cold_suppressed;
      d.cold_suppr.inc();
      fault_note = "cold_suppressed";
    }
    d.interp->store(*frame);
    if (hop != nullptr) {
      hop->checkers.push_back(
          trace_checker_record(d, frame, &trace_before, out,
                               /*init=*/false, /*tele=*/true, run_check));
    }
    if (wire_validation_) {
      const auto bytes = p4rt::serialize_frame(d.checker->layout,
                                               d.checker->ir, *frame);
      const auto back = p4rt::parse_frame(d.checker->layout, d.checker->ir,
                                          frame->checker, bytes);
      for (std::size_t i = 0; i < frame->values.size(); ++i) {
        if (d.checker->ir.fields[i].space == ir::Space::kTele &&
            !(back.values[i] == frame->values[i])) {
          throw std::logic_error(
              "telemetry wire round-trip mismatch in checker '" +
              d.checker->name + "' field '" + d.checker->ir.fields[i].name +
              "'");
        }
      }
    }
    if (out.reject) {
      d.rejects.inc();
      // di < 64 always (kMaxDeployments); attribution never dropped.
      res.rejected_deps |= 1ULL << di;
    }
    d.reports.inc(out.reports.size());
    if (forensic) {
      record_hop_forensics(d, di, pkt, hctx, t, &decision, out,
                           /*ran_init=*/hctx.first_hop, /*ran_tele=*/true,
                           run_check, fault_note);
    }
    collect_reports(di, d, out);
    rejected = rejected || out.reject;
  }

  // Strip telemetry before the packet exits the network (retire, not
  // erase: the slots' capacity belongs to the pooled packet).
  if (hctx.last_hop) pkt.retire_frames();

  if (hop != nullptr) {
    hop->eg_port = hctx.eg_port;
    hop->last_hop = hctx.last_hop;
    hop->fwd_drop = hctx.fwd_drop;
    hop->rejected = rejected;
    hop->forwarding = prog != nullptr ? prog->name() : "none";
  }

  res.decision = decision;
  res.rejected = rejected;
}

void Network::commit_hop(SimTime t, const SwitchWork& work, HopResult& res) {
  const int sw = work.sw;
  const p4rt::Packet& pkt = packet(work.pkt);
  // Forensics reconstruction runs before the reports are moved out.
  if (obs_ != nullptr && obs_->recorder != nullptr &&
      (res.rejected || !res.reports.empty())) {
    build_violation(work, res, t);
  }
  for (auto& rec : res.reports) {
    if (obs_ != nullptr && obs_->live != nullptr) {
      obs_->live->topk->on_report(to_topk_flow(rec.flow), rec.deployment);
    }
    emit_report(std::move(rec));
  }
  if (res.traced) {
    if (obs::PacketTrace* tr = obs_->traces.active(pkt.id)) {
      tr->hops.push_back(std::move(res.hop));
    }
  }

  if (res.decision.drop) {
    ++counters_.fwd_dropped;
    if (obs_ != nullptr) {
      obs_->switches[static_cast<std::size_t>(sw)].fwd_dropped.inc();
      if (obs_->traces.tracing()) {
        obs_->traces.finish(pkt.id, obs::PacketFate::kFwdDropped,
                            events_.now());
      }
    }
    free_packet(work.pkt);
    return;
  }
  if (res.rejected) {
    ++counters_.rejected;
    if (obs_ != nullptr) {
      if (obs_->live != nullptr) {
        obs_->live->topk->on_rejected(to_topk_flow(p4rt::flow_of(pkt)),
                                      res.rejected_deps);
      }
      obs_->switches[static_cast<std::size_t>(sw)].rejected.inc();
      if (obs_->traces.tracing()) {
        obs_->traces.finish(pkt.id, obs::PacketFate::kRejected,
                            events_.now());
      }
    }
    free_packet(work.pkt);
    return;
  }
  if (obs_ != nullptr) {
    obs_->switches[static_cast<std::size_t>(sw)].forwarded.inc();
  }
  transmit({sw, res.decision.eg_port}, work.pkt);
}

// ---- observability --------------------------------------------------------

obs::CheckerHopRecord Network::trace_checker_record(
    const Deployment& d, const p4rt::TeleFrame* after,
    const std::vector<BitVec>* before, const p4rt::ExecOutcome& out,
    bool init, bool tele, bool check) const {
  obs::CheckerHopRecord rec;
  rec.checker = d.checker->name;
  rec.ran_init = init;
  rec.ran_tele = tele;
  rec.ran_check = check;
  rec.reject = out.reject;
  for (const auto& r : out.reports) {
    std::vector<std::uint64_t> payload;
    payload.reserve(r.size());
    for (const auto& v : r) payload.push_back(v.value());
    rec.reports.push_back(std::move(payload));
  }
  const ir::CheckerIR& ir = d.checker->ir;
  for (std::size_t i = 0; i < ir.fields.size(); ++i) {
    if (ir.fields[i].space != ir::Space::kTele) continue;
    obs::TraceFieldValue fv;
    fv.name = ir.fields[i].name;
    fv.before = before != nullptr && i < before->size()
                    ? (*before)[i].value()
                    : 0;
    fv.after = after != nullptr && i < after->values.size()
                   ? after->values[i].value()
                   : 0;
    rec.tele.push_back(std::move(fv));
  }
  return rec;
}

// ---- forensics ------------------------------------------------------------

void Network::record_hop_forensics(const Deployment& d, std::size_t di,
                                   const p4rt::Packet& pkt,
                                   const HopContext& hctx, SimTime t,
                                   const ForwardingProgram::Decision* dec,
                                   const p4rt::ExecOutcome& out,
                                   bool ran_init, bool ran_tele,
                                   bool ran_check, const char* fault_note) {
  obs::HopRecord& rec = obs_->recorder->append(hctx.switch_id);
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
  rec.reject = out.reject;
  rec.ran_init = ran_init;
  rec.ran_tele = ran_tele;
  rec.ran_check = ran_check;
  rec.report_count = static_cast<std::uint8_t>(
      out.reports.size() < 255 ? out.reports.size() : 255);
  rec.fwd_reason = dec != nullptr ? dec->reason : nullptr;
  rec.fault_note = fault_note;
  for (const auto& th : d.prov.table_hits) {
    rec.add_table_hit(static_cast<std::int16_t>(th.table), th.entry, th.hit);
  }
  for (const auto& rt : d.prov.reg_touches) {
    rec.add_reg_touch(static_cast<std::int16_t>(rt.reg), rt.wrote, rt.before,
                      rt.after);
  }
  const ir::CheckerIR& ir = d.checker->ir;
  const p4rt::TeleFrame* frame = pkt.frame(static_cast<int>(di));
  if (frame != nullptr) {
    for (std::size_t i = 0; i < ir.fields.size(); ++i) {
      if (ir.fields[i].space != ir::Space::kTele) continue;
      rec.add_tele(static_cast<std::int16_t>(i),
                   i < frame->values.size() ? frame->values[i].value() : 0);
    }
  }
}

void Network::build_violation(const SwitchWork& work, const HopResult& res,
                              SimTime t) {
  ++obs_->violations_seen;
  if (obs_->violations.size() >= kMaxViolationReports) return;

  const p4rt::Packet& pkt = packet(work.pkt);
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
  vr.kind = res.rejected ? "reject" : "report";
  vr.reason = res.reject_reason != nullptr
                  ? res.reject_reason
                  : (res.rejected ? "checker_reject" : "checker_report");
  vr.switch_id = work.sw;
  vr.switch_name = topo_.node(work.sw).name;
  vr.time = t;
  vr.hop_count = pkt.hops;
  for (const auto& rep : res.reports) {
    std::vector<std::uint64_t> payload;
    payload.reserve(rep.values.size());
    for (const auto& v : rep.values) payload.push_back(v.value());
    vr.report_payloads.push_back(std::move(payload));
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
    const ir::CheckerIR& ir =
        deployments_[static_cast<std::size_t>(r->deployment)].checker->ir;
    obs::ViolationHopChecker vc;
    vc.checker =
        deployments_[static_cast<std::size_t>(r->deployment)].checker->name;
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
    obs_->violations_seen = 0;
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
  if (obs_ == nullptr) return;
  obs_->violations.clear();
  obs_->violations_seen = 0;
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
  live->opts = opts;
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
                                     live.opts.health);
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
  collect_metrics();
  std::vector<obs::PromFamily> extra;
  live.topk->prom_families(extra);
  snap.metrics_text = obs::to_prometheus(reg, extra);
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
  // their attribution rows across undeploys and restores.
  for (const std::string& cn : known_properties_) {
    obs::ExportCumulative::Property p;
    p.name = cn;
    p.rejects = reg.counter_value("checker." + cn + ".rejects");
    p.reports = reg.counter_value("checker." + cn + ".reports");
    p.check_runs = reg.counter_value("checker." + cn + ".check_runs");
    p.tele_runs = reg.counter_value("checker." + cn + ".tele_runs");
    cum.properties.push_back(std::move(p));
  }
  // Total reports raised, from the monotone per-property counters
  // (reports() itself can be cleared mid-run, which would break deltas).
  for (const auto& p : cum.properties) cum.reports += p.reports;
  // Burn-rate inputs for health evaluation, from the same deduped
  // per-property names so shared-checker deployments count once.
  for (const auto& p : cum.properties) {
    cum.decode_rejects +=
        reg.counter_value("checker." + p.name + ".tele_decode_rejects");
    cum.cold_suppressed +=
        reg.counter_value("checker." + p.name + ".cold_suppressed");
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

void Network::rewire_observability() {
  if (obs_ == nullptr) {
    // Detach every handle; none may outlive the registry it points into.
    for (auto& d : deployments_) {
      d.init_runs = {};
      d.tele_runs = {};
      d.check_runs = {};
      d.rejects = {};
      d.reports = {};
      d.decode_rejects = {};
      d.decode_recovered = {};
      d.cold_suppr = {};
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
  // Per-property counters are registered under their legacy flat names
  // (the JSON/CSV snapshot key, unchanged byte-for-byte) with a structured
  // Prometheus identity layered on top: one family per counter kind,
  // attributed by a property="<checker>" label.
  for (Deployment& d : deployments_) {
    const std::string& cn = d.checker->name;
    const std::vector<obs::Label> by_prop{{"property", cn}};
    d.init_runs = reg.counter("checker." + cn + ".init_runs",
                              "hydra_checker_init_runs_total", by_prop);
    d.tele_runs = reg.counter("checker." + cn + ".tele_runs",
                              "hydra_checker_tele_runs_total", by_prop);
    d.check_runs = reg.counter("checker." + cn + ".check_runs",
                               "hydra_checker_check_runs_total", by_prop);
    d.rejects = reg.counter("checker." + cn + ".rejects",
                            "hydra_checker_rejects_total", by_prop);
    d.reports = reg.counter("checker." + cn + ".reports",
                            "hydra_checker_reports_total", by_prop);
    d.decode_rejects =
        reg.counter("checker." + cn + ".tele_decode_rejects",
                    "hydra_checker_tele_decode_rejects_total", by_prop);
    d.decode_recovered =
        reg.counter("checker." + cn + ".tele_decode_recovered",
                    "hydra_checker_tele_decode_recovered_total", by_prop);
    d.cold_suppr = reg.counter("checker." + cn + ".cold_suppressed",
                               "hydra_checker_cold_suppressed_total",
                               by_prop);

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
    d.interp->set_provenance(obs_->recorder != nullptr ? &d.prov : nullptr);
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

  // Retired generations' stale-reject counters: re-register so a rebuilt registry (set_observability toggle, restore)
  // keeps the retired-property families present and monotone.
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
  if (obs_ == nullptr) {
    throw std::logic_error(
        "observability is off; call set_observability(true) first");
  }
  return obs_->traces;
}

void Network::set_trace_sampler(TraceSampler sampler) {
  set_observability(true);
  obs_->sampler = std::move(sampler);
}

void Network::trace_next(std::size_t n) {
  set_trace_sampler([left = n](const p4rt::Packet&) mutable {
    if (left == 0) return false;
    --left;
    return true;
  });
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
    const FaultStats& fs = faults_->stats();
    reg.gauge("fault.loss_drops").set(static_cast<double>(fs.loss_drops));
    reg.gauge("fault.link_down_drops")
        .set(static_cast<double>(fs.link_down_drops));
    reg.gauge("fault.duplicates").set(static_cast<double>(fs.duplicates));
    reg.gauge("fault.reorders").set(static_cast<double>(fs.reorders));
    reg.gauge("fault.corruptions").set(static_cast<double>(fs.corruptions));
    reg.gauge("fault.tele_rejects")
        .set(static_cast<double>(fs.tele_rejects));
    reg.gauge("fault.tele_recovered")
        .set(static_cast<double>(fs.tele_recovered));
    reg.gauge("fault.cold_suppressed")
        .set(static_cast<double>(fs.cold_suppressed));
    reg.gauge("fault.restarts").set(static_cast<double>(fs.restarts));
    reg.gauge("fault.flaps").set(static_cast<double>(fs.flaps));
    reg.gauge("fault.delayed_pushes")
        .set(static_cast<double>(fs.delayed_pushes));
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
  obs_->violations_seen = 0;
  if (obs_->profiler != nullptr) obs_->profiler->clear();
  if (obs_->exporter != nullptr) {
    // The metrics just went back to zero; re-anchor the delta baseline so
    // the next window does not see a negative (wrapped) delta.
    obs_->exporter->rebaseline(export_cumulative());
  }
}

}  // namespace hydra::net
