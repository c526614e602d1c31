#include "net/network.hpp"

#include <algorithm>
#include <bit>
#include <functional>
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
  if (!d.live()) {
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
  // daemon deploying forever. A slot with a swap pending is live.
  std::size_t slot = 0;
  while (slot < deployments_.size() && deployments_[slot].live()) ++slot;
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
  d.phase = phase;
  d.swap_to = kNoSwap;
  d.check_every_hop =
      d.checker->options.placement == compiler::CheckPlacement::kEveryHop;
  d.per_switch.assign(
      d.live() ? static_cast<std::size_t>(topo_.node_count()) : 0, {});
  if (!d.per_switch.empty()) {
    // One state, copied: every switch's tables share one entry store
    // until that switch's copy is written on its own.
    const p4rt::CheckerState fresh = p4rt::make_checker_state(d.checker->ir);
    for (std::size_t i = 0; i < d.per_switch.size(); ++i) {
      if (topo_.node(static_cast<int>(i)).kind == NodeKind::kSwitch) {
        d.per_switch[i] = fresh;
      }
    }
  }
  d.vm = std::make_unique<p4rt::Interp>(d.checker->ir, d.check_every_hop);
  link_stages();
  if (obs_ != nullptr) observe_refill(slot);
}

int Network::deploy(
    std::shared_ptr<const compiler::CompiledChecker> checker) {
  return stage_deployment(std::move(checker), kPhaseEnabled);
}

int Network::deploy_rolling(
    std::shared_ptr<const compiler::CompiledChecker> checker) {
  const int slot = stage_deployment(std::move(checker), kPhaseStaged);
  schedule_swap(slot, kPhaseEnabled);
  return slot;
}

void Network::schedule_swap(int slot, std::uint8_t phase) {
  deployments_[static_cast<std::size_t>(slot)].swap_to = phase;
  events_.schedule_at(events_.now(), [this, slot, phase] {
    Deployment& d = deployments_[static_cast<std::size_t>(slot)];
    d.phase = phase;
    d.swap_to = kNoSwap;
    if (phase == kPhaseRetired) {
      finalize_retirement(static_cast<std::size_t>(slot));
    }
  });
}

void Network::undeploy_rolling(int deployment) {
  Deployment& d = live_deployment(deployment, "undeploy_rolling");
  if (d.swap_to == kPhaseRetired) return;  // sweep already in flight
  if (d.swap_to != kNoSwap) {
    throw std::logic_error(
        "undeploy_rolling: deploy sweep still in flight for slot " +
        std::to_string(deployment));
  }
  // Register the per-generation reject counter BEFORE the flip: frames of
  // this generation rejected from the flip on must count from the very
  // first one — a detached handle would drop them on the floor.
  register_stale_counter(d.generation);
  schedule_swap(deployment, kPhaseRetired);
}

void Network::undeploy(int deployment) {
  if (!events_.empty()) {
    throw std::logic_error("undeploy: event queue must be idle");
  }
  Deployment& d = live_deployment(deployment, "undeploy");
  d.phase = kPhaseRetired;
  finalize_retirement(static_cast<std::size_t>(deployment));
}

void Network::finalize_retirement(std::size_t slot) {
  Deployment& d = deployments_[slot];
  d.swap_to = kNoSwap;
  // The checker stays (name + IR for attribution and forensics labels);
  // the per-switch sensor state is gone for good. Frames stamped with
  // this generation now reject fail-closed wherever they surface.
  d.per_switch.clear();
  d.per_switch.shrink_to_fit();
  generations_[d.generation].retired = true;
  register_stale_counter(d.generation);
  link_stages();
}

bool Network::swap_in_progress() const {
  return std::any_of(deployments_.begin(), deployments_.end(),
                     [](const Deployment& d) { return d.swap_to != kNoSwap; });
}

bool Network::deployment_live(int deployment) const {
  if (deployment < 0 ||
      deployment >= static_cast<int>(deployments_.size())) {
    throw std::invalid_argument("deployment_live: id out of range");
  }
  return deployments_[static_cast<std::size_t>(deployment)].live();
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

p4rt::CheckerState& Network::switch_state(Deployment& d, int switch_id,
                                          const char* what) {
  if (switch_id < 0 || switch_id >= topo_.node_count() ||
      topo_.node(switch_id).kind != NodeKind::kSwitch) {
    throw std::invalid_argument(std::string(what) + ": node " +
                                std::to_string(switch_id) +
                                " is not a switch");
  }
  return d.per_switch[static_cast<std::size_t>(switch_id)];
}

p4rt::Table& Network::checker_table(int deployment, int switch_id,
                                    const std::string& var) {
  Deployment& d = live_deployment(deployment, "checker_table");
  return switch_state(d, switch_id, "checker_table")
      .tables[control_table(d, var)];
}

void Network::set_config(int deployment, int switch_id,
                         const std::string& var,
                         std::vector<BitVec> values) {
  Deployment& d = live_deployment(deployment, "set_config");
  switch_state(d, switch_id, "set_config")
      .tables[control_table(d, var)]
      .set_default(std::move(values));
}

void Network::write_checker_tables(
    int deployment, const std::string& var,
    const std::function<void(p4rt::Table&)>& write, const char* caller) {
  Deployment& d = live_deployment(deployment, caller);
  const std::size_t t = control_table(d, var);
  std::vector<p4rt::Table*> copies;
  copies.reserve(d.per_switch.size());
  for (int i = 0; i < topo_.node_count(); ++i) {
    if (topo_.node(i).kind == NodeKind::kSwitch) {
      copies.push_back(&d.per_switch[static_cast<std::size_t>(i)].tables[t]);
    }
  }
  p4rt::Table::write_all(copies, write);
}

void Network::set_config_all(int deployment, const std::string& var,
                             std::vector<BitVec> values) {
  write_checker_tables(
      deployment, var,
      [&values](p4rt::Table& table) { table.set_default(values); },
      "set_config_all");
}

std::vector<std::uint64_t> Network::control_words(
    const Deployment& d, std::size_t t, const std::vector<BitVec>& key) const {
  for (int i = 0; i < topo_.node_count(); ++i) {
    if (topo_.node(i).kind == NodeKind::kSwitch) {
      return d.per_switch[static_cast<std::size_t>(i)].tables[t].exact_words(
          key);
    }
  }
  return {};
}

void Network::dict_insert_all(int deployment, const std::string& var,
                              const std::vector<BitVec>& key,
                              std::vector<BitVec> value) {
  write_checker_tables(
      deployment, var,
      [&](p4rt::Table& table) { table.insert_exact(key, value); },
      "dict_insert_all");
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
  // Look the table up and convert the key up front, once for every
  // switch: the pushes run inside the event loop and must not throw.
  const Deployment& d =
      live_deployment(deployment, "dict_insert_all_delayed");
  const std::size_t t = control_table(d, var);
  struct Push {
    std::vector<std::uint64_t> key;
    std::vector<BitVec> value;
  };
  const auto push =
      std::make_shared<const Push>(Push{control_words(d, t, key), value});
  // A push lands only in the occupant it was aimed at: it is skipped once
  // that generation retired, whether or not the slot was reused since.
  const std::uint32_t gen = d.generation;
  for (int sw = 0; sw < topo_.node_count(); ++sw) {
    if (topo_.node(sw).kind != NodeKind::kSwitch) continue;
    events_.schedule_at(
        events_.now() + faults_->next_push_delay(),
        [this, deployment, sw, t, gen, push] {
          Deployment& dep = deployments_[static_cast<std::size_t>(deployment)];
          if (!dep.live() || dep.generation != gen) return;
          dep.per_switch[static_cast<std::size_t>(sw)].tables[t].insert_exact(
              push->key, push->value);
          if (faults_ != nullptr) ++faults_->stats().delayed_pushes;
        });
  }
}

void Network::corrupt_frame(p4rt::Packet& pkt, std::uint64_t entropy) {
  // The (entropy % live)-th live frame: the retired slots a pooled packet
  // keeps are not on the wire.
  const auto live = static_cast<std::uint64_t>(std::count_if(
      pkt.tele.begin(), pkt.tele.end(), std::mem_fn(&p4rt::TeleFrame::live)));
  if (live == 0) return;
  auto it = pkt.tele.begin();
  for (std::uint64_t k = entropy % live; !it->live() || k-- > 0;) ++it;
  p4rt::TeleFrame& frame = *it;
  if (frame.damaged) return;
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
  ++faults_->stats().corruptions;
}

p4rt::RegisterArray& Network::checker_register(int deployment, int switch_id,
                                               const std::string& var) {
  Deployment& d = live_deployment(deployment, "checker_register");
  const int r = d.checker->ir.find_register(var);
  if (r < 0) {
    throw std::invalid_argument("checker '" + d.checker->name +
                                "' has no sensor '" + var + "'");
  }
  return switch_state(d, switch_id, "checker_register")
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

void Network::link_stages() {
  stages_ = baseline_.stages;
  parts_.assign(deployments_.size(), nullptr);
  linked_headers_.clear();
  for (std::size_t di = 0; di < deployments_.size(); ++di) {
    Deployment& d = deployments_[di];
    if (!d.live()) continue;
    stages_ = std::max(stages_, d.checker->resources.checker_stages);
    parts_[di] = d.vm.get();
    d.vm->set_header_base(static_cast<std::uint32_t>(linked_headers_.size()));
    linked_headers_.insert(linked_headers_.end(), d.headers.begin(),
                           d.headers.end());
  }
}

void Network::send_from_host(int host_id, p4rt::Packet pkt) {
  const PacketHandle h = packet_pool_.alloc();
  // Move-assign into the pooled slot: it takes `pkt`'s buffers and frees
  // its own. Slab addresses are stable across the alloc above.
  p4rt::Packet& p = packet(h) = std::move(pkt);
  // Live frames built off the network are sized here, once, by the
  // generation that stamped them.
  p.tele_bytes = 0;
  for (const auto& f : p.tele) {
    if (f.live() && f.generation < generations_.size() &&
        generations_[f.generation].checker != nullptr) {
      p.tele_bytes += generations_[f.generation].checker->layout.wire_bytes;
    }
  }
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
  transmit({host_id, 0}, h, pkt.wire_bytes());
}

void Network::transmit(PortRef from, PacketHandle ph, int wire_bytes) {
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
      const auto dup_arrival = link.transmit(dir, events_.now(), wire_bytes);
      if (dup_arrival) {
        schedule_arrival(dest, *dup_arrival, dh);
      } else {
        ++counters_.queue_dropped;
        free_packet(dh);
      }
    }
    extra_delay = action.extra_delay_s;
  }

  const auto arrival = link.transmit(dir, events_.now(), wire_bytes);
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
  // Null unless streaming export is armed; one branch per event otherwise.
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
        process_hop(item.t, item.work);
        break;
    }
  }
}

void Network::process_hop(SimTime t, const SwitchWork& work) {
  const int sw = work.sw;
  const auto swi = static_cast<std::size_t>(sw);
  hop_reports_.clear();

  p4rt::Packet& pkt = packet(work.pkt);
  ++pkt.hops;
  HopContext hctx;
  hctx.switch_id = sw;
  hctx.switch_tag = switch_tag(sw);
  hctx.in_port = work.in_port;
  hctx.first_hop = topo_.host_facing({sw, work.in_port});
  // Every slot's header reads, through hctx as the hop fills it.
  const HopHeaders hdr(linked_headers_, pkt, hctx);

  // The obs plane's inputs: the traced packet's hop record (null unless
  // this packet is sampled), and each slot's flight-recorder record while
  // forensics is armed.
  obs::TraceHop* hop = obs_ != nullptr ? observe_hop_begin(pkt, hctx) : nullptr;
  const bool forensic = forensics_enabled();

  const auto collect_reports = [&](std::size_t di, p4rt::ExecOutcome& out) {
    for (auto& r : out.reports) {
      hop_reports_.push_back({static_cast<int>(di),
                              deployments_[di].checker->name, sw, t,
                              std::move(r), p4rt::flow_of(pkt), pkt.hops});
    }
  };

  // Cold sensors: a fault-injected restart wiped this switch's registers
  // recently, so checker verdicts computed here cannot be trusted. One
  // branch when faults are disarmed.
  const bool cold_sw = faults_ != nullptr && t < cold_until_[swi];

  // 1. Hydra init at the first hop, in one run: create and fill telemetry
  // frames. Only slots whose swap phase is fully enabled stamp frames —
  // the gate a rolling deploy flips through the control channel.
  if (hctx.first_hop && !deployments_.empty()) {
    hctx.wire_bytes = pkt.wire_bytes();  // before any frame is stamped
    std::uint64_t mask = 0;
    for (std::size_t di = 0; di < deployments_.size(); ++di) {
      Deployment& d = deployments_[di];
      if (d.phase != kPhaseEnabled) continue;
      // Re-arm a retired tele slot in place (slot order matches the old
      // push_back order; all slots retire together at the last hop).
      p4rt::TeleFrame& frame = pkt.add_frame(static_cast<int>(di),
                                             d.checker->layout.wire_bytes);
      frame.generation = d.generation;
      if (cold_sw) frame.cold = true;
      d.vm->bind(d.per_switch[swi], frame.words, /*fresh=*/true);
      // The hop's record starts here; the tele run below adds to it.
      if (forensic) d.rec.reset();
      mask |= 1ULL << di;
    }
    const std::uint64_t flagged =
        mask != 0 ? p4rt::Interp::run(p4rt::Block::kInit, parts_, mask, hdr)
                  : 0;
    // Without observability, only the slots that reported have anything
    // left to do.
    const std::uint64_t visit = obs_ != nullptr ? mask : flagged;
    for (std::uint64_t m = visit; m != 0; m &= m - 1) {
      const auto di = static_cast<std::size_t>(std::countr_zero(m));
      Deployment& d = deployments_[di];
      p4rt::ExecOutcome& out = d.vm->outcome();
      if (hop != nullptr) {
        hop->checkers.push_back(trace_checker_record(
            d, {}, pkt.frame(static_cast<int>(di))->words, out,
            /*init=*/true, /*tele=*/false, /*check=*/false));
      }
      if (forensic) {
        d.rec.ran_init = true;
        d.rec.add_reports(out.reports.size());
      }
      d.counters[kInitRuns].inc();
      d.counters[kReports].inc(out.reports.size());
      collect_reports(di, out);
    }
  }

  // 2. Forwarding.
  ForwardingProgram* prog = programs_[swi].get();
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
  // The packet's size from here on, once per hop: the tele and check
  // blocks read it, and the transmit below sends it.
  hctx.wire_bytes = pkt.wire_bytes();

  // 3./4. Telemetry at every hop; checker at the last hop (or every hop,
  // for checkers compiled with per-hop placement): one pass over the
  // packet's frames picks the slots to run and binds their words, one VM
  // run executes them all, and a second pass takes, in slot order, the
  // outcomes that need it.
  bool rejected = false;
  // Bit d set for each deployment whose checker (or fail-closed telemetry
  // decode) rejected this hop; feeds per-property top-K attribution.
  // fill_slot caps slots at kMaxDeployments (64) on deploy and restore
  // alike, so every deployment id fits and no attribution is dropped.
  std::uint64_t rejected_deps = 0;
  // Static string ("tele_bad_tag", ...) naming why a damaged or stale
  // telemetry frame was rejected fail-closed this hop.
  const char* reject_reason = nullptr;
  std::uint64_t mask = 0;   // the slots that run
  std::uint64_t noted = 0;  // frames that did not run but record forensics
  for (std::size_t di = 0; di < deployments_.size(); ++di) {
    p4rt::TeleFrame* frame = pkt.frame(static_cast<int>(di));
    if (frame == nullptr) continue;  // entered before deployment; skip
    Deployment& d = deployments_[di];
    // At the first hop the record already holds the init run.
    if (forensic && !hctx.first_hop) d.rec.reset();

    // Stale generation, fail-closed: the frame belongs to a retired (or
    // relinked) occupant of this slot — the retiring swap has landed, or
    // the slot was reused and the generation no longer matches. Executing
    // it would read freed/foreign state; silently dropping it would lose
    // the frame; attributing it to the slot's CURRENT occupant would mix
    // two properties. So: counted reject, attributed per generation, never
    // a crash. The slot's own counters (kRejects, ...) and rejected_deps
    // deliberately do NOT move.
    if (d.phase == kPhaseRetired || frame->generation != d.generation) {
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
        d.note = reject_reason;
        noted |= 1ULL << di;
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
          d.note = reason;
          noted |= 1ULL << di;
        }
        continue;
      }
      frame->wire.clear();
      frame->damaged = false;
      if (faults_ != nullptr) ++faults_->stats().tele_recovered;
      d.counters[kDecodeRecovered].inc();
    }
    if (cold_sw) frame->cold = true;
    if (hop != nullptr) {
      trace_before_.resize(deployments_.size());
      trace_before_[di] = frame->words;
    }
    d.vm->bind(d.per_switch[swi], frame->words);
    mask |= 1ULL << di;
  }
  const std::uint64_t flagged =
      mask != 0
          ? p4rt::Interp::run(hctx.last_hop ? p4rt::Block::kTeleCheck
                                            : p4rt::Block::kTele,
                              parts_, mask, hdr)
          : 0;
  // Without observability, only the slots that rejected or reported have
  // anything left to do.
  const std::uint64_t visit = obs_ != nullptr ? mask | noted : flagged;
  for (std::uint64_t m = visit; m != 0; m &= m - 1) {
    const auto di = static_cast<std::size_t>(std::countr_zero(m));
    Deployment& d = deployments_[di];
    p4rt::TeleFrame& frame = *pkt.frame(static_cast<int>(di));
    if ((mask >> di & 1) == 0) {
      d.rec.reject = true;
      record_hop_forensics(d, di, pkt, frame, hctx, t, decision.reason,
                           d.note);
      continue;
    }
    p4rt::ExecOutcome& out = d.vm->outcome();
    const bool run_check = hctx.last_hop || d.check_every_hop;
    d.counters[kTeleRuns].inc();
    if (run_check) d.counters[kCheckRuns].inc();
    // Cold suppression: a verdict derived from freshly-wiped sensor state
    // is noise, not a violation — drop it, count it, annotate it.
    const char* fault_note = nullptr;
    if (frame.cold && (out.reject || !out.reports.empty())) {
      out.reject = false;
      out.reports.clear();
      if (faults_ != nullptr) ++faults_->stats().cold_suppressed;
      d.counters[kColdSuppressed].inc();
      fault_note = "cold_suppressed";
    }
    if (hop != nullptr) {
      hop->checkers.push_back(
          trace_checker_record(d, trace_before_[di], frame.words, out,
                               /*init=*/false, /*tele=*/true, run_check));
    }
    if (out.reject) {
      d.counters[kRejects].inc();
      rejected_deps |= 1ULL << di;
      rejected = true;
    }
    d.counters[kReports].inc(out.reports.size());
    if (forensic) {
      d.rec.ran_tele = true;
      d.rec.ran_check = run_check;
      d.rec.reject = out.reject;
      d.rec.add_reports(out.reports.size());
      record_hop_forensics(d, di, pkt, frame, hctx, t, decision.reason,
                           fault_note);
    }
    collect_reports(di, out);
  }

  // Strip telemetry before the packet exits the network (retire, not
  // erase: the slots' capacity belongs to the pooled packet).
  int wire_bytes = hctx.wire_bytes;
  if (hctx.last_hop) {
    wire_bytes -= pkt.tele_bytes;
    pkt.retire_frames();
  }

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
  transmit({sw, decision.eg_port}, work.pkt, wire_bytes);
}

}  // namespace hydra::net
