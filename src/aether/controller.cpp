#include "aether/controller.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace hydra::aether {

namespace {

// Refuses a rule whose prefix the policy rows cannot spell, before the
// caller changes any state.
void check_rules(const std::vector<FilteringRule>& rules) {
  for (const FilteringRule& r : rules) BitVec::prefix_mask(32, r.prefix_len);
}

}  // namespace

AetherController::AetherController(net::Network& net,
                                   std::shared_ptr<fwd::UpfProgram> upf,
                                   int hydra_deployment)
    : net_(net), upf_(std::move(upf)), hydra_deployment_(hydra_deployment) {
  if (!upf_) throw std::invalid_argument("AetherController: null UPF");
}

void AetherController::define_slice(Slice slice) {
  check_rules(slice.rules);
  const std::uint32_t id = slice.id;
  SliceState state;
  state.config = std::move(slice);
  if (!slices_.emplace(id, std::move(state)).second) {
    throw std::invalid_argument("slice " + std::to_string(id) +
                                " already defined");
  }
}

const Slice& AetherController::slice(std::uint32_t slice_id) const {
  return slices_.at(slice_id).config;
}

std::uint32_t AetherController::client_id(std::uint64_t imsi) const {
  return client_ids_.at(imsi);
}

const std::vector<Client>& AetherController::clients(
    std::uint32_t slice_id) const {
  return slices_.at(slice_id).attached;
}

std::uint32_t AetherController::ensure_application(SliceState& s,
                                                   const FilteringRule& rule) {
  // TCAM-saving sharing: reuse an installed entry when the match AND
  // priority AND action are identical; otherwise install a new entry under
  // a fresh app ID. Old entries are never migrated, and are removed only
  // when their last referencing client detaches.
  for (const auto& ia : s.installed_apps) {
    if (ia.rule.same_match(rule)) return ia.app_id;
  }
  const std::uint32_t app_id = next_app_id_++;
  upf_->add_application(s.config.id, rule.priority, rule.app_prefix,
                        rule.prefix_len, rule.proto, rule.port_lo,
                        rule.port_hi, app_id);
  s.installed_apps.push_back({rule, app_id, 0});
  return app_id;
}

void AetherController::release_application(SliceState& s,
                                           std::uint32_t app_id) {
  for (std::size_t i = 0; i < s.installed_apps.size(); ++i) {
    auto& ia = s.installed_apps[i];
    if (ia.app_id != app_id) continue;
    if (--ia.refs == 0) {
      upf_->remove_application(s.config.id, ia.rule.app_prefix,
                               ia.rule.prefix_len, ia.rule.proto,
                               ia.rule.port_lo, ia.rule.port_hi);
      s.installed_apps[i] = s.installed_apps.back();
      s.installed_apps.pop_back();
    }
    return;
  }
}

std::vector<p4rt::TableEntry> AetherController::build_policy_entries(
    const SliceState& s, const Client& client) const {
  // The checker's filtering_actions dict keys (ue_ip, proto, app_ip,
  // l4_port). The entry set is identical on every switch, so build it once
  // and install/remove copies — the per-port expansion of a range rule
  // would otherwise be re-derived per switch.
  std::vector<p4rt::TableEntry> entries;
  for (const auto& rule : s.config.rules) {
    const std::uint64_t mask32 = BitVec::prefix_mask(32, rule.prefix_len);
    const auto action_code =
        BitVec(8, static_cast<std::uint64_t>(rule.action));
    const bool any_port = rule.port_lo == 0 && rule.port_hi == 0xffff;
    auto make_entry = [&](std::optional<std::uint16_t> port) {
      p4rt::TableEntry e;
      e.priority = rule.priority;
      e.patterns.push_back(
          p4rt::KeyPattern::exact(BitVec(32, client.ue_ip)));
      e.patterns.push_back(rule.proto
                               ? p4rt::KeyPattern::exact(
                                     BitVec(8, *rule.proto))
                               : p4rt::KeyPattern::wildcard(8));
      e.patterns.push_back(p4rt::KeyPattern::ternary(
          BitVec(32, rule.app_prefix), BitVec(32, mask32)));
      e.patterns.push_back(port ? p4rt::KeyPattern::exact(BitVec(16, *port))
                                : p4rt::KeyPattern::wildcard(16));
      e.action_data.push_back(action_code);
      return e;
    };
    if (any_port) {
      entries.push_back(make_entry(std::nullopt));
    } else {
      for (std::uint32_t p = rule.port_lo; p <= rule.port_hi; ++p) {
        entries.push_back(make_entry(static_cast<std::uint16_t>(p)));
      }
    }
  }
  return entries;
}

void AetherController::install_hydra_policy(const SliceState& s,
                                            const Client& client) {
  if (hydra_deployment_ < 0) return;
  const std::vector<p4rt::TableEntry> entries =
      build_policy_entries(s, client);
  for (int sw = 0; sw < net_.topo().node_count(); ++sw) {
    if (net_.topo().node(sw).kind != net::NodeKind::kSwitch) continue;
    auto& table =
        net_.checker_table(hydra_deployment_, sw, "filtering_actions");
    for (const auto& e : entries) table.insert(e);
  }
}

void AetherController::remove_hydra_policy(const SliceState& s,
                                           const Client& client) {
  if (hydra_deployment_ < 0) return;
  // The policy table always reflects the *current* rules (update_slice_rules
  // refreshes it for every attached client), so rebuilding the entries from
  // the current config yields exactly the installed patterns.
  const std::vector<p4rt::TableEntry> entries =
      build_policy_entries(s, client);
  for (int sw = 0; sw < net_.topo().node_count(); ++sw) {
    if (net_.topo().node(sw).kind != net::NodeKind::kSwitch) continue;
    auto& table =
        net_.checker_table(hydra_deployment_, sw, "filtering_actions");
    for (const auto& e : entries) table.remove_if_key_equals(e.patterns);
  }
}

void AetherController::update_slice_rules(std::uint32_t slice_id,
                                          std::vector<FilteringRule> rules) {
  check_rules(rules);
  SliceState& s = slices_.at(slice_id);
  s.config.rules = std::move(rules);
  // THE BUG: nothing else happens here for the UPF tables. Attached
  // clients keep their old Applications/Terminations entries; only clients
  // that attach from now on see the new configuration.
  //
  // The Hydra policy table, by contrast, is the operator's intent, so it
  // is refreshed for every attached client of the slice.
  if (hydra_deployment_ >= 0) {
    for (int sw = 0; sw < net_.topo().node_count(); ++sw) {
      if (net_.topo().node(sw).kind != net::NodeKind::kSwitch) continue;
      net_.checker_table(hydra_deployment_, sw, "filtering_actions").clear();
    }
    for (const auto& [id, state] : slices_) {
      for (const auto& c : state.attached) {
        install_hydra_policy(state, c);
      }
    }
  }
}

void AetherController::attach_client(std::uint32_t slice_id,
                                     const Client& client,
                                     std::uint32_t enb_ip,
                                     std::uint32_t n3_ip) {
  SliceState& s = slices_.at(slice_id);
  const auto [it, fresh] = client_ids_.emplace(client.imsi, next_client_id_);
  if (fresh) ++next_client_id_;
  const std::uint32_t cid = it->second;

  upf_->add_uplink_session(client.teid, cid, slice_id);
  upf_->add_downlink_session(client.ue_ip, cid, slice_id, client.teid,
                             enb_ip, n3_ip);

  // PFCP sends the (current) rule list for this client; the controller
  // translates it into shared Applications entries + per-client
  // Terminations, recording which shared entries this attach references so
  // that detach can release them.
  AttachedRecord* rec = nullptr;
  const auto att = attached_index_.find(client.imsi);
  if (att != attached_index_.end()) {
    // Re-attach without a detach (PFCP re-establishment): refresh sessions
    // and pick up any new rules, but keep the single attached record.
    rec = &att->second;
  } else {
    AttachedRecord fresh_rec;
    fresh_rec.slice_id = slice_id;
    fresh_rec.cid = cid;
    fresh_rec.pos = s.attached.size();
    rec = &attached_index_.emplace(client.imsi, std::move(fresh_rec))
               .first->second;
    s.attached.push_back(client);
  }
  for (const auto& rule : s.config.rules) {
    const std::uint32_t aid = ensure_application(s, rule);
    if (std::find(rec->app_ids.begin(), rec->app_ids.end(), aid) !=
        rec->app_ids.end()) {
      continue;  // rules with an identical match share one entry/termination
    }
    for (auto& ia : s.installed_apps) {
      if (ia.app_id == aid) {
        ++ia.refs;
        break;
      }
    }
    upf_->add_termination(cid, aid, rule.action == FilterAction::kAllow);
    rec->app_ids.push_back(aid);
  }
  install_hydra_policy(s, client);
}

bool AetherController::detach_client(std::uint64_t imsi) {
  const auto it = attached_index_.find(imsi);
  if (it == attached_index_.end()) return false;
  const AttachedRecord rec = std::move(it->second);
  attached_index_.erase(it);

  SliceState& s = slices_.at(rec.slice_id);
  const Client client = s.attached[rec.pos];
  upf_->remove_uplink_session(client.teid);
  upf_->remove_downlink_session(client.ue_ip);
  for (const std::uint32_t aid : rec.app_ids) {
    upf_->remove_termination(rec.cid, aid);
    release_application(s, aid);
  }
  remove_hydra_policy(s, client);

  // Swap-pop the attached list; fix the moved client's recorded position.
  const std::size_t last = s.attached.size() - 1;
  if (rec.pos != last) {
    s.attached[rec.pos] = s.attached[last];
    attached_index_.at(s.attached[rec.pos].imsi).pos = rec.pos;
  }
  s.attached.pop_back();
  // client_ids_ keeps the imsi -> cid binding for re-attach.
  return true;
}

}  // namespace hydra::aether
