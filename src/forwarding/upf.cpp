#include "forwarding/upf.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>

#include "p4rt/table_io.hpp"

namespace hydra::fwd {

void UpfProgram::save_state(std::ostream& out) const {
  for (const p4rt::Table* t :
       {&sessions_ul_, &sessions_dl_, &applications_, &terminations_}) {
    out << ' ';
    p4rt::serialize_table(*t, out);
  }
  out << ' ' << termination_drops_ << ' ' << session_miss_drops_;
}

void UpfProgram::load_state(std::istream& in) {
  for (p4rt::Table* t :
       {&sessions_ul_, &sessions_dl_, &applications_, &terminations_})
    p4rt::deserialize_table(*t, in);
  std::uint64_t term = 0, miss = 0;
  if (!(in >> term >> miss))
    throw std::runtime_error("upf snapshot: bad drop totals");
  termination_drops_ = term;
  session_miss_drops_ = miss;
}

UpfProgram::UpfProgram(std::shared_ptr<Ipv4EcmpProgram> router)
    : router_(std::move(router)) {}

void UpfProgram::add_uplink_session(std::uint32_t teid,
                                    std::uint32_t client_id,
                                    std::uint32_t slice_id) {
  const std::uint64_t key = teid;
  const BitVec data[] = {BitVec(32, client_id), BitVec(32, slice_id)};
  sessions_ul_.insert_exact({&key, 1}, data);
}

void UpfProgram::add_downlink_session(std::uint32_t ue_ip,
                                      std::uint32_t client_id,
                                      std::uint32_t slice_id,
                                      std::uint32_t teid,
                                      std::uint32_t enb_ip,
                                      std::uint32_t n3_ip) {
  const std::uint64_t key = ue_ip;
  const BitVec data[] = {BitVec(32, client_id), BitVec(32, slice_id),
                         BitVec(32, teid), BitVec(32, enb_ip),
                         BitVec(32, n3_ip)};
  sessions_dl_.insert_exact({&key, 1}, data);
}

int UpfProgram::remove_uplink_session(std::uint32_t teid) {
  return sessions_ul_.remove_if_key_equals(
      {p4rt::KeyPattern::exact(BitVec(32, teid))});
}

int UpfProgram::remove_downlink_session(std::uint32_t ue_ip) {
  return sessions_dl_.remove_if_key_equals(
      {p4rt::KeyPattern::exact(BitVec(32, ue_ip))});
}

namespace {

// The Applications row of one filtering rule; removal rebuilds the same.
std::vector<p4rt::KeyPattern> application_patterns(
    std::uint32_t slice_id, std::uint32_t app_prefix, int prefix_len,
    std::optional<std::uint8_t> proto, std::uint16_t port_lo,
    std::uint16_t port_hi) {
  const std::uint64_t mask =
      prefix_len == 0 ? 0 : (BitVec::mask(32) << (32 - prefix_len)) &
                                BitVec::mask(32);
  return {p4rt::KeyPattern::exact(BitVec(32, slice_id)),
          p4rt::KeyPattern::ternary(BitVec(32, app_prefix), BitVec(32, mask)),
          p4rt::KeyPattern::range(BitVec(16, port_lo), BitVec(16, port_hi)),
          proto ? p4rt::KeyPattern::exact(BitVec(8, *proto))
                : p4rt::KeyPattern::wildcard(8)};
}

}  // namespace

void UpfProgram::add_application(std::uint32_t slice_id, int priority,
                                 std::uint32_t app_prefix, int prefix_len,
                                 std::optional<std::uint8_t> proto,
                                 std::uint16_t port_lo, std::uint16_t port_hi,
                                 std::uint32_t app_id) {
  const BitVec data(32, app_id);
  applications_.insert(application_patterns(slice_id, app_prefix, prefix_len,
                                            proto, port_lo, port_hi),
                       {&data, 1}, "set_app_id", priority);
}

int UpfProgram::remove_application(std::uint32_t slice_id,
                                   std::uint32_t app_prefix, int prefix_len,
                                   std::optional<std::uint8_t> proto,
                                   std::uint16_t port_lo,
                                   std::uint16_t port_hi) {
  return applications_.remove_if_key_equals(application_patterns(
      slice_id, app_prefix, prefix_len, proto, port_lo, port_hi));
}

void UpfProgram::add_termination(std::uint32_t client_id,
                                 std::uint32_t app_id, bool allow) {
  const std::uint64_t key[] = {client_id, app_id};
  const BitVec data = BitVec::from_bool(allow);
  terminations_.insert_exact(key, {&data, 1}, allow ? "forward" : "drop");
}

int UpfProgram::remove_termination(std::uint32_t client_id,
                                   std::uint32_t app_id) {
  return terminations_.remove_if_key_equals(
      {p4rt::KeyPattern::exact(BitVec(32, client_id)),
       p4rt::KeyPattern::exact(BitVec(32, app_id))});
}

void UpfProgram::attach_metrics(obs::Registry* registry) {
  const auto wire = [registry](p4rt::Table& table) {
    p4rt::TableMetrics tm;
    if (registry != nullptr) {
      const std::string base = "fwd.upf." + table.name();
      tm.hits = registry->counter(base + ".hits");
      tm.misses = registry->counter(base + ".misses");
      tm.cache_hits = registry->counter(base + ".cache_hits");
    }
    table.attach_metrics(tm);
  };
  wire(sessions_ul_);
  wire(sessions_dl_);
  wire(applications_);
  wire(terminations_);
}

UpfProgram::Decision UpfProgram::process(p4rt::Packet& pkt, int in_port,
                                         int switch_id) {
  Decision d;
  std::uint32_t client_id = 0;
  std::uint32_t slice_id = 0;
  std::uint32_t app_ip = 0;
  std::uint16_t app_port = 0;
  std::uint8_t app_proto = 0;
  bool is_upf_traffic = false;

  if (pkt.gtpu && pkt.ipv4 && pkt.l4 && pkt.l4->dport == p4rt::kGtpuPort) {
    // Uplink: match the tunnel, then decapsulate.
    const std::uint64_t teid = pkt.gtpu->teid;
    const std::int32_t row =
        sessions_ul_.lookup(std::span<const std::uint64_t>(&teid, 1));
    if (row < 0) {
      ++session_miss_drops_;
      d.drop = true;
      d.reason = "session_miss";
      return d;
    }
    const auto s = sessions_ul_.action_data(row);
    client_id = static_cast<std::uint32_t>(s[0]);
    slice_id = static_cast<std::uint32_t>(s[1]);
    p4rt::gtpu_decap_inplace(pkt);
    // The application is identified by the destination side.
    if (pkt.ipv4) {
      app_ip = pkt.ipv4->dst;
      app_proto = pkt.ipv4->proto;
    }
    if (pkt.l4) app_port = pkt.l4->dport;
    is_upf_traffic = true;
  } else if (pkt.ipv4) {
    const std::uint64_t ue_ip = pkt.ipv4->dst;
    const std::int32_t row =
        sessions_dl_.lookup(std::span<const std::uint64_t>(&ue_ip, 1));
    if (row >= 0) {
      // Downlink: the application is the remote (source) side.
      const auto s = sessions_dl_.action_data(row);
      client_id = static_cast<std::uint32_t>(s[0]);
      slice_id = static_cast<std::uint32_t>(s[1]);
      app_ip = pkt.ipv4->src;
      app_proto = pkt.ipv4->proto;
      if (pkt.l4) app_port = pkt.l4->sport;
      const auto teid = static_cast<std::uint32_t>(s[2]);
      const auto enb = static_cast<std::uint32_t>(s[3]);
      const auto n3 = static_cast<std::uint32_t>(s[4]);
      p4rt::gtpu_encap_inplace(pkt, n3, enb, teid);
      is_upf_traffic = true;
    }
  }

  if (is_upf_traffic) {
    const std::uint64_t app_key[] = {slice_id, app_ip, app_port, app_proto};
    const std::int32_t app = applications_.lookup(app_key);
    // Figure 11: a miss in Applications leaves app_id 0, which never has a
    // termination — default drop.
    const std::uint32_t app_id =
        app >= 0 ? static_cast<std::uint32_t>(applications_.action_data(app)[0])
                 : 0;
    const std::uint64_t term_key[] = {client_id, app_id};
    const std::int32_t term = terminations_.lookup(term_key);
    if (term < 0 || terminations_.action_data(term)[0] == 0) {
      ++termination_drops_;
      d.drop = true;
      d.reason = "no_termination";
      return d;
    }
  }

  return router_->process(pkt, in_port, switch_id);
}

}  // namespace hydra::fwd
