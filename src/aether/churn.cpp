#include "aether/churn.hpp"

#include <chrono>
#include <stdexcept>

#include "p4rt/packet.hpp"

namespace hydra::aether {

SessionChurnGenerator::SessionChurnGenerator(net::Network& net,
                                             AetherController& ctl,
                                             Config cfg)
    : net_(net), ctl_(ctl), cfg_(cfg), rng_(cfg.seed) {
  if (cfg_.sessions == 0) {
    throw std::invalid_argument("SessionChurnGenerator: sessions must be > 0");
  }
  if (cfg_.churn_per_s < 0.0 || cfg_.packets_per_s < 0.0 ||
      cfg_.churn_per_s + cfg_.packets_per_s <= 0.0) {
    throw std::invalid_argument(
        "SessionChurnGenerator: event rates must be non-negative and sum "
        "to a positive rate");
  }
  active_.reserve(cfg_.sessions);
  attach_latencies_.reserve(cfg_.sessions);
  // LIFO stack, filled descending so prefill attaches slots 0, 1, 2, ...
  free_slots_.reserve(cfg_.sessions);
  for (std::uint32_t slot = cfg_.sessions; slot > 0; --slot) {
    free_slots_.push_back(slot - 1);
  }
}

void SessionChurnGenerator::attach_next_free() {
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  if (sample_latency_) {
    const auto t0 = std::chrono::steady_clock::now();
    ctl_.attach_client(cfg_.slice_id,
                       {imsi_of(slot), ue_ip_of(slot), teid_of(slot)},
                       cfg_.enb_ip, cfg_.n3_ip);
    const auto t1 = std::chrono::steady_clock::now();
    attach_latencies_.push_back(
        std::chrono::duration<double>(t1 - t0).count());
  } else {
    ctl_.attach_client(cfg_.slice_id,
                       {imsi_of(slot), ue_ip_of(slot), teid_of(slot)},
                       cfg_.enb_ip, cfg_.n3_ip);
  }
  active_.push_back(slot);
  ++attaches_;
}

void SessionChurnGenerator::detach_random() {
  const std::size_t i =
      static_cast<std::size_t>(rng_.below(active_.size()));
  const std::uint32_t slot = active_[i];
  ctl_.detach_client(imsi_of(slot));
  active_[i] = active_.back();
  active_.pop_back();
  free_slots_.push_back(slot);
  ++detaches_;
}

void SessionChurnGenerator::send_uplink() {
  if (active_.empty()) return;
  const std::uint32_t slot =
      active_[static_cast<std::size_t>(rng_.below(active_.size()))];
  const net::PacketHandle h = net_.alloc_packet();
  p4rt::make_gtpu_udp_into(net_.packet(h), cfg_.enb_ip, cfg_.n3_ip,
                           teid_of(slot), ue_ip_of(slot), cfg_.app_ip,
                           40000, cfg_.app_port, cfg_.payload_bytes);
  net_.send_pooled(cfg_.enb_host, h);
  ++packets_sent_;
}

void SessionChurnGenerator::prefill() {
  while (!free_slots_.empty()) attach_next_free();
}

void SessionChurnGenerator::start(double t0, double duration_s) {
  deadline_ = t0 + duration_s;
  if (pending_) return;
  pending_ = true;
  net_.events().schedule_tick_at(t0, this);
}

void SessionChurnGenerator::tick(net::SimTime now) {
  pending_ = now <= deadline_;
  if (!pending_) return;
  const double total = cfg_.churn_per_s + cfg_.packets_per_s;
  const bool churn = rng_.uniform() * total < cfg_.churn_per_s;
  if (churn) {
    // Balanced churn: a detach of a random active session or a re-attach
    // of a previously detached slot, whichever is possible; a coin flip
    // when both are.
    const bool can_detach = !active_.empty();
    const bool can_attach = !free_slots_.empty();
    if (can_attach && (!can_detach || rng_.chance(0.5))) {
      attach_next_free();
    } else if (can_detach) {
      detach_random();
    }
  } else {
    send_uplink();
  }
  net_.events().schedule_tick_in(rng_.exponential(1.0 / total), this);
}

}  // namespace hydra::aether
