#include "net/faults.hpp"

#include <algorithm>

namespace hydra::net {

namespace {

// SplitMix64 step — used to derive independent per-site seeds from
// (seed, site) without correlated low bits.
std::uint64_t splitmix(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t site_seed(std::uint64_t seed, std::uint64_t site) {
  std::uint64_t x = seed ^ (site * 0xd1342543de82ef95ULL);
  return splitmix(x);
}

}  // namespace

std::string FaultStats::to_json() const {
  std::string out = "{";
  for_each([&out](const char* key, std::uint64_t v) {
    if (out.size() > 1) out += ",";
    out += "\"";
    out += key;
    out += "\":";
    out += std::to_string(v);
  });
  out += "}";
  return out;
}

FaultInjector::FaultInjector(const FaultPlan& plan, std::uint64_t seed,
                             int num_links)
    : plan_(plan),
      seed_(seed),
      ctl_rng_(site_seed(seed, 0xC041701ULL)),
      down_count_(static_cast<std::size_t>(num_links), 0) {
  site_rngs_.reserve(static_cast<std::size_t>(num_links) * 2);
  for (int l = 0; l < num_links; ++l) {
    for (int dir = 0; dir < 2; ++dir) {
      site_rngs_.emplace_back(site_seed(
          seed, 1 + static_cast<std::uint64_t>(l) * 2 +
                    static_cast<std::uint64_t>(dir)));
    }
  }

  outages_ = plan_.failures;
  if (plan_.flap_rate_hz > 0.0 && plan_.horizon_s > 0.0) {
    // Poisson flap schedule per link, precomputed so no draw depends on
    // packet arrival interleaving.
    const double mean_gap = 1.0 / plan_.flap_rate_hz;
    for (int l = 0; l < num_links; ++l) {
      Rng flap_rng(site_seed(seed, 0xF1A90000ULL +
                                       static_cast<std::uint64_t>(l)));
      double t = flap_rng.exponential(mean_gap);
      while (t < plan_.horizon_s) {
        outages_.push_back({l, t, t + plan_.flap_down_s});
        t += plan_.flap_down_s + flap_rng.exponential(mean_gap);
      }
    }
  }
  std::sort(outages_.begin(), outages_.end(),
            [](const LinkFailure& a, const LinkFailure& b) {
              if (a.down_at != b.down_at) return a.down_at < b.down_at;
              return a.link < b.link;
            });
}

LinkFaultAction FaultInjector::on_transmit(int link, int dir,
                                           bool has_tele) {
  LinkFaultAction action;
  if (!link_up(link)) {
    action.drop = true;
    action.drop_reason = "link_down";
    ++stats_.link_down_drops;
    return action;
  }
  Rng& rng = site_rng(link, dir);
  if (plan_.loss > 0.0 && rng.chance(plan_.loss)) {
    action.drop = true;
    action.drop_reason = "fault_loss";
    ++stats_.loss_drops;
    return action;
  }
  if (plan_.corrupt > 0.0 && rng.chance(plan_.corrupt)) {
    // Entropy is drawn unconditionally so the stream position does not
    // depend on whether this particular packet carried telemetry.
    const std::uint64_t entropy = rng.next();
    if (has_tele) {
      // Counted by the network, and only where a frame is damaged.
      action.corrupt = true;
      action.corrupt_entropy = entropy;
    }
  }
  if (plan_.duplicate > 0.0 && rng.chance(plan_.duplicate)) {
    action.duplicate = true;
    ++stats_.duplicates;
  }
  if (plan_.reorder > 0.0 && rng.chance(plan_.reorder)) {
    action.extra_delay_s = rng.uniform() * plan_.reorder_max_s;
    if (action.extra_delay_s > 0.0) ++stats_.reorders;
  }
  return action;
}

void FaultInjector::link_down_event(int link) {
  ++down_count_[static_cast<std::size_t>(link)];
  ++stats_.flaps;
}

void FaultInjector::link_up_event(int link) {
  int& c = down_count_[static_cast<std::size_t>(link)];
  if (c > 0) --c;
}

double FaultInjector::next_push_delay() {
  double d = plan_.rule_push_delay_s;
  if (plan_.rule_push_jitter_s > 0.0) {
    d += ctl_rng_.uniform() * plan_.rule_push_jitter_s;
  }
  return d;
}

}  // namespace hydra::net
