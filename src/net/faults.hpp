// Deterministic, seeded fault injection for the simulated fabric.
//
// A FaultPlan describes *what* can go wrong — scheduled link failures,
// random link flaps, per-link packet loss / telemetry corruption /
// duplication / reordering, switch restarts that wipe sensor registers,
// and delayed controller rule pushes. A FaultInjector turns the plan plus
// one seed into concrete outcomes.
//
// Determinism contract: every random draw comes from a per-fault-site
// stream (one xoshiro256** per (link, direction), one for the flap
// schedule of each link, one for control-plane delays), each seeded by
// SplitMix64 from (seed, site). The injector is only ever consulted from
// Network::transmit and the control-plane helpers, which run in (time,
// seq) event order — so a fixed seed yields bit-identical fault outcomes.
// Flap schedules are precomputed at arm time, so no draw depends on how
// much traffic the run carries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace hydra::net {

// One scheduled outage of a link (both directions), in absolute sim time.
struct LinkFailure {
  int link = -1;
  double down_at = 0.0;
  double up_at = 0.0;
};

// One scheduled switch restart: at time `at` the switch's checker register
// state is wiped and its sensors run "cold" for the plan's warmup window.
struct SwitchRestart {
  int sw = -1;
  double at = 0.0;
};

// How telemetry corruption damages the wire bytes. kRandom picks one of
// the concrete modes per event; the targeted modes exist so tests can pin
// down one failure shape.
enum class CorruptMode { kRandom, kBadTag, kTruncate, kBitFlip };

struct FaultPlan {
  // Per-transmit probabilities, applied independently per (link, dir).
  double loss = 0.0;       // silently drop the packet
  double corrupt = 0.0;    // damage one telemetry frame's wire bytes
  double duplicate = 0.0;  // deliver the packet twice
  double reorder = 0.0;    // delay delivery by up to reorder_max_s
  double reorder_max_s = 50e-6;
  CorruptMode corrupt_mode = CorruptMode::kRandom;

  // Random link flaps: Poisson down events at `flap_rate_hz` per link,
  // each lasting `flap_down_s`, drawn over [0, horizon_s) at arm time.
  double flap_rate_hz = 0.0;
  double flap_down_s = 100e-6;
  double horizon_s = 0.0;

  // Scheduled faults.
  std::vector<LinkFailure> failures;
  std::vector<SwitchRestart> restarts;
  // How long a restarted switch's sensors stay cold (verdicts suppressed).
  double restart_warmup_s = 200e-6;

  // Controller rule pushes land after delay + uniform(0, jitter) instead
  // of instantly (per switch, as control-op closure events).
  double rule_push_delay_s = 0.0;
  double rule_push_jitter_s = 0.0;
};

// Everything the harness counts. Mirrored as fault.* gauges in the obs
// registry while a plan is armed; to_json() is deterministic (fixed key
// order, integers only) so chaos runs can be byte-compared.
struct FaultStats {
  std::uint64_t loss_drops = 0;       // packets dropped by random loss
  std::uint64_t link_down_drops = 0;  // packets dropped on a downed link
  std::uint64_t duplicates = 0;
  std::uint64_t reorders = 0;
  std::uint64_t corruptions = 0;      // frames damaged on the wire
  std::uint64_t tele_rejects = 0;     // fail-closed decode rejects
  std::uint64_t tele_recovered = 0;   // damaged frames that re-parsed OK
  std::uint64_t cold_suppressed = 0;  // verdicts suppressed post-restart
  std::uint64_t restarts = 0;
  std::uint64_t flaps = 0;            // link down events that took effect
  std::uint64_t delayed_pushes = 0;

  // Calls f(name, value) for every counter above, in declaration order:
  // to_json and the fault.* gauges both list the counters through it.
  template <typename F>
  void for_each(F&& f) const {
    f("loss_drops", loss_drops);
    f("link_down_drops", link_down_drops);
    f("duplicates", duplicates);
    f("reorders", reorders);
    f("corruptions", corruptions);
    f("tele_rejects", tele_rejects);
    f("tele_recovered", tele_recovered);
    f("cold_suppressed", cold_suppressed);
    f("restarts", restarts);
    f("flaps", flaps);
    f("delayed_pushes", delayed_pushes);
  }
  std::string to_json() const;
};

// What the injector decided for one transmit. `drop_reason` is a static
// string (never owned) so it can ride through forensics without
// allocation.
struct LinkFaultAction {
  bool drop = false;
  const char* drop_reason = nullptr;
  bool corrupt = false;
  std::uint64_t corrupt_entropy = 0;  // drives which frame/byte/bit
  bool duplicate = false;
  double extra_delay_s = 0.0;  // > 0 when reordered
};

class FaultInjector {
 public:
  // `num_links` fixes the per-site stream table; the plan's flap schedule
  // is precomputed here, before any packet flows.
  FaultInjector(const FaultPlan& plan, std::uint64_t seed, int num_links);

  const FaultPlan& plan() const { return plan_; }
  std::uint64_t seed() const { return seed_; }

  // Rolls the per-(link, dir) dice for one transmit. `has_tele` gates the
  // corruption roll (a frame-less packet has nothing to damage) — the roll
  // is still consumed so stream positions don't depend on packet content
  // beyond this documented bit. Main thread only.
  LinkFaultAction on_transmit(int link, int dir, bool has_tele);

  // Scheduled failures + precomputed flaps, merged; Network turns each
  // into a pair of down/up events at arm time.
  const std::vector<LinkFailure>& outages() const { return outages_; }

  // Link state bookkeeping (down events may overlap, hence a count).
  void link_down_event(int link);
  void link_up_event(int link);
  bool link_up(int link) const {
    return down_count_[static_cast<std::size_t>(link)] == 0;
  }

  // Delay for the next controller rule push: delay + uniform(0, jitter),
  // from a dedicated control-plane stream. Main thread only.
  double next_push_delay();

  FaultStats& stats() { return stats_; }
  const FaultStats& stats() const { return stats_; }

 private:
  Rng& site_rng(int link, int dir) {
    return site_rngs_[static_cast<std::size_t>(link) * 2 +
                      static_cast<std::size_t>(dir)];
  }

  FaultPlan plan_;
  std::uint64_t seed_ = 0;
  std::vector<Rng> site_rngs_;  // 2 per link: [link*2 + dir]
  Rng ctl_rng_;
  std::vector<int> down_count_;
  std::vector<LinkFailure> outages_;
  FaultStats stats_;
};

}  // namespace hydra::net
