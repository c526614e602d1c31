// Deterministic top-K attribution sketches for the live observability
// plane.
//
// A Space-Saving sketch (Metwally et al.) tracks the K heaviest keys of a
// stream in O(K) memory with a per-key overcount bound (`error`): a miss
// on a full sketch evicts the current minimum and charges the newcomer
// min+w, remembering min as its maximum possible overcount. Every update
// runs in event order on the simulation thread, so sketch contents — and
// everything rendered from them — are deterministic for a fixed seed.
//
// Allocation discipline: a sketch allocates exactly twice, at
// construction (slot vector + open-addressed index); add() never
// allocates — eviction reuses the victim's slot and repairs the index
// with backward-shift deletion. `topk_allocations()` is the arena-style
// audit counter: it moves only when a sketch (re)allocates, so a flat
// reading across a measured window proves the attribution hot path is
// allocation-free (same contract as util::arena_allocations()).
//
// TopKAttribution bundles the sketches the daemon exports: per-5-tuple
// flows, per-PFCP-session (keyed by the subscriber's UE address inside a
// configured block — the session identity that survives GTP decap), and
// per-property, each metered over delivered packets / checker rejects /
// reports. Rendered as Prometheus gauge families (`hydra_topk_*` — gauge,
// not counter: an evicted key's count is not monotone across scrapes) and
// as deterministic JSON.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/exporter.hpp"

namespace hydra::obs {

// Heap allocations performed by Space-Saving sketches since process start
// (monotone; construction only — see header comment).
std::uint64_t topk_allocations();

// 128-bit sketch key; domains pack their identity into (hi, lo).
struct TopKKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  bool operator==(const TopKKey& o) const { return hi == o.hi && lo == o.lo; }
};

class SpaceSaving {
 public:
  struct Entry {
    TopKKey key;
    std::uint64_t count = 0;
    std::uint64_t error = 0;  // max overcount inherited at insertion
    std::uint64_t stamp = 0;  // monotone (re)insertion order, tie-break
  };

  // `capacity` (K) must be positive; memory is fixed from here on.
  explicit SpaceSaving(std::size_t capacity);

  void add(const TopKKey& key, std::uint64_t w = 1);

  // Drops `key`'s entry if present (swap-with-last + index repair; no
  // allocation). `total()` is the stream weight observed and is left
  // unchanged — used when a deployment slot is reused for a different
  // property, whose attribution must start empty.
  void erase(const TopKKey& key);

  // Entries ranked heaviest-first; ties broken by (stamp, key) so the
  // order is a pure function of the committed update sequence.
  std::vector<Entry> ranked() const;

  std::uint64_t total() const { return total_; }  // total weight observed
  std::size_t capacity() const { return slots_cap_; }
  std::size_t size() const { return slots_.size(); }
  const std::vector<Entry>& slots() const { return slots_; }
  void clear();

  // Snapshot/restore: replay entries in the order `ranked()`-by-stamp
  // produced them; stamps are re-issued in replay order, preserving every
  // deterministic tie-break. `restore_total` reinstates the stream weight.
  void restore_entry(const TopKKey& key, std::uint64_t count,
                     std::uint64_t error);
  void restore_total(std::uint64_t total) { total_ = total; }

 private:
  static std::uint64_t hash(const TopKKey& key);
  std::size_t probe(const TopKKey& key) const;  // index slot or empty slot
  void index_erase(const TopKKey& key);

  std::size_t slots_cap_ = 0;
  std::size_t mask_ = 0;  // index size - 1 (power of two)
  std::uint64_t total_ = 0;
  std::uint64_t stamp_ = 0;
  std::vector<Entry> slots_;
  // Open-addressed (linear probe) key -> slot map; 0 = empty, else
  // slot index + 1. Sized 2^ceil(log2(4K)) so load factor stays <= 1/2.
  std::vector<std::uint32_t> index_;
};

// Minimal flow identity handed in by the network layer (mirrors
// p4rt::FlowId without depending on it; obs sits below p4rt).
struct TopKFlow {
  bool parsed = false;
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t proto = 0;
};

TopKKey pack_flow(const TopKFlow& f);
TopKFlow unpack_flow(const TopKKey& k);

struct TopKConfig {
  std::size_t k = 8;
  // Subscriber (UE) address block: a flow endpoint inside it identifies
  // the PFCP session the packet belongs to. mask == 0 disables session
  // attribution.
  std::uint32_t session_net = 0;
  std::uint32_t session_mask = 0;
};

class TopKAttribution {
 public:
  // `properties` maps deployment id -> property name for labels; rejects
  // and reports arriving for later deployments render as "dep<N>".
  TopKAttribution(TopKConfig cfg, std::vector<std::string> properties);

  // ---- feeders (simulation thread only) ---------------------------------
  void on_delivered(const TopKFlow& flow);
  // `dep_mask` has bit d set for every deployment whose checker rejected
  // the packet this hop (deployments >= 64 aggregate into the flow and
  // session sketches but carry no property attribution).
  void on_rejected(const TopKFlow& flow, std::uint64_t dep_mask);
  void on_report(const TopKFlow& flow, int deployment);

  // Rolling deploy into slot `deployment`: relabels the slot and purges
  // its entries from the property sketches, so a reused deployment id
  // never mixes the old and new property's attribution. Retired slots are
  // NOT purged — their frozen entries keep rendering under the old name
  // until the slot is reused. Also grows the label vector for slots
  // deployed after arming.
  void redefine_property(int deployment, std::string name);

  const TopKConfig& config() const { return cfg_; }

  // ---- export -----------------------------------------------------------
  // Appends `hydra_topk_*` gauge families (samples in sorted label order,
  // empty sketches omitted) for to_prometheus(reg, extra).
  void prom_families(std::vector<PromFamily>& out) const;
  // {"k": ..., "flow": {"packets": {...}, ...}, "session": ..., ...};
  // entries heaviest-first with count/error.
  std::string to_json() const;

  // ---- snapshot/restore -------------------------------------------------
  // Lines "topk <tag> <total>" + "tke <tag> <hi> <lo> <count> <error>"
  // (entries in stamp order). restore_line consumes both kinds; returns
  // false for lines that are not topk state.
  std::string snapshot_text() const;
  bool restore_line(const std::string& line);

  // Test hooks.
  const SpaceSaving& flow_packets() const { return flow_packets_; }
  const SpaceSaving& flow_rejects() const { return flow_rejects_; }
  const SpaceSaving& session_packets() const { return session_packets_; }
  const SpaceSaving& property_rejects() const { return property_rejects_; }

 private:
  bool session_key(const TopKFlow& flow, TopKKey* out) const;
  std::string property_label(const TopKKey& key) const;

  TopKConfig cfg_;
  std::vector<std::string> properties_;
  SpaceSaving flow_packets_;
  SpaceSaving flow_rejects_;
  SpaceSaving flow_reports_;
  SpaceSaving session_packets_;
  SpaceSaving session_rejects_;
  SpaceSaving session_reports_;
  SpaceSaving property_rejects_;
  SpaceSaving property_reports_;
};

}  // namespace hydra::obs
