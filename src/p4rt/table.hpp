// Match-action table runtime. Backs both the tables generated from Indus
// control variables and the hand-written forwarding pipelines (ECMP
// routing, UPF, VLAN bridging).
//
// Supports the match kinds real P4 targets offer — exact, ternary
// (value/mask), LPM, and range — with ternary/range disambiguated by entry
// priority (higher wins), matching Tofino TCAM semantics.
//
// Lookup runs on raw 64-bit key words (every field fits BitVec::kMaxWidth);
// the std::vector<BitVec> overload is an adapter for control-plane callers.
// A table with at most kPackedMax entries is served by a scan over packed
// per-entry rows (mask/value plus range bounds per field, so all four match
// kinds share one test). Above that, a kind-aware index serves it, mirroring
// how hardware splits a table across SRAM hash units and TCAM:
//   * entries whose every field pins a single key value (exact fields,
//     full-mask ternary, full-length LPM, single-point ranges) live in a
//     hash map over the concatenated key bits — O(1) per packet;
//   * entries with one true LPM field and otherwise pinned fields live in
//     per-prefix-length hash maps, probed for every installed length;
//   * everything else (partial ternary masks, wildcards, real ranges) stays
//     in a priority-sorted residue scanned with an early exit once the best
//     hit so far dominates all remaining residue priorities.
// A per-table last-hit cache short-circuits the flow-skewed traffic the
// benches generate. All paths return the same winner as the reference
// linear scan: highest priority, ties broken by insertion order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/ir.hpp"
#include "obs/metrics.hpp"
#include "util/bitvec.hpp"

namespace hydra::p4rt {

using ir::MatchKind;

// Hot-path lookup counters. Detached (free) by default; attach handles
// from an obs::Registry to start counting. Several table instances may
// share one set of handles to aggregate (e.g. the same checker table
// across every switch).
struct TableMetrics {
  obs::Counter hits;
  obs::Counter misses;
  obs::Counter cache_hits;  // lookups served by the last-hit cache
};

struct MatchFieldSpec {
  MatchKind kind = MatchKind::kExact;
  int width = 32;
};

// One field's pattern within an entry.
struct KeyPattern {
  BitVec value{32, 0};
  BitVec mask{32, 0};  // ternary: 1-bits must match; exact: full mask
  int prefix_len = 0;  // lpm
  BitVec lo{32, 0};    // range
  BitVec hi{32, 0};

  static KeyPattern exact(BitVec v);
  static KeyPattern ternary(BitVec v, BitVec m);
  static KeyPattern wildcard(int width);
  static KeyPattern lpm(BitVec v, int prefix_len);
  static KeyPattern range(BitVec lo, BitVec hi);
};

struct TableEntry {
  int priority = 0;  // higher wins among multiple matches
  std::vector<KeyPattern> patterns;
  std::string action;            // action name (informational)
  std::vector<BitVec> action_data;
};

class Table {
 public:
  Table() = default;
  Table(std::string name, std::vector<MatchFieldSpec> key_spec);

  const std::string& name() const { return name_; }
  const std::vector<MatchFieldSpec>& key_spec() const { return key_spec_; }

  // Inserts an entry; throws std::invalid_argument on arity mismatch.
  void insert(TableEntry entry);
  // Convenience for fully-exact entries.
  void insert_exact(const std::vector<BitVec>& key,
                    std::vector<BitVec> action_data,
                    const std::string& action = "hit", int priority = 0);
  // Removes all entries whose patterns match `patterns` on the fields the
  // table's match kinds actually consult (exact: value; ternary/lpm:
  // mask and masked value; range: bounds). Returns count.
  //
  // When every query field pins a single key value and the table has never
  // seen a duplicate pinned entry, this is O(1): one hash probe plus a
  // swap-with-last removal and local reindex (the million-session churn
  // path). Otherwise it falls back to the reference scan + full index
  // rebuild. NOTE the swap reorders storage, so equal-priority ties among
  // surviving entries follow the post-removal storage order — consistent
  // between lookup() and lookup_linear_reference(), which both key ties on
  // storage order.
  int remove_if_key_equals(const std::vector<KeyPattern>& patterns);
  void clear();
  std::size_t size() const { return entries_.size(); }
  const std::vector<TableEntry>& entries() const { return entries_; }

  // Index of an entry returned by lookup() within entries(), or -1 for a
  // pointer this table does not own. Pure pointer arithmetic — used by the
  // forensics layer to record *which* entry matched without adding any
  // bookkeeping to the lookup hot path.
  std::int32_t entry_index_of(const TableEntry* e) const {
    if (e == nullptr || entries_.empty()) return -1;
    const std::ptrdiff_t d = e - entries_.data();
    if (d < 0 || d >= static_cast<std::ptrdiff_t>(entries_.size())) return -1;
    return static_cast<std::int32_t>(d);
  }

  // Tables at or below this many entries are served by the packed scan;
  // larger ones by the index. The crossover measured by bench/table_scale.
  static constexpr std::size_t kPackedMax = 16;

  // Highest-priority matching entry, or nullptr on miss. Ties broken by
  // insertion order (earlier wins), like most switch runtimes. `key` holds
  // one raw word per field; bit-identical to lookup_linear_reference().
  const TableEntry* lookup(std::span<const std::uint64_t> key) const;
  // Adapter for control-plane callers and tests: looks up the values.
  const TableEntry* lookup(const std::vector<BitVec>& key) const;

  // The original O(entries) scan, kept as the semantic reference for
  // differential testing and as the baseline in bench/table_scale.
  const TableEntry* lookup_linear_reference(
      const std::vector<BitVec>& key) const;

  // For keyless "config" tables: the default action data.
  void set_default(std::vector<BitVec> action_data);
  const std::vector<BitVec>& default_data() const { return default_data_; }

  // Observability: counts every lookup() outcome through the attached
  // handles. Entry counts are exposed via size() and pulled at snapshot
  // time rather than counted here.
  void attach_metrics(const TableMetrics& metrics) { metrics_ = metrics; }

  // Drops the last-hit cache. Lookup results are unaffected; only which of
  // `hits`/`cache_hits` ticks next changes. Full-state snapshots call this
  // so a snapshotting process and its cache-cold restored twin keep their
  // cache-hit counters on identical trajectories.
  void invalidate_cache() const { cache_state_ = CacheState::kInvalid; }

 private:
  static bool matches(const KeyPattern& p, MatchKind kind, std::uint64_t v);
  static bool pattern_equal(MatchKind kind, const KeyPattern& a,
                            const KeyPattern& b);
  // Top-`len` bits of a `width`-bit field.
  static std::uint64_t prefix_mask(int width, int len);

  struct FlatKeyHash {
    std::size_t operator()(const std::vector<std::uint64_t>& v) const;
  };
  using FlatMap = std::unordered_map<std::vector<std::uint64_t>, std::uint32_t,
                                     FlatKeyHash>;

  // Per-field classification of an entry's pattern against the table spec.
  struct FieldClass {
    bool pins_single_key = false;  // matches exactly one flattened key value
    bool lpm_general = false;      // contiguous partial prefix on an LPM field
    int prefix = 0;                // valid when lpm_general
    std::uint64_t bits = 0;        // valid when pins_single_key
  };
  static FieldClass classify_field(const KeyPattern& p,
                                   const MatchFieldSpec& spec);

  // True when entry `a` beats entry `b` under the reference semantics
  // (higher priority, ties to the earlier-inserted = lower index).
  bool better(std::uint32_t a, std::uint32_t b) const;
  // True when every field of `e` pattern_equals `patterns`.
  bool same_key(const TableEntry& e,
                const std::vector<KeyPattern>& patterns) const;
  // Where an entry with `patterns` lives in the index: the exact map
  // (kInExact), the LPM map of one prefix length (>= 0), or the residue
  // (kInResidue). Fills `flat` with its hash-map key.
  static constexpr int kInExact = -1;
  static constexpr int kInResidue = -2;
  int place(const std::vector<KeyPattern>& patterns,
            std::vector<std::uint64_t>& flat) const;
  void index_entry(std::uint32_t idx);
  // Removes entry `idx` from whichever index structure holds it. Only
  // valid while dup_pinned_ == 0 (each pinned key maps to one entry).
  void unindex_entry(std::uint32_t idx);
  // Swap-with-last removal: unindexes `idx`, moves the last entry into its
  // slot, and reindexes the moved entry under its new index.
  void remove_entry(std::uint32_t idx);
  void rebuild_index();
  // Appends entry `e`'s packed row.
  void pack_entry(const TableEntry& e);
  // Repacks every row while the table is at or below kPackedMax; drops
  // the rows above it.
  void rebuild_packed();
  // The two lookup paths: each returns the winning entry index or -1.
  std::int64_t scan_packed(std::span<const std::uint64_t> key) const;
  // Exact map, per-prefix LPM maps, then the sorted residue scan.
  std::int64_t probe_index(std::span<const std::uint64_t> key) const;

  std::string name_;
  std::vector<MatchFieldSpec> key_spec_;
  std::vector<TableEntry> entries_;
  std::vector<BitVec> default_data_;
  TableMetrics metrics_;  // detached unless observability is wired

  // ---- packed rows (tables at or below kPackedMax only) ------------------
  // One field of one entry: key word k matches iff (k & mask) == value and
  // lo <= k <= hi. Exact: mask all-ones; ternary/LPM: the pattern mask and
  // masked value; range: mask 0 and the bounds. Row-major, key_spec_.size()
  // fields per entry, in entries_ order.
  struct PackedField {
    std::uint64_t mask = 0;
    std::uint64_t value = 0;
    std::uint64_t lo = 0;
    std::uint64_t hi = ~0ULL;
  };
  std::vector<PackedField> packed_;

  // ---- index (maintained by insert and removal at every size) ----------
  int lpm_field_ = -1;  // position of the table's single LPM field, or -1
  FlatMap exact_;
  // prefix length -> hash map over (pinned fields ++ masked LPM field).
  std::map<int, FlatMap, std::greater<int>> lpm_;
  // Residue entries, bucketed by their FIRST field when it pins a single
  // key value (the shape the Aether policy/application tables take: exact
  // slice or UE ip up front, partial ternary behind it). A probe only
  // scans the bucket for its own field-0 bits, merged in better() order
  // with residue_any_ — entries whose field 0 does not pin. Each vector is
  // sorted (priority desc, index asc) so the scan keeps its early exit.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>
      residue_buckets_;
  std::vector<std::uint32_t> residue_any_;
  // Times a pinned insert collided with an already-indexed pinned entry
  // (duplicate key). Sticky until rebuild_index()/clear(): while nonzero,
  // the hash maps under-describe the duplicates, so removal falls back to
  // the reference scan + rebuild.
  std::uint64_t dup_pinned_ = 0;

  // ---- per-lookup scratch + last-hit cache --------------------------------
  enum class CacheState { kInvalid, kValid };
  mutable std::vector<std::uint64_t> word_scratch_;  // BitVec adapter
  mutable std::vector<std::uint64_t> flat_scratch_;  // index probe key
  mutable std::vector<std::uint64_t> cache_key_;
  mutable std::int64_t cache_idx_ = -1;  // entry index, or -1 for miss
  mutable CacheState cache_state_ = CacheState::kInvalid;
};

}  // namespace hydra::p4rt
