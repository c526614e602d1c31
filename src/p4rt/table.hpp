// Match-action table runtime. Backs both the tables generated from Indus
// control variables and the hand-written forwarding pipelines (ECMP
// routing, UPF, VLAN bridging).
//
// Supports the match kinds real P4 targets offer — exact, ternary
// (value/mask), LPM, and range — with ternary/range disambiguated by entry
// priority (higher wins), matching Tofino TCAM semantics.
//
// Rows are flat words in storage order: each field's match words ({mask,
// value}, exact as {~0, value}; range as {lo, hi}) in one array, and a
// header (priority, interned action-name id, action-word count) plus the
// action-data words in another. Every row is canonical: insert refuses a
// pattern that is not what the KeyPattern constructors build back from its
// words (a width other than the field's, value bits outside the mask, a
// prefix_len its mask does not spell, or a member its match kind ignores),
// so the words alone print every entry back as it was installed.
//
// Lookup runs on raw 64-bit key words. Small tables (kScanMax) scan their
// rows; larger ones use one open-addressing index (linear probing,
// key words inline in the slot), split as hardware splits a table across
// SRAM hash units and TCAM:
//   * rows whose every field pins one key value sit under their key bits;
//   * rows with one true LPM field and otherwise pinned fields sit under
//     their masked key bits with the prefix length folded into the hash,
//     probed in order of each length's highest installed priority until
//     the best hit outranks everything left;
//   * the residue (partial masks, wildcards, real ranges) is kept in
//     priority-sorted chains of row ids, one per field-0 value headed from
//     the index when field 0 pins, plus one for the rest, scanned with an
//     early exit.
// A per-table last-hit cache short-circuits the flow-skewed traffic the
// benches generate. Every path returns the reference scan's winner:
// highest priority, ties broken by storage order.
//
// A Table is a per-instance front (name, key spec, last-hit cache, scratch
// words, metrics handles) over a copy-on-write entry store holding
// everything the control plane writes: rows, index, defaults. A copy
// shares its original's store until either is written; every mutator
// first makes the store its own, so copies keep value semantics. write_all
// writes a set of copies once per store they share.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
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
  // ternary and lpm keep only the value bits under the mask; lpm throws
  // std::invalid_argument for a length outside [0, v.width()].
  static KeyPattern ternary(BitVec v, BitVec m);
  static KeyPattern wildcard(int width);
  static KeyPattern lpm(BitVec v, int prefix_len);
  static KeyPattern range(BitVec lo, BitVec hi);
};

// Control-plane input.
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

  // ---- control plane -------------------------------------------------------
  // Appends a row. Throws std::invalid_argument, naming the table and the
  // field, on an arity mismatch or a pattern that is not the canonical one
  // its match words spell (see the top of this file); nothing is appended
  // then.
  void insert(std::span<const KeyPattern> patterns,
              std::span<const BitVec> action_data, std::string_view action,
              int priority);
  void insert(const TableEntry& e) {
    insert(e.patterns, e.action_data, e.action, e.priority);
  }
  // Word-level install of a fully pinned row: field i matches exactly
  // key[i] truncated to its width. Callers that install one entry into
  // many tables convert it to words once and call this per table.
  void insert_exact(std::span<const std::uint64_t> key,
                    std::span<const BitVec> action_data,
                    std::string_view action = "hit", int priority = 0);
  // insert_exact of exact_words(key).
  void insert_exact(const std::vector<BitVec>& key,
                    const std::vector<BitVec>& action_data,
                    std::string_view action = "hit", int priority = 0);
  // The words of a BitVec key; throws std::invalid_argument, naming the
  // table and the field, on an arity or a width that is not the spec's.
  std::vector<std::uint64_t> exact_words(const std::vector<BitVec>& key) const;
  // Removes all rows whose patterns match `patterns` on the fields the
  // table's match kinds actually consult (exact: value; ternary/lpm:
  // mask and masked value; range: bounds). Returns count.
  //
  // When every query field pins a single key value and the table has never
  // seen a duplicate pinned row, this is O(1): one index probe plus a
  // swap-with-last removal and local reindex (the million-session churn
  // path). Otherwise it falls back to the reference scan, an
  // order-preserving erase and a full index rebuild. NOTE the swap
  // reorders storage, so equal-priority ties among surviving rows follow
  // the post-removal storage order — consistent between lookup() and
  // lookup_linear_reference(), which both key ties on storage order.
  int remove_if_key_equals(const std::vector<KeyPattern>& patterns);
  void clear();
  std::size_t size() const { return store_->size; }

  // Applies `write` to each table in `copies` (each listed once), with the
  // result of calling it on every one in turn, but calls it once per entry
  // store the tables share: the first table of each store is written while
  // the others are detached (so the write copies the store only if a table
  // outside `copies` holds it too), then the others take the result, also
  // when `write` throws, and drop their last-hit caches if it changed rows.
  // `write` must change the table only through its public mutators.
  static void write_all(std::span<Table* const> copies,
                        const std::function<void(Table&)>& write);

  // ---- rows, by index in [0, size()) ---------------------------------------
  int priority(std::int32_t row) const {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(header(row)));
  }
  const std::string& action(std::int32_t row) const {
    return store_->actions[static_cast<std::uint16_t>(header(row) >> 32)];
  }
  std::span<const std::uint64_t> action_data(std::int32_t row) const {
    const Store& s = *store_;
    return {s.rows.data() + static_cast<std::size_t>(row) * s.stride + 1,
            static_cast<std::size_t>(header(row) >> 48)};
  }
  int action_width(std::int32_t row, std::size_t i) const {
    return store_->widths[static_cast<std::size_t>(row) * store_->data_cap +
                          i];
  }
  // Field `field`'s pattern, exactly as it was installed: the canonical
  // pattern of its match words.
  KeyPattern pattern(std::int32_t row, std::size_t field) const;

  // ---- data plane ----------------------------------------------------------
  // Tables of at most this many rows plus one per installed index class
  // scan them; larger ones probe the index (the crossover measured by
  // bench/table_scale: exact tables gain from the index above ~16 rows,
  // LPM tables with a length per row only above ~2 rows per length).
  static constexpr std::size_t kScanMax = 16;

  // Row index of the highest-priority matching row, or -1 on a miss. Ties
  // broken by storage order (earlier wins), like most switch runtimes.
  // `key` holds one raw word per field; bit-identical to
  // lookup_linear_reference().
  std::int32_t lookup(std::span<const std::uint64_t> key) const;
  // Adapter for control-plane callers and tests: looks up the values.
  std::int32_t lookup(const std::vector<BitVec>& key) const;
  // The O(rows) scan, kept as the semantic reference for differential
  // testing and as the baseline in bench/table_scale.
  std::int32_t lookup_linear_reference(const std::vector<BitVec>& key) const;

  // For keyless "config" tables: the default action data.
  void set_default(std::vector<BitVec> action_data);
  const std::vector<BitVec>& default_data() const {
    return store_->default_data;
  }
  std::span<const std::uint64_t> default_words() const {
    return store_->default_words;
  }

  // Observability: counts every lookup() outcome through the attached
  // handles. Entry counts are exposed via size() and pulled at snapshot
  // time rather than counted here.
  void attach_metrics(const TableMetrics& metrics) { metrics_ = metrics; }

  // Drops the last-hit cache. Lookup results are unaffected; only which of
  // `hits`/`cache_hits` ticks next changes. Full-state snapshots call this
  // so a snapshotting process and its cache-cold restored twin keep their
  // cache-hit counters on identical trajectories.
  void invalidate_cache() const { cache_valid_ = false; }

 private:
  friend struct TablePeer;  // index internals, for collision tests

  static constexpr std::uint32_t kNone = ~0U;
  // Index slot tags (0: empty slot): pinned rows, LPM rows by prefix
  // length, and residue chain heads (key: field-0 bits, other words 0).
  static constexpr std::uint32_t kPinnedTag = 1;
  static constexpr std::uint32_t kPrefixTag = 2;
  static constexpr std::uint32_t kBucketTag = kPrefixTag + 64;
  static constexpr std::uint32_t kResidue = 0;  // place(): not a class

  // An index class to probe: pinned rows or one LPM length. classes_ is
  // sorted by max_priority, descending. max_priority and `filter` (one bit
  // per installed key, picked by its hash's top 6 bits) are sticky until
  // the class empties: a probe skips a class whose filter bit is clear, so
  // the many near-empty LPM lengths of a mid-size table cost no slot read.
  struct ProbeClass {
    std::uint32_t tag = 0;
    std::uint32_t rows = 0;
    int max_priority = 0;
    std::uint64_t filter = 0;
    std::uint64_t lpm_mask = 0;  // key bits of the LPM field it compares
  };
  static std::uint64_t filter_bit(std::uint64_t hash) {
    return 1ULL << (hash >> 58);
  }

  // ---- the entry store ---------------------------------------------------
  // Everything the control plane writes, shared by copies of a table until
  // one of them is written.
  struct Store {
    // ---- rows ---------------------------------------------------------
    std::size_t size = 0;
    std::size_t row_cap = 0;   // rows the storage below holds
    std::size_t data_cap = 0;  // action-data words per row
    std::size_t stride = 1;    // 1 + data_cap
    std::vector<std::uint64_t> keys;  // 2 * fields match words per row
    std::vector<std::uint64_t> rows;  // header, action data
    std::vector<std::uint8_t> widths;  // action-data BitVec widths
    std::vector<std::string> actions;  // interned action names
    // Per row, allocated on first use: the residue chain link.
    std::vector<std::uint32_t> next;
    std::vector<BitVec> default_data;
    std::vector<std::uint64_t> default_words;

    // ---- index (maintained by insert and removal at every size) ------
    // Slot s is slots[s * (fields + 1) ...]: row | tag << 32, then the key.
    std::vector<std::uint64_t> slots;
    std::size_t slot_mask = 0;  // capacity - 1; no slots until needed
    std::size_t slots_used = 0;
    int slot_shift = 64;  // 64 - log2(capacity)
    std::vector<ProbeClass> classes;
    std::size_t buckets = 0;         // residue chains headed from slots
    std::uint32_t any_head = kNone;  // residue rows whose field 0 is free
    // Times a pinned insert collided with an already-indexed pinned row
    // (duplicate key). Sticky until rebuild_index()/clear(): while
    // nonzero, the index under-describes the duplicates, so removal falls
    // back to the reference scan + rebuild.
    std::uint64_t dup_pinned = 0;
    // Row writes so far (each one drops the writer's last-hit cache):
    // write_all drops the other copies' caches when this moves.
    std::uint64_t edits = 0;
  };
  // The store, copied first if another table shares it.
  Store& own();
  // After a row write: drops this copy's last-hit cache and counts the
  // write in the store.
  void changed() {
    invalidate_cache();
    ++store_->edits;
  }

  std::uint64_t header(std::int32_t row) const {
    return store_->rows[static_cast<std::size_t>(row) * store_->stride];
  }
  std::uint64_t* match_words(std::uint32_t row) {
    return store_->keys.data() + row * 2 * key_spec_.size();
  }
  const std::uint64_t* match_words(std::uint32_t row) const {
    return store_->keys.data() + row * 2 * key_spec_.size();
  }
  // Field i's match words of a pattern, and the pattern the KeyPattern
  // constructors build back from such words.
  void pattern_words(std::size_t i, const KeyPattern& p,
                     std::uint64_t* words) const;
  KeyPattern canonical_pattern(std::size_t i, const std::uint64_t* words) const;
  bool row_matches(std::uint32_t row, std::span<const std::uint64_t> key) const;
  // Throws the std::invalid_argument that refuses field `field`.
  [[noreturn]] void refuse(std::size_t field, const std::string& why) const;
  // True when row `a` beats row `b` under the reference semantics (higher
  // priority, ties to the lower row index).
  bool better(std::uint32_t a, std::uint32_t b) const {
    const int pa = priority(static_cast<std::int32_t>(a));
    const int pb = priority(static_cast<std::int32_t>(b));
    return pa > pb || (pa == pb && a < b);
  }

  void check_arity(std::size_t n) const;
  void check_key(std::size_t n) const;
  // Appends a row with the given header and data; the caller fills its
  // match words. The storage grows in steps (grown()), not per row.
  std::uint32_t append_row(std::span<const BitVec> action_data,
                           std::string_view action, int priority);
  void reserve_rows(std::size_t rows);
  void widen_data(std::size_t words);
  void move_row(std::uint32_t from, std::uint32_t to);
  // Swap-with-last removal: unindexes `row`, moves the last row into its
  // place and reindexes it under its new index.
  void remove_row(std::uint32_t row);

  // Whether field i of match words pins one key value, and its key bits.
  bool pins_field(std::size_t i, const std::uint64_t* words,
                  std::uint64_t& bits) const;
  // The class tag of match words (or kResidue); fills `flat` with the
  // index key.
  std::uint32_t place(const std::uint64_t* words, std::uint64_t* flat) const;
  void index_row(std::uint32_t row);
  // Indexes `row` in class `tag` under key_words().
  void index_class_row(std::uint32_t tag, std::uint32_t row);
  // Removes `row` from whichever structure holds it. Only valid while
  // dup_pinned_ == 0 (each pinned key maps to one row).
  void unindex_row(std::uint32_t row);
  void rebuild_index();
  // Counts a row of class `tag` whose key is key_words().
  void add_class(std::uint32_t tag, int priority);
  void drop_class(std::uint32_t tag);
  // Priority-sorted chain insert/unlink; each returns the new head.
  std::uint32_t chain_insert(std::uint32_t head, std::uint32_t row);
  std::uint32_t chain_remove(std::uint32_t head, std::uint32_t row);

  // ---- the open-addressing index -----------------------------------------
  static std::uint64_t hash(std::uint32_t tag, const std::uint64_t* key,
                            std::size_t n);
  // Fibonacci hashing: the slot is the hash's top bits.
  std::size_t home(std::uint32_t tag, const std::uint64_t* key) const {
    return static_cast<std::size_t>(hash(tag, key, key_spec_.size()) >>
                                    store_->slot_shift);
  }
  std::uint64_t& meta(std::size_t s) {
    return store_->slots[s * (key_spec_.size() + 1)];
  }
  std::uint64_t meta(std::size_t s) const {
    return store_->slots[s * (key_spec_.size() + 1)];
  }
  // The slot holding (tag, key), whose hash is `h`, or the empty slot that
  // ends its probe.
  std::size_t find_slot(std::uint32_t tag, const std::uint64_t* key,
                        std::uint64_t h) const;
  std::size_t find_slot(std::uint32_t tag, const std::uint64_t* key) const {
    return find_slot(tag, key, hash(tag, key, key_spec_.size()));
  }
  // The row under (tag, key), whose hash is `h`, or kNone.
  std::uint32_t find_row(std::uint32_t tag, const std::uint64_t* key,
                         std::uint64_t h) const;
  std::uint32_t find_row(std::uint32_t tag, const std::uint64_t* key) const {
    return find_row(tag, key, hash(tag, key, key_spec_.size()));
  }
  // Finds or claims the slot for (tag, key); true when it was claimed.
  bool claim_slot(std::uint32_t tag, const std::uint64_t* key,
                  std::uint32_t row, std::size_t& s);
  // Backward-shift deletion: no tombstones.
  void erase_slot(std::size_t s);
  void grow_slots();

  // The two lookup paths; each returns the winning row or -1.
  template <bool kRanges>
  std::int32_t scan(std::span<const std::uint64_t> key) const;
  std::int32_t probe(std::span<const std::uint64_t> key) const;

  std::string name_;
  std::vector<MatchFieldSpec> key_spec_;
  int lpm_field_ = -1;  // position of the table's single LPM field, or -1
  bool has_range_ = false;
  TableMetrics metrics_;  // detached unless observability is wired
  std::shared_ptr<Store> store_ = std::make_shared<Store>();

  // One allocation of per-table words: the index key of a probe or index
  // update, the last-hit cache key, an insert's or a removal's match words
  // (and the removal's index key), and each field's index-key mask (width
  // bits on ternary/LPM).
  mutable std::vector<std::uint64_t> scratch_;
  std::uint64_t* key_words() const { return scratch_.data(); }
  std::uint64_t* cache_key() const {
    return scratch_.data() + key_spec_.size();
  }
  std::uint64_t* query_words() const {
    return scratch_.data() + 2 * key_spec_.size();
  }
  const std::uint64_t* flat_masks() const {
    return scratch_.data() + 5 * key_spec_.size();
  }
  mutable std::int32_t cache_row_ = -1;  // row index, or -1 for miss
  mutable bool cache_valid_ = false;
};

}  // namespace hydra::p4rt
