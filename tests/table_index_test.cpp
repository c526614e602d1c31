// Differential + unit tests for the match-action lookup engine: for random
// table shapes, random entry mixes (exact / full-mask ternary / partial
// ternary / wildcard / LPM / range / point-range, with off-width values
// and value bits outside the mask), and inserts interleaved with removals
// and clears, Table::lookup — on key words and on BitVecs — must return
// exactly the same row as the reference linear scan and as a pattern-level
// scan of the materialised entries on every key, and count hits, misses
// and cache hits as the last-hit cache model says. Snapshot round trips
// (table_io) must reproduce every entry byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <sstream>

#include "obs/metrics.hpp"
#include "p4rt/table.hpp"
#include "p4rt/table_io.hpp"
#include "util/rng.hpp"

namespace hydra::p4rt {

// The index internals the collision tests steer by.
struct TablePeer {
  static std::uint64_t pinned_hash(std::uint64_t key) {
    return Table::hash(Table::kPinnedTag, &key, 1);
  }
  static std::size_t capacity(const Table& t) {
    return t.slots_.empty() ? 0 : t.slot_mask_ + 1;
  }
  static std::size_t used(const Table& t) { return t.slots_used_; }
  static std::size_t classes(const Table& t) { return t.classes_.size(); }
};

namespace {

// The pattern semantics, independent of the table's word rows: the oracle
// for what a materialised entry matches.
bool pattern_matches(const KeyPattern& p, MatchKind kind, std::uint64_t v) {
  switch (kind) {
    case MatchKind::kExact:
      return v == p.value.value();
    case MatchKind::kTernary:
    case MatchKind::kLpm:
      return (v & p.mask.value()) == (p.value.value() & p.mask.value());
    case MatchKind::kRange:
      return p.lo.value() <= v && v <= p.hi.value();
  }
  return false;
}

// A row materialised through the table's row view.
TableEntry entry_of(const Table& t, std::int32_t row) {
  TableEntry e{t.priority(row), {}, t.action(row), {}};
  for (std::size_t i = 0; i < t.key_spec().size(); ++i) {
    e.patterns.push_back(t.pattern(row, i));
  }
  const std::span<const std::uint64_t> data = t.action_data(row);
  for (std::size_t i = 0; i < data.size(); ++i) {
    e.action_data.emplace_back(t.action_width(row, i), data[i]);
  }
  return e;
}

// First row of the highest matching priority, from the materialised rows.
std::int32_t pattern_lookup(const Table& t, const std::vector<BitVec>& key) {
  std::int32_t best = -1;
  int best_priority = 0;
  for (std::int32_t r = 0; r < static_cast<std::int32_t>(t.size()); ++r) {
    const TableEntry e = entry_of(t, r);
    bool hit = true;
    for (std::size_t i = 0; hit && i < key.size(); ++i) {
      hit = pattern_matches(e.patterns[i], t.key_spec()[i].kind,
                            key[i].value());
    }
    if (hit && (best < 0 || e.priority > best_priority)) {
      best = r;
      best_priority = e.priority;
    }
  }
  return best;
}

bool same_bits(const BitVec& a, const BitVec& b) {
  return a.width() == b.width() && a.value() == b.value();
}

// Every field of two entries, widths included.
void expect_same_entry(const TableEntry& got, const TableEntry& want) {
  EXPECT_EQ(got.priority, want.priority);
  EXPECT_EQ(got.action, want.action);
  ASSERT_EQ(got.patterns.size(), want.patterns.size());
  for (std::size_t i = 0; i < want.patterns.size(); ++i) {
    const KeyPattern& g = got.patterns[i];
    const KeyPattern& w = want.patterns[i];
    EXPECT_TRUE(same_bits(g.value, w.value)) << "field " << i;
    EXPECT_TRUE(same_bits(g.mask, w.mask)) << "field " << i;
    EXPECT_EQ(g.prefix_len, w.prefix_len) << "field " << i;
    EXPECT_TRUE(same_bits(g.lo, w.lo)) << "field " << i;
    EXPECT_TRUE(same_bits(g.hi, w.hi)) << "field " << i;
  }
  ASSERT_EQ(got.action_data.size(), want.action_data.size());
  for (std::size_t i = 0; i < want.action_data.size(); ++i) {
    EXPECT_TRUE(same_bits(got.action_data[i], want.action_data[i]));
  }
}

// The first action word of the row `key` hits, or -1 on a miss.
std::int64_t data0(const Table& t, const std::vector<BitVec>& key) {
  const std::int32_t row = t.lookup(key);
  return row < 0 ? -1 : static_cast<std::int64_t>(t.action_data(row)[0]);
}

// ---------------------------------------------------------------------------
// Randomized differential: indexed lookup vs. linear reference
// ---------------------------------------------------------------------------

struct TableFuzzer {
  Rng rng;
  std::vector<MatchFieldSpec> spec;
  Table table;
  std::vector<std::vector<KeyPattern>> inserted_keys;  // for real removals
  std::uint64_t ops = 0;
  std::uint64_t lookups = 0;

  // The table's counters, and the model they must equal: a lookup() that
  // repeats the previous lookup()'s key words with no mutation in between
  // is a cache hit; every lookup() is a hit or a miss.
  obs::Registry registry;
  TableMetrics metrics;
  std::uint64_t want_hits = 0;
  std::uint64_t want_misses = 0;
  std::uint64_t want_cache_hits = 0;
  std::vector<std::uint64_t> last_key;
  bool cache_valid = false;

  // `all_kinds`: one field of each match kind, in random order, instead of
  // one to three fields of random kinds.
  explicit TableFuzzer(std::uint64_t seed, bool all_kinds = false)
      : rng(seed) {
    const std::vector<int> widths = {8, 16, 32, 48};
    std::vector<MatchKind> kinds = {MatchKind::kExact, MatchKind::kTernary,
                                    MatchKind::kLpm, MatchKind::kRange};
    if (all_kinds) {
      for (std::size_t i = kinds.size(); i > 1; --i) {
        std::swap(kinds[i - 1], kinds[rng.below(i)]);
      }
      for (MatchKind k : kinds) spec.push_back({k, rng.pick(widths)});
    } else {
      const std::size_t arity = 1 + rng.below(3);
      for (std::size_t i = 0; i < arity; ++i) {
        spec.push_back({rng.pick(kinds), rng.pick(widths)});
      }
    }
    table = Table("fuzz", spec);
    metrics.hits = registry.counter("fuzz.hits");
    metrics.misses = registry.counter("fuzz.misses");
    metrics.cache_hits = registry.counter("fuzz.cache_hits");
    table.attach_metrics(metrics);
  }

  // Small value domain so keys collide with patterns often.
  BitVec small(int width) { return BitVec(width, rng.below(64)); }

  KeyPattern random_pattern(const MatchFieldSpec& f) {
    switch (f.kind) {
      case MatchKind::kExact:
        // Now and then a value of another width: the row keeps it as is.
        return KeyPattern::exact(
            rng.chance(0.1) ? BitVec(f.width == 8 ? 16 : 8, rng.below(64))
                            : small(f.width));
      case MatchKind::kTernary: {
        const double roll = rng.uniform();
        if (roll < 0.3) return KeyPattern::exact(small(f.width));  // full mask
        if (roll < 0.5) return KeyPattern::wildcard(f.width);
        return KeyPattern::ternary(BitVec(f.width, rng.below(64)),
                                   BitVec(f.width, rng.next()));
      }
      case MatchKind::kLpm:
        return KeyPattern::lpm(
            BitVec(f.width, rng.next()),
            static_cast<int>(rng.below(static_cast<std::uint64_t>(f.width) + 1)));
      case MatchKind::kRange: {
        std::uint64_t lo = rng.below(64);
        std::uint64_t hi = rng.chance(0.3) ? lo : rng.below(64);
        if (hi < lo) std::swap(lo, hi);
        return KeyPattern::range(BitVec(f.width, lo), BitVec(f.width, hi));
      }
    }
    return KeyPattern::wildcard(f.width);
  }

  std::vector<BitVec> random_key() {
    std::vector<BitVec> key;
    for (const auto& f : spec) {
      // Mostly small values (to hit the small-domain patterns), sometimes
      // arbitrary bits to probe the masked paths.
      key.push_back(rng.chance(0.8) ? small(f.width)
                                    : BitVec(f.width, rng.next()));
    }
    return key;
  }

  void insert_random() {
    TableEntry e;
    e.priority = static_cast<int>(rng.below(4));  // few levels → many ties
    for (const auto& f : spec) e.patterns.push_back(random_pattern(f));
    // Action words of varying count and width, sometimes none.
    for (std::uint64_t n = rng.below(3); n > 0; --n) {
      e.action_data.push_back(
          BitVec(static_cast<int>(1 + rng.below(64)), rng.next()));
    }
    inserted_keys.push_back(e.patterns);
    table.insert(e);
    // The new row reads back exactly as inserted.
    expect_same_entry(entry_of(table, static_cast<std::int32_t>(table.size() - 1)),
                      e);
    cache_valid = false;
  }

  void remove(const std::vector<KeyPattern>& victim) {
    if (table.remove_if_key_equals(victim) > 0) cache_valid = false;
  }

  void clear() {
    table.clear();
    inserted_keys.clear();
    cache_valid = false;
  }

  // One lookup() through the word or the BitVec overload, checked against
  // the reference and the counter model.
  std::int32_t lookup(const std::vector<BitVec>& key, bool words) {
    std::vector<std::uint64_t> raw;
    for (const BitVec& k : key) raw.push_back(k.value());
    const std::int32_t got =
        words ? table.lookup(std::span<const std::uint64_t>(raw))
              : table.lookup(key);
    if (cache_valid && raw == last_key) ++want_cache_hits;
    ++(got >= 0 ? want_hits : want_misses);
    last_key = raw;
    cache_valid = true;
    EXPECT_EQ(metrics.hits.value(), want_hits);
    EXPECT_EQ(metrics.misses.value(), want_misses);
    EXPECT_EQ(metrics.cache_hits.value(), want_cache_hits);
    ++lookups;
    return got;
  }

  void check_keys() {
    for (int i = 0; i < 4; ++i) {
      const auto key = random_key();
      const std::int32_t reference = table.lookup_linear_reference(key);
      ASSERT_EQ(reference, pattern_lookup(table, key))
          << "rows diverge from their patterns after " << ops << " ops";
      ASSERT_EQ(lookup(key, rng.chance(0.5)), reference)
          << "divergence after " << ops << " ops (table size "
          << table.size() << ")";
      // Exercise the last-hit cache: a repeated lookup must be stable,
      // through either overload.
      ASSERT_EQ(lookup(key, rng.chance(0.5)), reference);
    }
  }

  void step() {
    const double roll = rng.uniform();
    if (roll < 0.70 || table.size() == 0) {
      insert_random();
    } else if (roll < 0.90) {
      // Remove: usually a previously inserted key (real churn), sometimes a
      // fresh random pattern (usually a no-op).
      std::vector<KeyPattern> victim;
      if (!inserted_keys.empty() && rng.chance(0.8)) {
        victim = inserted_keys[rng.below(inserted_keys.size())];
      } else {
        for (const auto& f : spec) victim.push_back(random_pattern(f));
      }
      remove(victim);
    } else if (roll < 0.93) {
      clear();
    }
    ++ops;
    check_keys();
  }

  // Grows the table past `above`, then shrinks it below `below` by
  // removing live entries — no clear() — checking keys after every op.
  void cross(std::size_t above, std::size_t below) {
    while (table.size() <= above) {
      if (rng.chance(0.85) || table.size() == 0) {
        insert_random();
      } else {
        remove(entry_of(table, static_cast<std::int32_t>(rng.below(table.size())))
                   .patterns);
      }
      ++ops;
      check_keys();
      if (::testing::Test::HasFatalFailure()) return;
    }
    while (table.size() >= below) {
      if (rng.chance(0.15)) {
        insert_random();
      } else {
        remove(entry_of(table, static_cast<std::int32_t>(rng.below(table.size())))
                   .patterns);
      }
      ++ops;
      check_keys();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
};

class TableIndexDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TableIndexDifferential, IndexedMatchesLinearReference) {
  TableFuzzer fuzz(GetParam());
  // 500 mutation ops x 4 fresh keys x 2 lookups each; across the 30 seeds
  // this drives well over 10k randomized operations through every path.
  for (int i = 0; i < 500; ++i) {
    fuzz.step();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GE(fuzz.ops + fuzz.lookups, 2500u);
}

// Small tables scan their rows, larger ones probe the index: every seed
// grows the table from the scan well into the index (past its growth
// points) and shrinks it back by removals, twice, so both paths, growth,
// swap-with-last removal and the chains' relinking are checked against the
// reference at every size in between.
TEST_P(TableIndexDifferential, ScanAndIndexAgreeAcrossGrowth) {
  // Every fifth seed has one field of each match kind; the rest random.
  TableFuzzer fuzz(GetParam(), GetParam() % 5 == 0);
  for (int cycle = 0; cycle < 2; ++cycle) {
    fuzz.cross(96, Table::kScanMax);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_LT(fuzz.table.size(), Table::kScanMax);
  }
  EXPECT_GT(fuzz.want_cache_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableIndexDifferential,
                         ::testing::Range<std::uint64_t>(1, 31));

// ---------------------------------------------------------------------------
// Priority-tie semantics must survive the index
// ---------------------------------------------------------------------------

TEST(TableIndex, ExactTieBrokenByInsertionOrder) {
  Table t("t", {{MatchKind::kExact, 8}});
  t.insert_exact({BitVec(8, 5)}, {BitVec(8, 1)}, "first", 3);
  t.insert_exact({BitVec(8, 5)}, {BitVec(8, 2)}, "second", 3);
  EXPECT_EQ(t.lookup({BitVec(8, 5)}), 0);
  EXPECT_EQ(t.lookup_linear_reference({BitVec(8, 5)}), 0);
}

TEST(TableIndex, HigherPriorityExactReplacesEarlier) {
  Table t("t", {{MatchKind::kExact, 8}});
  t.insert_exact({BitVec(8, 5)}, {BitVec(8, 1)}, "low", 1);
  t.insert_exact({BitVec(8, 5)}, {BitVec(8, 2)}, "high", 9);
  EXPECT_EQ(data0(t, {BitVec(8, 5)}), 2);
}

TEST(TableIndex, ResidueBeatsExactOnPriority) {
  Table t("t", {{MatchKind::kTernary, 8}});
  TableEntry wild;
  wild.priority = 10;
  wild.patterns.push_back(KeyPattern::wildcard(8));
  wild.action_data.push_back(BitVec(8, 1));
  t.insert(wild);
  TableEntry ex;
  ex.priority = 1;
  ex.patterns.push_back(KeyPattern::exact(BitVec(8, 7)));
  ex.action_data.push_back(BitVec(8, 2));
  t.insert(ex);
  // The wildcard (residue path) outranks the exact (hash path).
  EXPECT_EQ(data0(t, {BitVec(8, 7)}), 1);
}

TEST(TableIndex, LpmProbesAllPrefixLengths) {
  Table t("t", {{MatchKind::kLpm, 32}});
  TableEntry wide;
  wide.priority = 30;  // priority outranks prefix length, like the scan
  wide.patterns.push_back(KeyPattern::lpm(BitVec(32, 0x0a000000), 8));
  wide.action_data.push_back(BitVec(8, 1));
  TableEntry narrow;
  narrow.priority = 5;
  narrow.patterns.push_back(KeyPattern::lpm(BitVec(32, 0x0a000100), 24));
  narrow.action_data.push_back(BitVec(8, 2));
  t.insert(wide);
  t.insert(narrow);
  EXPECT_EQ(data0(t, {BitVec(32, 0x0a000105)}), 1);
  EXPECT_EQ(t.lookup({BitVec(32, 0x0a000105)}),
            t.lookup_linear_reference({BitVec(32, 0x0a000105)}));
}

// ---------------------------------------------------------------------------
// Cache invalidation on table mutation
// ---------------------------------------------------------------------------

TEST(TableIndex, CacheInvalidatedByInsert) {
  Table t("t", {{MatchKind::kExact, 8}});
  t.insert_exact({BitVec(8, 5)}, {BitVec(8, 1)}, "old", 1);
  EXPECT_EQ(data0(t, {BitVec(8, 5)}), 1);
  t.insert_exact({BitVec(8, 5)}, {BitVec(8, 2)}, "new", 9);
  EXPECT_EQ(data0(t, {BitVec(8, 5)}), 2);
}

TEST(TableIndex, CacheInvalidatedByRemoveAndClear) {
  Table t("t", {{MatchKind::kExact, 8}});
  t.insert_exact({BitVec(8, 5)}, {BitVec(8, 1)});
  EXPECT_GE(t.lookup({BitVec(8, 5)}), 0);
  EXPECT_EQ(t.remove_if_key_equals({KeyPattern::exact(BitVec(8, 5))}), 1);
  EXPECT_EQ(t.lookup({BitVec(8, 5)}), -1);
  t.insert_exact({BitVec(8, 5)}, {BitVec(8, 3)});
  EXPECT_GE(t.lookup({BitVec(8, 5)}), 0);
  t.clear();
  EXPECT_EQ(t.lookup({BitVec(8, 5)}), -1);
}

// ---------------------------------------------------------------------------
// Kind-aware remove_if_key_equals
// ---------------------------------------------------------------------------

TEST(TableRemove, ExactIgnoresIrrelevantPatternFields) {
  Table t("t", {{MatchKind::kExact, 8}});
  t.insert_exact({BitVec(8, 1)}, {BitVec(8, 10)});
  // Same exact value, but constructed with a different (irrelevant) mask.
  KeyPattern p = KeyPattern::ternary(BitVec(8, 1), BitVec(8, 0x0f));
  EXPECT_EQ(t.remove_if_key_equals({p}), 1);
  EXPECT_EQ(t.size(), 0u);
}

TEST(TableRemove, RangeComparesBoundsOnly) {
  Table t("t", {{MatchKind::kRange, 16}});
  TableEntry e;
  e.patterns.push_back(KeyPattern::range(BitVec(16, 81), BitVec(16, 82)));
  e.action_data.push_back(BitVec(8, 1));
  t.insert(e);
  // A removal pattern with the same bounds but noise in value/mask/prefix
  // (as a ternary-style constructor would leave) must still match.
  KeyPattern p = KeyPattern::range(BitVec(16, 81), BitVec(16, 82));
  p.value = BitVec(16, 0xffff);
  p.mask = BitVec(16, 0xff00);
  p.prefix_len = 7;
  EXPECT_EQ(t.remove_if_key_equals({p}), 1);
  EXPECT_EQ(t.size(), 0u);
}

TEST(TableRemove, TernaryComparesMaskedValue) {
  Table t("t", {{MatchKind::kTernary, 8}});
  TableEntry e;
  e.patterns.push_back(KeyPattern::ternary(BitVec(8, 0xa5), BitVec(8, 0xf0)));
  e.action_data.push_back(BitVec(8, 1));
  t.insert(e);
  // 0xa5 and 0xaf agree under mask 0xf0 → same match set → removed.
  EXPECT_EQ(t.remove_if_key_equals(
                {KeyPattern::ternary(BitVec(8, 0xaf), BitVec(8, 0xf0))}),
            1);
  EXPECT_EQ(t.size(), 0u);
}

TEST(TableRemove, TernaryDifferentMaskDoesNotMatch) {
  Table t("t", {{MatchKind::kTernary, 8}});
  TableEntry e;
  e.patterns.push_back(KeyPattern::ternary(BitVec(8, 0xa0), BitVec(8, 0xf0)));
  e.action_data.push_back(BitVec(8, 1));
  t.insert(e);
  EXPECT_EQ(t.remove_if_key_equals(
                {KeyPattern::ternary(BitVec(8, 0xa0), BitVec(8, 0xff))}),
            0);
  EXPECT_EQ(t.size(), 1u);
}

TEST(TableRemove, RemovesAllEquivalentEntriesAndReindexes) {
  Table t("t", {{MatchKind::kExact, 8}});
  t.insert_exact({BitVec(8, 1)}, {BitVec(8, 10)}, "a", 1);
  t.insert_exact({BitVec(8, 2)}, {BitVec(8, 20)}, "b", 1);
  t.insert_exact({BitVec(8, 1)}, {BitVec(8, 30)}, "c", 5);
  EXPECT_EQ(t.remove_if_key_equals({KeyPattern::exact(BitVec(8, 1))}), 2);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.lookup({BitVec(8, 1)}), -1);
  EXPECT_EQ(data0(t, {BitVec(8, 2)}), 20);
}

// ---------------------------------------------------------------------------
// LPM classes: every length of a 32-bit field, /0 and /32 included, under
// priorities that disagree with the lengths
// ---------------------------------------------------------------------------

class LpmLengths : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpmLengths, AllLengthsMatchReferenceThroughChurn) {
  Rng rng(GetParam());
  // Even seeds put a pinned exact field in front of the prefix.
  const bool two_fields = GetParam() % 2 == 0;
  std::vector<MatchFieldSpec> spec;
  if (two_fields) spec.push_back({MatchKind::kExact, 8});
  spec.push_back({MatchKind::kLpm, 32});
  Table t("routes", spec);
  const auto base = static_cast<std::uint32_t>(rng.next());
  // Keys near the installed prefixes, so most lengths have hits.
  const auto random_key = [&] {
    std::vector<BitVec> key;
    if (two_fields) key.emplace_back(8, rng.below(2));
    const std::uint64_t flip = rng.chance(0.5) ? 1ULL << rng.below(32)
                                               : rng.below(1U << 12);
    key.emplace_back(32, base ^ flip);
    return key;
  };
  const auto check = [&] {
    for (int k = 0; k < 64; ++k) {
      const auto key = random_key();
      ASSERT_EQ(t.lookup(key), t.lookup_linear_reference(key));
    }
  };
  std::vector<std::vector<KeyPattern>> installed;
  for (int round = 0; round < 3; ++round) {
    for (int len = 0; len <= 32; ++len) {
      std::vector<KeyPattern> pats;
      if (two_fields) pats.push_back(KeyPattern::exact(BitVec(8, rng.below(2))));
      const std::uint64_t noise =
          rng.chance(0.3) ? rng.next() : rng.below(1U << 12);
      pats.push_back(KeyPattern::lpm(BitVec(32, base ^ noise), len));
      const BitVec data(32, installed.size());
      t.insert(pats, {&data, 1}, "route", static_cast<int>(rng.below(40)));
      installed.push_back(pats);
      check();
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Every length 0..31 is an LPM class and /32 is pinned: 33 classes.
    if (round == 0) {
      EXPECT_EQ(TablePeer::classes(t), 33u);
    }
    for (int n = 0; n < 20; ++n) {
      t.remove_if_key_equals(installed[rng.below(installed.size())]);
      check();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpmLengths,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// The index at its growth point, under forced collisions
// ---------------------------------------------------------------------------

TEST(TableIndex, ChurnAtGrowthPointUnderForcedCollisions) {
  // Keys whose hashes agree in their top 12 bits share one home slot at
  // every capacity up to 4096: the index holds them as one long cluster,
  // and every removal backward-shifts through it.
  std::vector<std::uint64_t> keys;
  const std::uint64_t home = TablePeer::pinned_hash(0) >> 52;
  for (std::uint64_t k = 0; keys.size() < 160; ++k) {
    if (TablePeer::pinned_hash(k) >> 52 == home) keys.push_back(k);
  }
  Table t("t", {{MatchKind::kExact, 32}});
  std::vector<bool> present(keys.size(), false);
  const auto install = [&](std::size_t i) {
    const BitVec data(32, i);
    t.insert_exact(std::span<const std::uint64_t>(&keys[i], 1), {&data, 1});
    present[i] = true;
  };
  const auto check = [&] {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::vector<BitVec> key = {BitVec(32, keys[i])};
      ASSERT_EQ(t.lookup(key), t.lookup_linear_reference(key));
      ASSERT_EQ(data0(t, key), present[i] ? static_cast<std::int64_t>(i) : -1);
    }
  };
  // Fill an index of at least 64 slots to its growth point: 3/4 full, so
  // the next claim would grow it.
  const auto at_growth_point = [&] {
    return TablePeer::capacity(t) >= 64 &&
           (TablePeer::used(t) + 1) * 4 > TablePeer::capacity(t) * 3;
  };
  for (std::size_t i = 0; !at_growth_point(); ++i) {
    ASSERT_LT(i, keys.size());
    install(i);
    check();
    if (::testing::Test::HasFatalFailure()) return;
  }
  const std::size_t capacity = TablePeer::capacity(t);
  const std::size_t full = TablePeer::used(t);
  ASSERT_LT(full, keys.size());
  Rng rng(11);
  for (int op = 0; op < 400; ++op) {
    const std::size_t i = rng.below(keys.size());
    if (present[i]) {
      EXPECT_EQ(t.remove_if_key_equals({KeyPattern::exact(BitVec(32, keys[i]))}),
                1);
      present[i] = false;
    } else if (TablePeer::used(t) < full) {
      install(i);
    }
    check();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(TablePeer::capacity(t), capacity);
}

// ---------------------------------------------------------------------------
// Snapshot round trip: rows keep every pattern as installed
// ---------------------------------------------------------------------------

TEST(TableIo, ExactRowKeepsItsSnapshotBytes) {
  Table t("t", {{MatchKind::kExact, 8}});
  t.insert_exact({BitVec(8, 5)}, {BitVec(8, 50)});
  std::ostringstream out;
  serialize_table(t, out);
  EXPECT_EQ(out.str(), "1 0 0 hit 1 8 5 8 255 0 32 0 32 0 1 8 50");
}

TEST(TableIo, RoundTripIsByteIdentical) {
  const std::vector<MatchFieldSpec> spec = {{MatchKind::kExact, 8},
                                            {MatchKind::kTernary, 16},
                                            {MatchKind::kLpm, 32},
                                            {MatchKind::kRange, 16}};
  Table t("t", spec);
  t.set_default({BitVec(3, 5), BitVec(64, ~0ULL)});
  std::vector<TableEntry> entries;
  const auto add = [&](int priority, std::vector<KeyPattern> patterns,
                       std::string action, std::vector<BitVec> data) {
    entries.push_back({priority, std::move(patterns), std::move(action),
                       std::move(data)});
    t.insert(entries.back());
  };
  // Canonical rows.
  add(1,
      {KeyPattern::exact(BitVec(8, 7)),
       KeyPattern::ternary(BitVec(16, 0x1200), BitVec(16, 0xff00)),
       KeyPattern::lpm(BitVec(32, 0x0a000000), 8),
       KeyPattern::range(BitVec(16, 10), BitVec(16, 20))},
      "fwd", {BitVec(9, 300)});
  // Value bits outside the mask; a point range; no action name or words.
  add(2,
      {KeyPattern::exact(BitVec(8, 1)),
       KeyPattern::ternary(BitVec(16, 0xabcd), BitVec(16, 0x00f0)),
       KeyPattern::lpm(BitVec(32, 0x0a0b0c0d), 16),
       KeyPattern::range(BitVec(16, 5), BitVec(16, 5))},
      "", {});
  // Widths other than the spec's.
  add(3,
      {KeyPattern::exact(BitVec(16, 0x1ff)),
       KeyPattern::ternary(BitVec(8, 3), BitVec(4, 3)),
       KeyPattern::lpm(BitVec(16, 0x0a00), 8),
       KeyPattern::range(BitVec(8, 1), BitVec(32, 70000))},
      "a", {BitVec(1, 1), BitVec(64, 42)});
  // Wildcards, a true range, and a prefix_len that disagrees with its mask.
  KeyPattern stale = KeyPattern::lpm(BitVec(32, 0xc0a80000), 16);
  stale.prefix_len = 24;
  add(-4,
      {KeyPattern::exact(BitVec(8, 0)), KeyPattern::wildcard(16), stale,
       KeyPattern::range(BitVec(16, 0), BitVec(16, 0xffff))},
      "x", {BitVec(32, 0)});
  // Full-length and zero-length prefixes; exact patterns on ternary and
  // range fields.
  add(0,
      {KeyPattern::exact(BitVec(8, 9)), KeyPattern::exact(BitVec(16, 9)),
       KeyPattern::lpm(BitVec(32, 0x01020304), 32),
       KeyPattern::exact(BitVec(16, 80))},
      "hit", {});
  add(0,
      {KeyPattern::exact(BitVec(8, 9)), KeyPattern::wildcard(16),
       KeyPattern::lpm(BitVec(32, 0), 0),
       KeyPattern::range(BitVec(16, 80), BitVec(16, 81))},
      "hit", {BitVec(7, 0)});
  for (std::size_t r = 0; r < entries.size(); ++r) {
    expect_same_entry(entry_of(t, static_cast<std::int32_t>(r)), entries[r]);
  }

  std::ostringstream first;
  serialize_table(t, first);
  Table back("t", spec);
  std::istringstream in(first.str());
  deserialize_table(back, in);
  std::ostringstream second;
  serialize_table(back, second);
  EXPECT_EQ(first.str(), second.str());
  ASSERT_EQ(back.size(), entries.size());
  for (std::size_t r = 0; r < entries.size(); ++r) {
    expect_same_entry(entry_of(back, static_cast<std::int32_t>(r)), entries[r]);
  }
  ASSERT_EQ(back.default_data().size(), 2u);
  EXPECT_TRUE(same_bits(back.default_data()[0], BitVec(3, 5)));
  EXPECT_EQ(back.default_words()[1], ~0ULL);
  for (const std::vector<BitVec>& key :
       {std::vector<BitVec>{BitVec(8, 7), BitVec(16, 0x12ab),
                            BitVec(32, 0x0a010203), BitVec(16, 15)},
        std::vector<BitVec>{BitVec(8, 9), BitVec(16, 9),
                            BitVec(32, 0x01020304), BitVec(16, 80)},
        std::vector<BitVec>{BitVec(8, 0), BitVec(16, 1), BitVec(32, 0xc0a8ff00),
                            BitVec(16, 9)}}) {
    EXPECT_EQ(back.lookup(key), t.lookup(key));
    EXPECT_EQ(t.lookup(key), pattern_lookup(t, key));
  }
}

}  // namespace
}  // namespace hydra::p4rt
