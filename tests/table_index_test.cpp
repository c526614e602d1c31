// Differential + unit tests for the match-action lookup engine: for random
// table shapes, random entry mixes (exact / full-mask ternary / partial
// ternary / wildcard / LPM / range / point-range), and inserts interleaved
// with removals and clears, Table::lookup — on key words and on BitVecs,
// through the packed scan and through the index — must return exactly the
// same entry as the reference linear scan on every key, and count hits,
// misses and cache hits as the last-hit cache model says.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "obs/metrics.hpp"
#include "p4rt/table.hpp"
#include "util/rng.hpp"

namespace hydra::p4rt {
namespace {

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
        return KeyPattern::exact(small(f.width));
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
    e.action_data.push_back(BitVec(32, rng.next()));
    inserted_keys.push_back(e.patterns);
    table.insert(std::move(e));
    cache_valid = false;
  }

  // By value: a victim copied from table.entries() must outlive the
  // removal of that entry.
  void remove(std::vector<KeyPattern> victim) {
    if (table.remove_if_key_equals(victim) > 0) cache_valid = false;
  }

  void clear() {
    table.clear();
    inserted_keys.clear();
    cache_valid = false;
  }

  // One lookup() through the word or the BitVec overload, checked against
  // the reference and the counter model.
  const TableEntry* lookup(const std::vector<BitVec>& key, bool words) {
    std::vector<std::uint64_t> raw;
    for (const BitVec& k : key) raw.push_back(k.value());
    const TableEntry* got =
        words ? table.lookup(std::span<const std::uint64_t>(raw))
              : table.lookup(key);
    if (cache_valid && raw == last_key) ++want_cache_hits;
    ++(got != nullptr ? want_hits : want_misses);
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
      const TableEntry* reference = table.lookup_linear_reference(key);
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
        remove(table.entries()[rng.below(table.size())].patterns);
      }
      ++ops;
      check_keys();
      if (::testing::Test::HasFatalFailure()) return;
    }
    while (table.size() >= below) {
      if (rng.chance(0.15)) {
        insert_random();
      } else {
        remove(table.entries()[rng.below(table.size())].patterns);
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

// The packed scan serves the table up to kPackedMax entries, the index
// above it: every seed crosses the threshold upwards and back down by
// removals, twice, so both paths and the repacking on removal are checked
// against the reference at every size in between.
TEST_P(TableIndexDifferential, PackedAndIndexAgreeAcrossThreshold) {
  // Every fifth seed has one field of each match kind; the rest random.
  TableFuzzer fuzz(GetParam(), GetParam() % 5 == 0);
  for (int cycle = 0; cycle < 2; ++cycle) {
    fuzz.cross(Table::kPackedMax + 8, Table::kPackedMax / 2);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_LT(fuzz.table.size(), Table::kPackedMax / 2);
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
  const TableEntry* hit = t.lookup({BitVec(8, 5)});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action_data[0].value(), 1u);
  EXPECT_EQ(hit, t.lookup_linear_reference({BitVec(8, 5)}));
}

TEST(TableIndex, HigherPriorityExactReplacesEarlier) {
  Table t("t", {{MatchKind::kExact, 8}});
  t.insert_exact({BitVec(8, 5)}, {BitVec(8, 1)}, "low", 1);
  t.insert_exact({BitVec(8, 5)}, {BitVec(8, 2)}, "high", 9);
  EXPECT_EQ(t.lookup({BitVec(8, 5)})->action_data[0].value(), 2u);
}

TEST(TableIndex, ResidueBeatsExactOnPriority) {
  Table t("t", {{MatchKind::kTernary, 8}});
  TableEntry wild;
  wild.priority = 10;
  wild.patterns.push_back(KeyPattern::wildcard(8));
  wild.action_data.push_back(BitVec(8, 1));
  t.insert(std::move(wild));
  TableEntry ex;
  ex.priority = 1;
  ex.patterns.push_back(KeyPattern::exact(BitVec(8, 7)));
  ex.action_data.push_back(BitVec(8, 2));
  t.insert(std::move(ex));
  // The wildcard (residue path) outranks the exact (hash path).
  EXPECT_EQ(t.lookup({BitVec(8, 7)})->action_data[0].value(), 1u);
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
  t.insert(std::move(wide));
  t.insert(std::move(narrow));
  EXPECT_EQ(t.lookup({BitVec(32, 0x0a000105)})->action_data[0].value(), 1u);
  EXPECT_EQ(t.lookup({BitVec(32, 0x0a000105)}),
            t.lookup_linear_reference({BitVec(32, 0x0a000105)}));
}

// ---------------------------------------------------------------------------
// Cache invalidation on table mutation
// ---------------------------------------------------------------------------

TEST(TableIndex, CacheInvalidatedByInsert) {
  Table t("t", {{MatchKind::kExact, 8}});
  t.insert_exact({BitVec(8, 5)}, {BitVec(8, 1)}, "old", 1);
  EXPECT_EQ(t.lookup({BitVec(8, 5)})->action_data[0].value(), 1u);
  t.insert_exact({BitVec(8, 5)}, {BitVec(8, 2)}, "new", 9);
  EXPECT_EQ(t.lookup({BitVec(8, 5)})->action_data[0].value(), 2u);
}

TEST(TableIndex, CacheInvalidatedByRemoveAndClear) {
  Table t("t", {{MatchKind::kExact, 8}});
  t.insert_exact({BitVec(8, 5)}, {BitVec(8, 1)});
  EXPECT_NE(t.lookup({BitVec(8, 5)}), nullptr);
  EXPECT_EQ(t.remove_if_key_equals({KeyPattern::exact(BitVec(8, 5))}), 1);
  EXPECT_EQ(t.lookup({BitVec(8, 5)}), nullptr);
  t.insert_exact({BitVec(8, 5)}, {BitVec(8, 3)});
  EXPECT_NE(t.lookup({BitVec(8, 5)}), nullptr);
  t.clear();
  EXPECT_EQ(t.lookup({BitVec(8, 5)}), nullptr);
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
  t.insert(std::move(e));
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
  t.insert(std::move(e));
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
  t.insert(std::move(e));
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
  EXPECT_EQ(t.lookup({BitVec(8, 1)}), nullptr);
  EXPECT_EQ(t.lookup({BitVec(8, 2)})->action_data[0].value(), 20u);
}

}  // namespace
}  // namespace hydra::p4rt
