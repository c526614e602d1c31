// Table lookup scaling microbench: ns/op for the reference linear scan vs.
// Table::lookup on key words at 4 .. 100k entries, for the two table shapes
// the data plane leans on (exact-match session tables, LPM route tables).
// Up to Table::kPackedMax entries lookup() scans packed rows, above it the
// index serves it; each row names the path. The small rows bracket the
// crossover kPackedMax was picked from. Emits machine-readable results for
// cross-PR perf tracking.
//
//   $ ./table_scale [--json BENCH_table_scale.json] [--help]
//
// --help prints this usage and exits 0 without running; any other
// argument exits 2 with the usage.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cli_parse.hpp"
#include "p4rt/table.hpp"
#include "util/rng.hpp"

using namespace hydra;
using p4rt::MatchKind;
using p4rt::Table;

namespace {

using Clock = std::chrono::steady_clock;

struct Row {
  std::string shape;
  std::size_t entries = 0;
  double linear_ns = 0;
  double lookup_ns = 0;
  const char* path() const {
    return entries <= Table::kPackedMax ? "packed" : "index";
  }
  double speedup() const {
    return lookup_ns > 0 ? linear_ns / lookup_ns : 0;
  }
};

// Measures average ns per lookup over a pre-generated random key sequence.
// The key order is shuffled so the last-hit cache does not flatter
// lookup(); this measures the steady-state hash/scan cost.
template <typename Key, typename LookupFn>
double measure_ns(const std::vector<Key>& keys, std::uint64_t iters,
                  LookupFn&& fn) {
  std::uint64_t sink = 0;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    const auto* e = fn(keys[i % keys.size()]);
    sink += reinterpret_cast<std::uintptr_t>(e);
  }
  const auto stop = Clock::now();
  // Keep the lookups observable so the loop is not optimized away.
  if (sink == 0x5eed) std::fputc(' ', stderr);
  const double total_ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              stop - start)
                              .count());
  return total_ns / static_cast<double>(iters);
}

// lookup() and the reference on the same keys: words for one, BitVecs for
// the other.
Row measure(const Table& t, const std::vector<std::vector<BitVec>>& keys,
            std::uint64_t fast_iters, std::size_t n) {
  std::vector<std::uint64_t> words;
  for (const auto& k : keys) words.push_back(k[0].value());
  Row r;
  r.entries = t.size();
  const std::uint64_t slow_iters =
      std::max<std::uint64_t>(2000, 40'000'000 / std::max<std::size_t>(n, 1));
  r.lookup_ns = measure_ns(words, fast_iters, [&](const std::uint64_t& w) {
    return t.lookup(std::span<const std::uint64_t>(&w, 1));
  });
  r.linear_ns = measure_ns(keys, slow_iters, [&](const auto& k) {
    return t.lookup_linear_reference(k);
  });
  return r;
}

Row bench_exact(std::size_t n, Rng& rng) {
  Table t("sessions", {{MatchKind::kExact, 32}});
  std::vector<std::uint32_t> installed;
  installed.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Distinct keys: mix a counter so collisions cannot shrink the table.
    const auto k = static_cast<std::uint32_t>((i << 8) ^ rng.below(256));
    installed.push_back(k);
    t.insert_exact({BitVec(32, k)}, {BitVec(32, static_cast<std::uint64_t>(i))});
  }
  std::vector<std::vector<BitVec>> keys;
  for (int i = 0; i < 1024; ++i) {
    // 7/8 present keys, 1/8 misses — both paths matter at line rate.
    if (rng.chance(0.875)) {
      keys.push_back({BitVec(32, rng.pick(installed))});
    } else {
      keys.push_back({BitVec(32, rng.next())});
    }
  }
  Row r = measure(t, keys, 2'000'000, n);
  r.shape = "exact";
  return r;
}

Row bench_lpm(std::size_t n, Rng& rng) {
  Table t("routes", {{MatchKind::kLpm, 32}});
  std::vector<std::uint32_t> bases;
  bases.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int len = static_cast<int>(8 + rng.below(25));  // /8 .. /32
    const auto base = static_cast<std::uint32_t>(rng.next());
    p4rt::TableEntry e;
    e.priority = len;  // longest prefix wins, as the router installs them
    e.patterns.push_back(p4rt::KeyPattern::lpm(BitVec(32, base), len));
    e.action_data.push_back(BitVec(32, static_cast<std::uint64_t>(i)));
    bases.push_back(base);
    t.insert(std::move(e));
  }
  std::vector<std::vector<BitVec>> keys;
  for (int i = 0; i < 1024; ++i) {
    // Addresses near installed prefixes so most lookups hit.
    const std::uint32_t jitter = static_cast<std::uint32_t>(rng.below(256));
    keys.push_back({BitVec(32, (rng.pick(bases) & 0xffffff00u) | jitter)});
  }
  Row r = measure(t, keys, 1'000'000, n);
  r.shape = "lpm";
  return r;
}

void write_json(const std::string& path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"table_scale\",\n  \"unit\": \"ns/op\",\n"
               "  \"packed_max\": %zu,\n  \"rows\": [\n",
               Table::kPackedMax);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"shape\": \"%s\", \"entries\": %zu, "
                 "\"path\": \"%s\", \"linear_ns\": %.2f, "
                 "\"lookup_ns\": %.2f, \"speedup\": %.2f}%s\n",
                 r.shape.c_str(), r.entries, r.path(), r.linear_ns,
                 r.lookup_ns, r.speedup(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_table_scale.json";
  constexpr const char* kArgs = "[--json PATH] [--help]";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      return tools::usage(argv[0], kArgs, 0);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      return tools::unknown_argument(argv[0], argv[i], kArgs);
    }
  }

  Rng rng(2023);
  const std::vector<std::size_t> sizes = {4,   8,    10,    16,    32,
                                         64,  100,  1000,  10000, 100000};
  std::vector<Row> rows;

  std::printf("table lookup scaling (ns/op, random keys, cache-adverse)\n");
  std::printf("%-8s %10s %8s %10s %12s %10s\n", "shape", "entries", "path",
              "linear", "lookup", "speedup");
  auto print = [](const Row& r) {
    std::printf("%-8s %10zu %8s %10.1f %12.1f %9.1fx\n", r.shape.c_str(),
                r.entries, r.path(), r.linear_ns, r.lookup_ns, r.speedup());
  };
  for (const std::size_t n : sizes) {
    rows.push_back(bench_exact(n, rng));
    print(rows.back());
  }
  for (const std::size_t n : sizes) {
    rows.push_back(bench_lpm(n, rng));
    print(rows.back());
  }

  write_json(json_path, rows);

  // The index must serve large tables: >= 10x over the scan at 10k
  // entries, exact and LPM alike (a kPackedMax set too high fails here).
  // Small rows are not gated; there the paths run within noise.
  for (const Row& r : rows) {
    if (r.entries >= 10000 && r.speedup() < 10.0) {
      std::printf("FAIL: %s @%zu speedup %.1fx < 10x\n", r.shape.c_str(),
                  r.entries, r.speedup());
      return 1;
    }
  }
  return 0;
}
