// Table scaling microbench: ns per insert while building the table, and
// ns/op for the reference linear scan vs. Table::lookup on key words, at
// 4 .. 100k entries, for the two table shapes the data plane leans on
// (exact-match session tables, LPM route tables). Every row is the median
// of 5 reps, each on a freshly built table, with the min and max beside
// it. Emits machine-readable results for cross-PR perf tracking.
//
//   $ ./table_scale [--json BENCH_table_scale.json] [--help]
//
// --help prints this usage and exits 0 without running; any other
// argument exits 2 with the usage. Exits 1 when the index is not >= 10x
// the linear scan (median) at 10k entries or more.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cli_parse.hpp"
#include "p4rt/table.hpp"
#include "util/rng.hpp"

using namespace hydra;
using p4rt::MatchKind;
using p4rt::Table;

namespace {

using Clock = std::chrono::steady_clock;
constexpr int kReps = 5;

double ns_since(Clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

// Min, median and max of one column over the reps.
struct Stat {
  double min = 0, median = 0, max = 0;
  static Stat of(std::array<double, kReps> v) {
    std::sort(v.begin(), v.end());
    return {v.front(), v[kReps / 2], v.back()};
  }
};

struct Row {
  std::string shape;
  std::size_t entries = 0;
  Stat insert_ns, linear_ns, lookup_ns;
  double speedup() const {
    return lookup_ns.median > 0 ? linear_ns.median / lookup_ns.median : 0;
  }
};

// Average ns per lookup over a pre-generated random key sequence. The key
// order is shuffled so the last-hit cache does not flatter lookup(); this
// measures the steady-state probe/scan cost.
template <typename Key, typename LookupFn>
double measure_ns(const std::vector<Key>& keys, std::uint64_t iters,
                  LookupFn&& fn) {
  std::int64_t sink = 0;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) sink += fn(keys[i % keys.size()]);
  const double total_ns = ns_since(start);
  // Keep the lookups observable so the loop is not optimized away.
  if (sink == 0x5eed) std::fputc(' ', stderr);
  return total_ns / static_cast<double>(iters);
}

// One shape at one size: `build(t)` fills a fresh table, `keys` probe it.
// Small sizes time ~100k inserts over many fresh tables (constructed before
// the clock starts), so insert_ns is not one clock read's worth of noise.
template <typename BuildFn>
Row measure(const char* shape, std::size_t n, const Table& proto,
            BuildFn&& build, const std::vector<std::uint64_t>& keys,
            std::uint64_t fast_iters) {
  std::vector<std::vector<BitVec>> bitvec_keys;
  for (const std::uint64_t k : keys) bitvec_keys.push_back({BitVec(32, k)});
  const std::uint64_t slow_iters =
      std::max<std::uint64_t>(2000, 40'000'000 / std::max<std::size_t>(n, 1));
  const std::size_t builds = std::max<std::size_t>(1, 100'000 / n);
  std::array<double, kReps> insert_ns{}, lookup_ns{}, linear_ns{};
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<Table> tables(builds, proto);
    const auto start = Clock::now();
    for (Table& t : tables) build(t);
    insert_ns[rep] = ns_since(start) / static_cast<double>(builds * n);
    const Table& t = tables.back();
    lookup_ns[rep] = measure_ns(keys, fast_iters, [&](const std::uint64_t& w) {
      return t.lookup(std::span<const std::uint64_t>(&w, 1));
    });
    linear_ns[rep] = measure_ns(bitvec_keys, slow_iters, [&](const auto& k) {
      return t.lookup_linear_reference(k);
    });
  }
  return {shape, n, Stat::of(insert_ns), Stat::of(linear_ns),
          Stat::of(lookup_ns)};
}

Row bench_exact(std::size_t n, Rng& rng) {
  std::vector<std::uint64_t> installed;
  for (std::size_t i = 0; i < n; ++i) {
    // Distinct keys: mix a counter so collisions cannot shrink the table.
    installed.push_back(static_cast<std::uint32_t>((i << 8) ^ rng.below(256)));
  }
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 1024; ++i) {
    // 7/8 present keys, 1/8 misses — both paths matter at line rate.
    keys.push_back(rng.chance(0.875) ? rng.pick(installed)
                                     : static_cast<std::uint32_t>(rng.next()));
  }
  const auto build = [&](Table& t) {
    for (std::size_t i = 0; i < n; ++i) {
      const BitVec data(32, i);
      t.insert_exact(std::span<const std::uint64_t>(&installed[i], 1),
                     {&data, 1});
    }
  };
  return measure("exact", n, Table("sessions", {{MatchKind::kExact, 32}}),
                 build, keys, 2'000'000);
}

Row bench_lpm(std::size_t n, Rng& rng) {
  std::vector<p4rt::KeyPattern> routes;
  std::vector<int> lens;
  for (std::size_t i = 0; i < n; ++i) {
    const int len = static_cast<int>(8 + rng.below(25));  // /8 .. /32
    routes.push_back(p4rt::KeyPattern::lpm(BitVec(32, rng.next()), len));
    lens.push_back(len);
  }
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 1024; ++i) {
    // Addresses near installed prefixes so most lookups hit.
    const auto jitter = static_cast<std::uint32_t>(rng.below(256));
    keys.push_back((rng.pick(routes).value.value() & 0xffffff00u) | jitter);
  }
  const auto build = [&](Table& t) {
    for (std::size_t i = 0; i < n; ++i) {
      const BitVec data(32, i);
      // Longest prefix wins, as the router installs them.
      t.insert({&routes[i], 1}, {&data, 1}, "set_group", lens[i]);
    }
  };
  return measure("lpm", n, Table("routes", {{MatchKind::kLpm, 32}}), build,
                 keys, 1'000'000);
}

void put_stat(std::FILE* f, const char* name, const Stat& s) {
  std::fprintf(f,
               "\"%s\": %.2f, \"%s_min\": %.2f, \"%s_max\": %.2f, ", name,
               s.median, name, s.min, name, s.max);
}

void write_json(const std::string& path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"table_scale\",\n  \"unit\": \"ns/op\",\n"
               "  \"hw_threads\": %u,\n  \"reps\": %d,\n  \"rows\": [\n",
               std::thread::hardware_concurrency(), kReps);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f, "    {\"shape\": \"%s\", \"entries\": %zu, ",
                 r.shape.c_str(), r.entries);
    put_stat(f, "insert_ns", r.insert_ns);
    put_stat(f, "linear_ns", r.linear_ns);
    put_stat(f, "lookup_ns", r.lookup_ns);
    std::fprintf(f, "\"speedup\": %.2f}%s\n", r.speedup(),
                 i + 1 < rows.size() ? "," : "");
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

  std::printf(
      "table scaling (ns/op, random keys, cache-adverse; median [min, max] "
      "of %d reps)\n",
      kReps);
  std::printf("%-6s %8s %22s %26s %22s %9s\n", "shape", "entries", "insert",
              "linear", "lookup", "speedup");
  auto print = [](const Row& r) {
    std::printf(
        "%-6s %8zu %7.1f [%5.1f, %5.1f] %9.1f [%6.1f, %6.1f] %7.1f [%5.1f, "
        "%5.1f] %8.1fx\n",
        r.shape.c_str(), r.entries, r.insert_ns.median, r.insert_ns.min,
        r.insert_ns.max, r.linear_ns.median, r.linear_ns.min,
        r.linear_ns.max, r.lookup_ns.median, r.lookup_ns.min,
        r.lookup_ns.max, r.speedup());
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
  // entries, exact and LPM alike, judged on the medians. Small rows are
  // not gated.
  for (const Row& r : rows) {
    if (r.entries >= 10000 && r.speedup() < 10.0) {
      std::printf("FAIL: %s @%zu speedup %.1fx < 10x\n", r.shape.c_str(),
                  r.entries, r.speedup());
      return 1;
    }
  }
  return 0;
}
