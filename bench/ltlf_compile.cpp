// Benchmarks for the Theorem 3.1 pipeline: LTLf -> Indus translation and
// compilation cost as formula depth and trace capacity grow (the unrolled
// loops blow up combinatorially — this quantifies the §3.3 construction).
//
//   $ ./ltlf_compile [--benchmark_FLAG=VALUE ...] [--help]
//
// --help prints usage and exits 0 without running; `--benchmark_*` flags
// go to google-benchmark; any other argument exits 2 with the usage.
#include <benchmark/benchmark.h>

#include "cli_parse.hpp"

#include "ltlf/random_formula.hpp"
#include "ltlf/to_indus.hpp"
#include "util/rng.hpp"

namespace {

void BM_TranslateAndCompile_Depth(benchmark::State& state) {
  hydra::Rng rng(7);
  const auto f = hydra::ltlf::random_formula(
      rng, 2, static_cast<int>(state.range(0)));
  int p4_loc = 0;
  for (auto _ : state) {
    const auto t = hydra::ltlf::to_indus(*f, 6);
    const auto c = hydra::compiler::compile_checker(t.indus_source, "bm");
    p4_loc = c.p4_loc;
    benchmark::DoNotOptimize(c);
  }
  state.counters["p4_loc"] = p4_loc;
  state.SetLabel(f->to_string());
}
BENCHMARK(BM_TranslateAndCompile_Depth)->DenseRange(1, 4);

void BM_TranslateAndCompile_TraceCapacity(benchmark::State& state) {
  using F = hydra::ltlf::Formula;
  // (a0 U a1): one quantifier loop; cost scales with the unroll capacity.
  const auto f = F::make_until(F::make_atom(0), F::make_atom(1));
  int p4_loc = 0;
  for (auto _ : state) {
    const auto t =
        hydra::ltlf::to_indus(*f, static_cast<int>(state.range(0)));
    const auto c = hydra::compiler::compile_checker(t.indus_source, "bm");
    p4_loc = c.p4_loc;
    benchmark::DoNotOptimize(c);
  }
  state.counters["p4_loc"] = p4_loc;
}
BENCHMARK(BM_TranslateAndCompile_TraceCapacity)->DenseRange(2, 12, 2);

void BM_CheckTrace(benchmark::State& state) {
  using F = hydra::ltlf::Formula;
  const auto f = F::make_globally(F::make_not(F::make_and(
      F::make_atom(0),
      F::make_next(F::make_eventually(F::make_atom(0))))));
  const auto t = hydra::ltlf::to_indus(*f, 8);
  const auto c = hydra::compiler::compile_checker(t.indus_source, "bm");
  hydra::Rng rng(9);
  const auto trace = hydra::ltlf::random_trace(rng, 1, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hydra::ltlf::run_translation(c, trace));
  }
}
BENCHMARK(BM_CheckTrace);

}  // namespace

int main(int argc, char** argv) {
  if (const int rc = hydra::tools::benchmark_flags(argc, argv); rc >= 0) {
    return rc;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
