// Microbenchmarks of the Indus compiler itself (the C++ analogue of the
// paper's ~2500-line OCaml compiler): lexing+parsing, type checking, and
// full compilation for every library checker.
//
//   $ ./compiler_speed [--benchmark_FLAG=VALUE ...] [--help]
//
// --help prints usage and exits 0 without running; `--benchmark_*` flags
// go to google-benchmark; any other argument exits 2 with the usage.
#include <benchmark/benchmark.h>

#include "cli_parse.hpp"

#include "checkers/library.hpp"
#include "compiler/compile.hpp"
#include "indus/parser.hpp"
#include "indus/typecheck.hpp"

namespace {

const hydra::checkers::CheckerSpec& spec(int i) {
  return hydra::checkers::all_checkers()[static_cast<std::size_t>(i)];
}

void BM_Parse(benchmark::State& state) {
  const auto& s = spec(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    hydra::indus::Diagnostics diags;
    auto p = hydra::indus::parse_indus(s.source, diags);
    benchmark::DoNotOptimize(p);
  }
  state.SetLabel(s.name);
}
BENCHMARK(BM_Parse)->DenseRange(0, 11);

void BM_Typecheck(benchmark::State& state) {
  const auto& s = spec(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    hydra::indus::Diagnostics diags;
    auto p = hydra::indus::parse_indus(s.source, diags);
    auto syms = hydra::indus::typecheck(p, diags);
    benchmark::DoNotOptimize(syms);
  }
  state.SetLabel(s.name);
}
BENCHMARK(BM_Typecheck)->DenseRange(0, 11);

void BM_FullCompile(benchmark::State& state) {
  const auto& s = spec(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto c = hydra::compiler::compile_checker(s.source, s.name);
    benchmark::DoNotOptimize(c);
  }
  state.SetLabel(s.name);
}
BENCHMARK(BM_FullCompile)->DenseRange(0, 11);

}  // namespace

int main(int argc, char** argv) {
  hydra::tools::Cli cli("[--benchmark_FLAG=VALUE ...] [--help]");
  if (const auto rc = cli.pass("--benchmark_").parse(argc, argv)) return *rc;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
