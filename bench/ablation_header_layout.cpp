// Ablation: packed vs byte-aligned telemetry header layout (DESIGN.md §5).
// Packed minimizes wire bytes; byte-aligned trades wire bytes for cheaper
// PHV slicing on hardware. Prints the per-checker comparison.
//
//   $ ./ablation_header_layout [--help]
//
// --help prints this usage and exits 0 without running; any other
// argument exits 2 with the usage.
#include <cstdio>

#include "cli_parse.hpp"
#include "checkers/library.hpp"
#include "compiler/compile.hpp"

int main(int argc, char** argv) {
  if (const auto rc = hydra::tools::Cli("[--help]").parse(argc, argv)) {
    return *rc;
  }
  using namespace hydra;
  std::printf("Ablation: telemetry header layout (wire bytes per packet)\n\n");
  std::printf("%-32s %14s %14s %10s\n", "checker", "packed (B)",
              "aligned (B)", "overhead");
  double worst = 0.0;
  for (const auto& spec : checkers::table1_checkers()) {
    compiler::CompileOptions packed;
    packed.byte_aligned_layout = false;
    compiler::CompileOptions aligned;
    aligned.byte_aligned_layout = true;
    const auto cp = compiler::compile_checker(spec.source, spec.name, packed);
    const auto ca = compiler::compile_checker(spec.source, spec.name, aligned);
    const double overhead =
        100.0 * (ca.layout.wire_bytes - cp.layout.wire_bytes) /
        static_cast<double>(cp.layout.wire_bytes);
    worst = std::max(worst, overhead);
    std::printf("%-32s %14d %14d %9.1f%%\n", spec.name.c_str(),
                cp.layout.wire_bytes, ca.layout.wire_bytes, overhead);
  }
  std::printf("\nworst-case wire overhead of byte alignment: %.1f%%\n",
              worst);
  return 0;
}
