// Ablation: telemetry list capacity (DESIGN.md §5.2). Indus arrays fix
// their capacity at compile time; the capacity is the loop-unroll factor
// AND the wire/PHV footprint. This sweep quantifies the trade-off for a
// loop-detection checker with a `visited[N]` list.
//
//   $ ./ablation_list_capacity [--help]
//
// --help prints this usage and exits 0 without running; any other
// argument exits 2 with the usage.
#include <cstdio>
#include <string>

#include "cli_parse.hpp"
#include "compiler/compile.hpp"

namespace {

std::string loops_checker(int capacity) {
  return R"(
header bit<32> switch_id;
tele bit<32>[)" + std::to_string(capacity) + R"(] visited;
tele bool looped = false;

{ }
{
  if (switch_id in visited) {
    looped = true;
  }
  visited.push(switch_id);
}
{
  if (looped) {
    reject;
  }
}
)";
}

}  // namespace

int main(int argc, char** argv) {
  if (const auto rc = hydra::tools::Cli("[--help]").parse(argc, argv)) {
    return *rc;
  }
  using namespace hydra;
  std::printf("Ablation: telemetry list capacity (loops checker, "
              "visited[N])\n\n");
  std::printf("%10s %10s %12s %10s %10s %12s\n", "capacity", "stages",
              "PHV bits", "PHV %", "wire (B)", "P4 LoC");
  for (int n : {2, 4, 8, 16, 32, 64}) {
    const auto c =
        compiler::compile_checker(loops_checker(n), "loops_" +
                                                        std::to_string(n));
    std::printf("%10d %10d %12d %9.2f%% %10d %12d\n", n,
                c.resources.checker_stages, c.resources.phv_bits,
                c.resources.phv_percent, c.layout.wire_bytes, c.p4_loc);
  }
  std::printf("\ncapacity is a hard budget: paths longer than N hops "
              "saturate the stack and\nstop recording, so the operator "
              "sizes N to the fabric diameter (4 suffices\nfor the "
              "paper's leaf-spine; a k=8 fat tree needs 6).\n");
  return 0;
}
