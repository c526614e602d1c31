// Regenerates Table 1: for every property, the Indus LoC, the generated P4
// LoC, and the Tofino-model resource estimate (pipeline stages and PHV%)
// when linked against the Aether fabric-upf baseline.
//
//   $ ./table1_properties [--json BENCH_table1.json] [--help]
//
// --help prints this usage and exits 0 without running; any other
// argument exits 2 with the usage.
#include <cstdio>
#include <string>
#include <vector>

#include "checkers/library.hpp"
#include "cli_parse.hpp"
#include "compiler/compile.hpp"

int main(int argc, char** argv) {
  using namespace hydra;
  std::string json_path;
  tools::Cli cli("[--json PATH] [--help]");
  cli.text("--json", &json_path);
  if (const auto rc = cli.parse(argc, argv)) return *rc;
  const auto baseline = compiler::fabric_upf_profile();

  std::printf("Table 1: Hydra properties (baseline: Aether %s profile)\n\n",
              baseline.name.c_str());
  std::printf("%-32s %12s %12s %8s %9s\n", "Property", "Indus LoC",
              "P4 Out LoC", "Stages", "PHV (%)");
  std::printf("%-32s %12s %12s %8d %9.2f\n", "Baseline", "-", "-",
              baseline.stages, baseline.phv_percent);

  struct Row {
    std::string name;
    int indus_loc;
    int p4_loc;
    int stages;
    double phv;
    bool fits;
  };
  std::vector<Row> rows;
  bool all_fit = true;
  for (const auto& spec : checkers::table1_checkers()) {
    const auto c = compiler::compile_checker(spec.source, spec.name);
    std::printf("%-32s %12d %12d %8d %9.2f\n", spec.name.c_str(),
                c.indus_loc, c.p4_loc, c.linked.stages,
                c.linked.phv_percent);
    rows.push_back({spec.name, c.indus_loc, c.p4_loc, c.linked.stages,
                    c.linked.phv_percent, c.linked.fits});
    all_fit = all_fit && c.linked.fits;
  }

  std::printf("\nShape checks vs. the paper:\n");
  std::printf("  * every checker links without adding pipeline stages "
              "(parallel placement): %s\n",
              all_fit ? "yes" : "NO");
  double min_ratio = 1e9;
  for (const auto& r : rows) {
    min_ratio = std::min(
        min_ratio,
        static_cast<double>(r.p4_loc) / static_cast<double>(r.indus_loc));
  }
  std::printf("  * Indus is consistently more concise than generated P4 "
              "(min expansion %.1fx)\n", min_ratio);

  if (!json_path.empty()) {
    std::string out;
    tools::appendf(out,
                   "{\n  \"bench\": \"table1_properties\",\n"
                   "  \"baseline\": {\"name\": \"%s\", \"stages\": %d, "
                   "\"phv_percent\": %.2f},\n  \"checkers\": [\n",
                   baseline.name.c_str(), baseline.stages,
                   baseline.phv_percent);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      tools::appendf(out,
                     "    {\"name\": \"%s\", \"indus_loc\": %d, \"p4_loc\": "
                     "%d, \"stages\": %d, \"phv_percent\": %.2f, \"fits\": "
                     "%s}%s\n",
                     r.name.c_str(), r.indus_loc, r.p4_loc, r.stages, r.phv,
                     r.fits ? "true" : "false",
                     i + 1 < rows.size() ? "," : "");
    }
    tools::appendf(out,
                   "  ],\n  \"all_fit\": %s,\n  \"min_expansion\": %.2f\n}\n",
                   all_fit ? "true" : "false", min_ratio);
    if (!tools::write_text_file(json_path, out)) return 1;
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return all_fit ? 0 : 1;
}
