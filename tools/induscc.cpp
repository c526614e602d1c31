// induscc — the Indus checker compiler, as a command-line tool.
//
//   induscc [options] checker.indus
//
//   -o FILE                 write the generated P4 to FILE (default stdout)
//   --name NAME             checker name (default: file stem)
//   --placement MODE        last-hop | every-hop | auto   (default last-hop)
//   --byte-aligned          byte-align telemetry fields on the wire
//   --baseline PROFILE      fabric-upf | simple-router    (default fabric-upf)
//   --resources             print the stage/PHV resource report
//   --layout                print the telemetry wire layout
//   --dump-ir               print the compiler IR listing
//   --loc                   print Indus vs generated P4 line counts
//   -q                      suppress the P4 output (reports only)
//
// Exit status: 0 on success (and for --help, which prints the usage to
// stdout), 1 on compile errors, 2 on usage errors.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "cli_parse.hpp"
#include "compiler/compile.hpp"
#include "compiler/link_p4.hpp"
#include "compiler/relocate.hpp"

namespace {

constexpr const char* kArgs =
    "[options] checker.indus\n"
    "  -o FILE           write generated P4 to FILE\n"
    "  --name NAME       checker name\n"
    "  --placement MODE  last-hop | every-hop | auto\n"
    "  --dialect D       tna | v1model\n"
    "  --byte-aligned    byte-align telemetry fields\n"
    "  --baseline P      fabric-upf | simple-router\n"
    "  --link SKELETON   link with a forwarding skeleton\n"
    "  --role R          edge | core (with --link)\n"
    "  --resources       print resource report\n"
    "  --layout          print telemetry wire layout\n"
    "  --dump-ir         print compiler IR\n"
    "  --loc             print line counts\n"
    "  -q                suppress P4 output\n"
    "  --help            print this usage";

std::string file_stem(const std::string& path) {
  const auto slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  const auto dot = base.find_last_of('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hydra;

  std::string input;
  std::string output;
  std::string name;
  std::string placement = "last-hop";
  std::string dialect = "tna";
  std::string baseline = "fabric-upf";
  compiler::CompileOptions opts;
  bool want_resources = false;
  bool want_layout = false;
  bool want_ir = false;
  bool want_loc = false;
  bool quiet = false;
  std::string link_skeleton = "fabric-upf";
  std::string link_role = "edge";
  tools::Cli cli(kArgs);
  cli.help("-h")
      .text("-o", &output)
      .text("--name", &name)
      .choice("--placement", &placement, {"last-hop", "every-hop", "auto"})
      .choice("--dialect", &dialect, {"tna", "v1model"})
      .flag("--byte-aligned", &opts.byte_aligned_layout)
      .choice("--baseline", &baseline, {"fabric-upf", "simple-router"})
      .choice("--link", &link_skeleton, {"fabric-upf", "simple-router"})
      .choice("--role", &link_role, {"edge", "core"})
      .flag("--resources", &want_resources)
      .flag("--layout", &want_layout)
      .flag("--dump-ir", &want_ir)
      .flag("--loc", &want_loc)
      .flag("-q", &quiet)
      .positional("checker.indus", &input, /*required=*/true);
  if (const auto rc = cli.parse(argc, argv)) return *rc;
  using compiler::CheckPlacement;
  opts.placement = placement == "every-hop" ? CheckPlacement::kEveryHop
                   : placement == "auto"    ? CheckPlacement::kAuto
                                            : CheckPlacement::kLastHop;
  opts.dialect = dialect == "v1model" ? compiler::P4Dialect::kV1Model
                                      : compiler::P4Dialect::kTna;
  if (baseline == "simple-router") {
    opts.baseline = compiler::simple_router_profile();
  }
  if (name.empty()) name = file_stem(input);

  std::ifstream in(input);
  if (!in) {
    std::fprintf(stderr, "induscc: cannot open '%s'\n", input.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  compiler::CompiledChecker c;
  try {
    c = compiler::compile_checker(buf.str(), name, opts);
  } catch (const hydra::indus::CompileError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  if (want_loc) {
    std::printf("loc: indus=%d p4=%d (%.1fx)\n", c.indus_loc, c.p4_loc,
                static_cast<double>(c.p4_loc) /
                    static_cast<double>(c.indus_loc));
  }
  if (want_resources) {
    std::printf("resources: stages=%d (init=%d tele=%d check=%d) "
                "phv_bits=%d (+%.2f%%) tables=%d registers=%d\n",
                c.resources.checker_stages, c.resources.init_stages,
                c.resources.tele_stages, c.resources.check_stages,
                c.resources.phv_bits, c.resources.phv_percent,
                c.resources.tables, c.resources.registers);
    std::printf("linked vs %s: stages=%d phv=%.2f%% fits=%s\n",
                c.options.baseline.name.c_str(), c.linked.stages,
                c.linked.phv_percent, c.linked.fits ? "yes" : "NO");
    std::printf("placement: %s (%s)\n",
                c.options.placement == compiler::CheckPlacement::kEveryHop
                    ? "every-hop"
                    : "last-hop",
                c.relocation_reason.c_str());
  }
  if (want_layout) {
    std::printf("telemetry layout (%s, %d bytes on the wire):\n",
                c.layout.byte_aligned ? "byte-aligned" : "packed",
                c.layout.wire_bytes);
    for (const auto& e : c.layout.entries) {
      std::printf("  [%4d +%2d] %s\n", e.offset_bits, e.width,
                  c.ir.field(e.field).name.c_str());
    }
  }
  if (want_ir) {
    std::fputs(c.ir.dump().c_str(), stdout);
  }
  std::string code = c.p4_code;
  if (cli.given("--link")) {
    const auto skel = link_skeleton == "simple-router"
                          ? compiler::ForwardingSkeleton::simple_router()
                          : compiler::ForwardingSkeleton::fabric_upf();
    const auto role = link_role == "core" ? compiler::SwitchRole::kCore
                                          : compiler::SwitchRole::kEdge;
    code = link_p4(c, skel, role).p4_code;
  }
  if (!quiet) {
    if (output.empty()) {
      std::fputs(code.c_str(), stdout);
    } else {
      std::ofstream out(output);
      if (!out) {
        std::fprintf(stderr, "induscc: cannot write '%s'\n", output.c_str());
        return 2;
      }
      out << code;
    }
  }
  return 0;
}
