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
#include <cstring>
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
  compiler::CompileOptions opts;
  bool want_resources = false;
  bool want_layout = false;
  bool want_ir = false;
  bool want_loc = false;
  bool quiet = false;
  bool link = false;
  std::string link_skeleton = "fabric-upf";
  std::string link_role = "edge";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "induscc: %s expects an argument\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "-o") {
      output = next("-o");
    } else if (arg == "--name") {
      name = next("--name");
    } else if (arg == "--placement") {
      const std::string mode = next("--placement");
      if (mode == "last-hop") {
        opts.placement = compiler::CheckPlacement::kLastHop;
      } else if (mode == "every-hop") {
        opts.placement = compiler::CheckPlacement::kEveryHop;
      } else if (mode == "auto") {
        opts.placement = compiler::CheckPlacement::kAuto;
      } else {
        std::fprintf(stderr, "induscc: unknown placement '%s'\n",
                     mode.c_str());
        return 2;
      }
    } else if (arg == "--dialect") {
      const std::string d = next("--dialect");
      if (d == "tna") {
        opts.dialect = compiler::P4Dialect::kTna;
      } else if (d == "v1model") {
        opts.dialect = compiler::P4Dialect::kV1Model;
      } else {
        std::fprintf(stderr, "induscc: unknown dialect '%s'\n", d.c_str());
        return 2;
      }
    } else if (arg == "--byte-aligned") {
      opts.byte_aligned_layout = true;
    } else if (arg == "--baseline") {
      const std::string p = next("--baseline");
      if (p == "fabric-upf") {
        opts.baseline = compiler::fabric_upf_profile();
      } else if (p == "simple-router") {
        opts.baseline = compiler::simple_router_profile();
      } else {
        std::fprintf(stderr, "induscc: unknown baseline '%s'\n", p.c_str());
        return 2;
      }
    } else if (arg == "--link") {
      link = true;
      link_skeleton = next("--link");  // fabric-upf | simple-router
    } else if (arg == "--role") {
      link_role = next("--role");  // edge | core
    } else if (arg == "--resources") {
      want_resources = true;
    } else if (arg == "--layout") {
      want_layout = true;
    } else if (arg == "--dump-ir") {
      want_ir = true;
    } else if (arg == "--loc") {
      want_loc = true;
    } else if (arg == "-q") {
      quiet = true;
    } else if (arg == "-h" || arg == "--help") {
      return hydra::tools::usage(argv[0], kArgs, 0);
    } else if ((!arg.empty() && arg[0] == '-') || !input.empty()) {
      return hydra::tools::unknown_argument(argv[0], argv[i], kArgs);
    } else {
      input = arg;
    }
  }
  if (input.empty()) return hydra::tools::usage(argv[0], kArgs, 2);
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
  if (link) {
    compiler::ForwardingSkeleton skel;
    if (link_skeleton == "fabric-upf") {
      skel = compiler::ForwardingSkeleton::fabric_upf();
    } else if (link_skeleton == "simple-router") {
      skel = compiler::ForwardingSkeleton::simple_router();
    } else {
      std::fprintf(stderr, "induscc: unknown skeleton '%s'\n",
                   link_skeleton.c_str());
      return 2;
    }
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
