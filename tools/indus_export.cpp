// indus_export — writes every library checker to <dir>/<name>.indus so the
// shipped properties can be edited and recompiled with induscc.
//
//   indus_export [dir]        (default: current directory)
//   indus_export --help       usage on stdout; writes nothing
//
// Any other flag, or a second argument, exits 2.
#include <cstdio>
#include <fstream>
#include <string>

#include "checkers/library.hpp"
#include "cli_parse.hpp"

int main(int argc, char** argv) {
  std::string dir = ".";
  hydra::tools::Cli cli("[dir] [--help]");
  cli.positional("dir", &dir);
  if (const auto rc = cli.parse(argc, argv)) return *rc;
  int written = 0;
  for (const auto& spec : hydra::checkers::all_checkers()) {
    const std::string path = dir + "/" + spec.name + ".indus";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "indus_export: cannot write '%s'\n", path.c_str());
      return 1;
    }
    out << "// " << spec.description << "\n" << spec.source;
    ++written;
  }
  std::printf("wrote %d checkers to %s\n", written, dir.c_str());
  return 0;
}
