// indus_export — writes every library checker to <dir>/<name>.indus so the
// shipped properties can be edited and recompiled with induscc.
//
//   indus_export [dir]        (default: current directory)
//   indus_export --help       usage on stdout; writes nothing
//
// Any other flag, or a second argument, exits 2.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "checkers/library.hpp"
#include "cli_parse.hpp"

int main(int argc, char** argv) {
  constexpr const char* kArgs = "[dir] [--help]";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      return hydra::tools::usage(argv[0], kArgs, 0);
    }
    if (i > 1 || argv[i][0] == '-') {
      return hydra::tools::unknown_argument(argv[0], argv[i], kArgs);
    }
  }
  const std::string dir = argc > 1 ? argv[1] : ".";
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
