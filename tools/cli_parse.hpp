// Strict argv parsing shared by the CLI tools and benches.
//
// atoi/atol silently turn garbage into 0 and saturate nothing; a typo like
// `--ring 8x` or `--ring 1e9` must instead fail loudly with the flag name
// and the accepted range. Each value helper prints a one-line diagnostic
// to stderr and returns false on bad input; callers follow up with their
// usage text and exit 2.
//
// Benches that parse their flags here share one contract: `--help` prints
// the usage line to stdout and exits 0 without running or writing
// anything; any unknown argument prints it to stderr and exits 2.
#pragma once

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace hydra::tools {

// Prints "usage: PROG ARGS" — to stdout for code 0 (`--help`), to stderr
// otherwise — and returns `code` for main to exit with.
inline int usage(const char* prog, const char* args, int code) {
  std::fprintf(code == 0 ? stdout : stderr, "usage: %s %s\n", prog, args);
  return code;
}

// The unknown-argument exit: names `arg`, prints the usage, returns 2.
inline int unknown_argument(const char* prog, const char* arg,
                            const char* args) {
  std::fprintf(stderr, "%s: unknown argument '%s'\n", prog, arg);
  return usage(prog, args, 2);
}

// The whole argv contract of a bench that takes no options: returns the
// exit code when there is an argument (`--help`: usage, 0; anything else:
// 2), or -1 when there is none and the bench should run.
inline int no_options(int argc, char** argv) {
  if (argc < 2) return -1;
  constexpr const char* kArgs = "[--help]";
  if (std::strcmp(argv[1], "--help") == 0) return usage(argv[0], kArgs, 0);
  return unknown_argument(argv[0], argv[1], kArgs);
}

// The argv contract of a google-benchmark bench: `--help` prints usage to
// stdout and returns 0, a `--benchmark_*` flag is left for the library, and
// anything else prints usage to stderr and returns 2. Returns -1 when the
// bench should run.
inline int benchmark_flags(int argc, char** argv) {
  constexpr const char* kArgs = "[--benchmark_FLAG=VALUE ...] [--help]";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) return usage(argv[0], kArgs, 0);
    if (std::strncmp(argv[i], "--benchmark_", 12) != 0) {
      return unknown_argument(argv[0], argv[i], kArgs);
    }
  }
  return -1;
}

// Base-10 integer in [lo, hi]; rejects empty input, trailing characters,
// and out-of-range values.
inline bool parse_long_arg(const char* prog, const char* flag,
                           const char* text, long lo, long hi, long* out) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
    std::fprintf(
        stderr, "%s: bad value '%s' for %s: expected an integer in [%ld, %ld]\n",
        prog, text, flag, lo, hi);
    return false;
  }
  *out = v;
  return true;
}

// Base-10 unsigned 64-bit integer (full range); rejects signs, empty
// input, trailing characters, and overflow.
inline bool parse_u64_arg(const char* prog, const char* flag,
                          const char* text, std::uint64_t* out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v =
      text[0] == '-' || text[0] == '+' ? (errno = ERANGE, 0ULL)
                                       : std::strtoull(text, &end, 10);
  if (end == text || end == nullptr || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr,
                 "%s: bad value '%s' for %s: expected an unsigned integer\n",
                 prog, text, flag);
    return false;
  }
  *out = v;
  return true;
}

// Strictly-positive double (scientific notation fine: `--interval 5e-6`).
inline bool parse_positive_double_arg(const char* prog, const char* flag,
                                      const char* text, double* out) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !(v > 0.0)) {
    std::fprintf(stderr,
                 "%s: bad value '%s' for %s: expected a number > 0\n", prog,
                 text, flag);
    return false;
  }
  *out = v;
  return true;
}

// Writes `content` to `path`; false (with a diagnostic) on any I/O
// failure. A new or regular file is replaced atomically: the content lands
// in `<file>.tmp` first, is flushed and fsync'd, and only then renamed over
// the file — a crash or full disk mid-write can never leave a truncated
// file behind (a partial snapshot would otherwise brick the next hydrad
// start). A symlink to a regular file keeps the link and replaces its
// target that way. Any other existing path (a FIFO, a device such as
// /dev/null, a dangling symlink) is written in place, without the fsync a
// FIFO would refuse.
inline bool write_text_file(const std::string& path,
                            const std::string& content) {
  struct stat st {};
  const bool exists = ::lstat(path.c_str(), &st) == 0;
  const bool link = exists && S_ISLNK(st.st_mode);
  const bool atomic =
      !exists || (::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode));
  std::string dest = path;
  if (atomic && link) {
    char* real = ::realpath(path.c_str(), nullptr);
    if (real == nullptr) {
      std::fprintf(stderr, "cannot resolve %s\n", path.c_str());
      return false;
    }
    dest = real;
    std::free(real);
  }
  const std::string out = atomic ? dest + ".tmp" : dest;
  std::FILE* f = std::fopen(out.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return false;
  }
  bool ok = std::fwrite(content.data(), 1, content.size(), f) ==
            content.size();
  ok = ok && std::fflush(f) == 0;
  ok = ok && (!atomic || ::fsync(fileno(f)) == 0);
  if (std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::fprintf(stderr, "short write to %s\n", out.c_str());
    if (atomic) std::remove(out.c_str());
    return false;
  }
  if (atomic && std::rename(out.c_str(), dest.c_str()) != 0) {
    std::fprintf(stderr, "cannot rename %s to %s\n", out.c_str(),
                 dest.c_str());
    std::remove(out.c_str());
    return false;
  }
  return true;
}

}  // namespace hydra::tools
