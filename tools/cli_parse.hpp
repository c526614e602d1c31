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

// Writes `content` to `path` atomically; false (with a diagnostic) on any
// I/O failure. The content lands in `<path>.tmp` first, is flushed and
// fsync'd, and only then renamed over `path` — a crash or full disk
// mid-write can never leave a truncated file at `path` (a partial
// snapshot would otherwise brick the next hydrad start).
inline bool write_text_file(const std::string& path,
                            const std::string& content) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", tmp.c_str());
    return false;
  }
  bool ok = std::fwrite(content.data(), 1, content.size(), f) ==
            content.size();
  ok = ok && std::fflush(f) == 0;
  ok = ok && ::fsync(fileno(f)) == 0;
  if (std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::fprintf(stderr, "short write to %s\n", tmp.c_str());
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "cannot rename %s to %s\n", tmp.c_str(),
                 path.c_str());
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace hydra::tools
