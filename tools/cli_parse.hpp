// One flag table for every CLI tool and bench.
//
// A program declares each flag once — its name, the variable it sets and
// its kind — and one `parse(argc, argv)` call says whether it runs:
//
//   tools::Cli cli("[--ring N] [--out FILE] [--help]");
//   cli.integer("--ring", &ring, 1, 1 << 20).text("--out", &out_path);
//   if (const auto rc = cli.parse(argc, argv)) return *rc;
//
// The table keeps the contract every tool and bench shares. `--help`
// prints "usage: PROG ARGS" to stdout and exits 0 before anything runs or
// is written. An unknown argument, a value flag with no value, a malformed
// or out-of-range number (atoi would turn `--ring 8x` into 8 and
// `--ring 1e9` into 1), an unknown choice or an extra positional prints
// one stderr line naming the flag, then the usage, and exits 2. Arguments
// are read in order; a value flag takes the next argument, whatever it is.
#pragma once

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace hydra::tools {

class Cli {
 public:
  // `args` is the usage text after the program name.
  explicit Cli(const char* args) : args_(args) { help("--help"); }

  // Another name for --help.
  Cli& help(const char* name) { return add(name, Kind::kHelp, "", nullptr); }

  // Presence: sets *on.
  Cli& flag(const char* name, bool* on) {
    return add(name, Kind::kFlag, "", [on](const char*) { return *on = true; });
  }

  // Any text, verbatim.
  Cli& text(const char* name, std::string* out) {
    return add(name, Kind::kValue, "", store(out));
  }

  // A base-10 integer in [lo, hi].
  template <class T>
  Cli& integer(const char* name, T* out, long lo, long hi) {
    return add(name, Kind::kValue,
               "an integer in [" + std::to_string(lo) + ", " +
                   std::to_string(hi) + "]",
               [=](const char* v) {
                 errno = 0;
                 char* end = nullptr;
                 const long n = std::strtol(v, &end, 10);
                 if (end == v || *end != '\0' || errno == ERANGE || n < lo ||
                     n > hi) {
                   return false;
                 }
                 *out = static_cast<T>(n);
                 return true;
               });
  }

  // A base-10 unsigned 64-bit integer (full range, no sign).
  Cli& u64(const char* name, std::uint64_t* out) {
    return add(name, Kind::kValue, "an unsigned integer", [out](const char* v) {
      if (std::isdigit(static_cast<unsigned char>(v[0])) == 0) return false;
      errno = 0;
      char* end = nullptr;
      const unsigned long long n = std::strtoull(v, &end, 10);
      if (*end != '\0' || errno == ERANGE) return false;
      *out = n;
      return true;
    });
  }

  // A number > 0, or >= 0 when `zero_ok`; scientific notation is fine
  // (`--interval 5e-6`).
  Cli& number(const char* name, double* out, bool zero_ok = false) {
    return add(name, Kind::kValue, zero_ok ? "a number >= 0" : "a number > 0",
               [out, zero_ok](const char* v) {
                 errno = 0;
                 char* end = nullptr;
                 const double x = std::strtod(v, &end);
                 if (end == v || *end != '\0' || errno == ERANGE ||
                     !(zero_ok ? x >= 0.0 : x > 0.0)) {
                   return false;
                 }
                 *out = x;
                 return true;
               });
  }

  // One of `names`, stored as given.
  Cli& choice(const char* name, std::string* out,
              std::initializer_list<const char*> names) {
    const std::vector<std::string> ok(names.begin(), names.end());
    std::string expected;
    for (const std::string& n : ok) {
      expected += (expected.empty() ? "one of " : "|") + n;
    }
    return add(name, Kind::kValue, expected, [out, ok](const char* v) {
      const bool known = std::find(ok.begin(), ok.end(), v) != ok.end();
      return known && store(out)(v);
    });
  }

  // The one bare argument (a non-empty one not starting with '-'); `name`
  // is its metavar in the usage. A second bare argument is refused, and
  // so is an empty one (`indus_export ""` would write into /).
  Cli& positional(const char* name, std::string* out, bool required = false) {
    add(name, Kind::kPositional, "", store(out));
    entries_.back().required = required;
    return *this;
  }

  // Arguments starting with `prefix` are left in argv for a library to
  // read (google-benchmark's `--benchmark_*`).
  Cli& pass(const char* prefix) {
    return add(prefix, Kind::kPass, "", nullptr);
  }

  // nullopt when the program should run, otherwise its exit code.
  std::optional<int> parse(int argc, char** argv) {
    prog_ = argc > 0 ? argv[0] : "";  // execve may pass an empty argv
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      Entry* e = find(arg);
      if (e == nullptr) return refuse("unknown argument '" + arg + "'");
      if (e->kind == Kind::kHelp) {
        std::printf("usage: %s %s\n", prog_.c_str(), args_.c_str());
        return 0;
      }
      if (e->kind == Kind::kPass) continue;
      const char* value = argv[i];
      if (e->kind == Kind::kValue) {
        if (i + 1 == argc) return refuse(arg + " needs a value");
        value = argv[++i];
      }
      if (!e->set(value)) {
        return refuse("bad value '" + std::string(value) + "' for " + arg +
                      ": expected " + e->expected);
      }
      e->seen = true;
    }
    for (const Entry& e : entries_) {
      if (e.required && !e.seen) return refuse("missing " + e.name);
    }
    return std::nullopt;
  }

  // Whether the flag appeared on the command line.
  bool given(const char* name) const {
    for (const Entry& e : entries_) {
      if (e.name == name) return e.seen;
    }
    return false;
  }

  // A refusal the table cannot see (a rule across flags): prints
  // "PROG: message" and the usage to stderr; returns 2 for main to exit
  // with.
  int refuse(const std::string& message) const {
    std::fprintf(stderr, "%s: %s\nusage: %s %s\n", prog_.c_str(),
                 message.c_str(), prog_.c_str(), args_.c_str());
    return 2;
  }

 private:
  enum class Kind { kHelp, kFlag, kValue, kPositional, kPass };
  struct Entry {
    std::string name;
    Kind kind;
    std::string expected;  // what a bad value should have been
    std::function<bool(const char*)> set;
    bool required = false;
    bool seen = false;
  };

  Cli& add(const char* name, Kind kind, std::string expected,
           std::function<bool(const char*)> set) {
    entries_.push_back({name, kind, std::move(expected), std::move(set)});
    return *this;
  }

  static std::function<bool(const char*)> store(std::string* out) {
    return [out](const char* v) {
      *out = v;
      return true;
    };
  }

  // The entry `arg` names; else the pass-through prefix it starts with;
  // else the positional, if it is bare and the positional still free.
  Entry* find(const std::string& arg) {
    Entry* other = nullptr;
    for (Entry& e : entries_) {
      switch (e.kind) {
        case Kind::kPass:
          if (arg.rfind(e.name, 0) == 0) other = &e;
          break;
        case Kind::kPositional:
          if (!e.seen && !arg.empty() && arg[0] != '-' && other == nullptr) {
            other = &e;
          }
          break;
        default:
          if (e.name == arg) return &e;
      }
    }
    return other;
  }

  std::string args_;
  std::string prog_;
  std::vector<Entry> entries_;
};

// printf onto the end of `out`: the benches build their JSON documents
// with it and hand them to write_text_file.
[[gnu::format(printf, 2, 3)]] inline void appendf(std::string& out,
                                                  const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list again;
  va_copy(again, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  const std::size_t at = out.size();
  out.resize(at + static_cast<std::size_t>(n) + 1);
  std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt,
                 again);
  va_end(again);
  out.resize(at + static_cast<std::size_t>(n));
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
