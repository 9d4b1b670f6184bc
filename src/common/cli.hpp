#pragma once

// carpool::cli — the command-line parser shared by every binary in
// tools/, bench/ and examples/.
//
// The contract, the same for all of them:
//   - `-h` / `--help` prints the usage line on stdout and exits 0;
//   - an unknown flag, a flag missing its value, a malformed value, a
//     stray or missing positional argument, and a failed check made after
//     parsing (Parser::usage_error) print the reason and the usage line
//     on stderr and exit 2;
//   - values are parsed strictly: the whole text must be the number, with
//     no sign, whitespace, suffix or overflow ("12x", "-3", "", "1e400").
//
// threads_flag() and kernel_flag() call into carpool_par and carpool_dsp;
// a binary that uses them links those libraries.

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "dsp/kernels.hpp"
#include "par/par.hpp"

namespace carpool::cli {

/// Strict unsigned integer: one or more decimal digits and nothing else,
/// at most `max`.
[[nodiscard]] inline std::optional<std::uint64_t> parse_uint(
    const char* text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  if (text == nullptr || *text < '0' || *text > '9') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE || v > max) return std::nullopt;
  return v;
}

/// Strict non-negative number: the whole text is a finite decimal
/// number >= 0.
[[nodiscard]] inline std::optional<double> parse_non_negative(
    const char* text) {
  if (text == nullptr || (*text != '.' && (*text < '0' || *text > '9'))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (*end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

/// One command-line argument. `name` is the flag ("--threads"), or a
/// usage placeholder without a leading '-' ("OUT") for a positional
/// argument; positionals are filled in list order. `value` names a flag's
/// argument in the usage line; nullptr marks a bare switch. `apply` gets
/// the argument (nullptr for a switch) and returns false when it is
/// malformed. A `required` positional that is absent is a usage error.
struct Flag {
  const char* name;
  const char* value;
  std::function<bool(const char*)> apply;
  bool required = false;
};

class Parser {
 public:
  /// Arguments starting with `passthrough` (bench_micro's "--benchmark_")
  /// are left for a downstream parser.
  explicit Parser(std::vector<Flag> flags, const char* passthrough = nullptr)
      : flags_(std::move(flags)), passthrough_(passthrough) {}

  /// Parse argv, applying each flag as it is met. Passthrough arguments
  /// are compacted to the front of argv after argv[0]; the new argc is
  /// returned.
  int parse(int argc, char** argv) {
    prog_ = std::filesystem::path(argv[0]).filename().string();
    std::size_t positional = 0;
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (passthrough_ != nullptr && arg.starts_with(passthrough_)) {
        argv[kept++] = argv[i];
        continue;
      }
      if (arg == "-h" || arg == "--help") {
        print_usage(stdout);
        std::exit(0);
      }
      const Flag* flag =
          arg.starts_with("-") ? find(arg) : next_positional(positional);
      if (flag == nullptr) usage_error("unexpected argument \"" + arg + "\"");
      const char* value = nullptr;
      if (!is_flag(*flag)) {
        value = argv[i];
      } else if (flag->value != nullptr) {
        if (i + 1 >= argc) usage_error(arg + " needs a value");
        value = argv[++i];
      }
      if (!flag->apply(value)) {
        usage_error("bad value \"" + std::string(value) + "\" for " +
                    flag->name);
      }
    }
    while (const Flag* missing = next_positional(positional)) {
      if (missing->required) {
        usage_error(std::string("missing ") + missing->name);
      }
    }
    return kept;
  }

  /// Report a usage error found after parsing (e.g. a flag that needs
  /// another one): reason plus usage on stderr, exit 2.
  [[noreturn]] void usage_error(const std::string& why) const {
    std::fprintf(stderr, "%s: %s\n", prog_.c_str(), why.c_str());
    print_usage(stderr);
    std::exit(2);
  }

 private:
  static bool is_flag(const Flag& f) { return f.name[0] == '-'; }

  const Flag* find(const std::string& arg) const {
    for (const Flag& f : flags_) {
      if (is_flag(f) && arg == f.name) return &f;
    }
    return nullptr;
  }

  /// The `n`-th positional (advancing `n`), or nullptr when all are used.
  const Flag* next_positional(std::size_t& n) const {
    std::size_t seen = 0;
    for (const Flag& f : flags_) {
      if (!is_flag(f) && seen++ == n) {
        ++n;
        return &f;
      }
    }
    return nullptr;
  }

  /// One usage line, wrapped at 79 columns under the program name.
  void print_usage(std::FILE* out) const {
    std::vector<std::string> items;
    for (const Flag& f : flags_) {
      std::string item = f.required ? "" : "[";
      item += f.name;
      if (is_flag(f) && f.value != nullptr) (item += ' ') += f.value;
      if (!f.required) item += ']';
      items.push_back(std::move(item));
    }
    if (passthrough_ != nullptr) {
      items.push_back(std::string("[") + passthrough_ + "*...]");
    }
    std::string line = "usage: " + prog_;
    const std::size_t indent = line.size();
    for (const std::string& item : items) {
      if (line.size() + 1 + item.size() > 79 && line.size() > indent) {
        std::fprintf(out, "%s\n", line.c_str());
        line.assign(indent, ' ');
      }
      line += " " + item;
    }
    std::fprintf(out, "%s\n", line.c_str());
  }

  std::vector<Flag> flags_;
  const char* passthrough_;
  std::string prog_;
};

/// Parse argv against `flags` (see Parser::parse).
inline int parse_flags(int argc, char** argv, std::vector<Flag> flags,
                       const char* passthrough = nullptr) {
  return Parser(std::move(flags), passthrough).parse(argc, argv);
}

// ------------------------------------------------------ flag builders

/// A bare switch that sets `on`.
inline Flag switch_flag(const char* name, bool& on) {
  return {name, nullptr, [&on](const char*) { return on = true; }};
}

/// A flag whose value is kept as text; a later repeat overwrites it.
inline Flag string_flag(const char* name, const char* value,
                        std::string& out) {
  return {name, value, [&out](const char* text) {
            out = text;
            return true;
          }};
}

/// A positional argument kept as text.
inline Flag positional(const char* name, std::string& out,
                       bool required = true) {
  Flag flag = string_flag(name, nullptr, out);
  flag.required = required;
  return flag;
}

/// An unsigned integer flag (parse_uint), at least `min` and at most what
/// `T` holds.
template <class T>
Flag uint_flag(const char* name, T& out, std::type_identity_t<T> min = 0) {
  return {name, "N", [&out, min](const char* text) {
            const auto v = parse_uint(text, std::numeric_limits<T>::max());
            if (!v || *v < min) return false;
            out = static_cast<T>(*v);
            return true;
          }};
}

/// A non-negative number flag (parse_non_negative).
inline Flag number_flag(const char* name, const char* value, double& out) {
  return {name, value, [&out](const char* text) {
            const auto v = parse_non_negative(text);
            if (v) out = *v;
            return v.has_value();
          }};
}

/// --threads N: 0 = auto (one per hardware thread), else exactly N,
/// resolved through par::resolve_threads into `threads`. N above
/// LLONG_MAX is rejected rather than wrapped. The flag's absence leaves
/// `threads` alone (callers seed it with par::resolve_threads(), i.e.
/// CARPOOL_THREADS or serial).
inline Flag threads_flag(std::size_t& threads) {
  return {"--threads", "N", [&threads](const char* text) {
            const auto n = parse_uint(text, LLONG_MAX);
            if (n) threads = par::resolve_threads(static_cast<long long>(*n));
            return n.has_value();
          }};
}

/// --kernel NAME: select the PHY kernel backend process-wide
/// (docs/KERNELS.md). An unknown name or a tier this CPU cannot run is
/// a usage error, never a silent fallback.
inline Flag kernel_flag() {
  return {"--kernel", "auto|scalar|simd|sse2|avx2|avx512",
          [](const char* text) {
            const dsp::KernelSelect got = dsp::select_kernel(text);
            if (got == dsp::KernelSelect::kUnavailable) {
              std::fprintf(stderr,
                           "--kernel %s is not supported on this CPU (%s)\n",
                           text, dsp::kernel_info().c_str());
            }
            return got == dsp::KernelSelect::kOk;
          }};
}

}  // namespace carpool::cli
