#pragma once

// Shared BENCH_*.json comparison machinery for bench_diff (the blocking
// CI gate) and bench_report (the trend dashboard). Both tools must agree
// on what a metric is, which metrics gate, and how a tolerance is
// derived, so the logic lives here once:
//
//   - flatten a metrics export to "counters.x" / "histograms.z.mean" keys
//     (numeric leaves only; the schema_version-2 `meta` strings and
//     bucket arrays are parsed and discarded),
//   - aggregate baseline runs (run*/ subdirectories or one flat dir)
//     into per-metric mean + coefficient of variation,
//   - tolerance_pct = max(threshold, sigma * cv_pct),
//   - gates: goodput/throughput and kernel speedup ratios fail on
//     decrease, latency/delay on increase; everything else is
//     informational.

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace carpool::benchcmp {

namespace fs = std::filesystem;

/// Strict parse of a --threshold / --sigma value: the whole text must be
/// a finite, non-negative number. Garbage ("abc"), a trailing suffix
/// ("3x"), a negative value, inf/nan and an empty or missing value all
/// yield nullopt, which the tools turn into usage + exit 2.
inline std::optional<double> parse_non_negative(const char* text) {
  if (text == nullptr || *text == '\0' ||
      std::isspace(static_cast<unsigned char>(*text))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(v) ||
      !(v >= 0.0)) {
    return std::nullopt;
  }
  return v;
}

// ------------------------------------------------------------------ JSON
// Minimal recursive-descent parser for the flat metrics schema. Values we
// care about are numbers; everything else (strings, bools, null) is parsed
// and discarded.

struct JsonParser {
  const std::string& text;
  std::size_t pos = 0;
  bool failed = false;

  explicit JsonParser(const std::string& t) : text(t) {}

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  char peek() {
    skip_ws();
    return pos < text.size() ? text[pos] : '\0';
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\' && pos + 1 < text.size()) ++pos;
      out.push_back(text[pos++]);
    }
    if (pos >= text.size()) {
      failed = true;
      return std::nullopt;
    }
    ++pos;  // closing quote
    return out;
  }

  std::optional<double> parse_number() {
    skip_ws();
    const std::size_t start = pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            std::strchr("+-.eE", text[pos]) != nullptr)) {
      ++pos;
    }
    if (pos == start) return std::nullopt;
    try {
      return std::stod(text.substr(start, pos - start));
    } catch (...) {
      failed = true;
      return std::nullopt;
    }
  }

  /// Parse any value; numeric leaves land in `out` under `prefix`.
  void parse_value(const std::string& prefix,
                   std::map<std::string, double>& out) {
    const char c = peek();
    if (c == '{') {
      consume('{');
      if (consume('}')) return;
      do {
        const auto key = parse_string();
        if (!key || !consume(':')) {
          failed = true;
          return;
        }
        parse_value(prefix.empty() ? *key : prefix + "." + *key, out);
        if (failed) return;
      } while (consume(','));
      if (!consume('}')) failed = true;
    } else if (c == '[') {
      consume('[');
      if (consume(']')) return;
      std::map<std::string, double> discard;  // bucket arrays: not diffed
      do {
        parse_value(prefix, discard);
        if (failed) return;
      } while (consume(','));
      if (!consume(']')) failed = true;
    } else if (c == '"') {
      if (!parse_string()) failed = true;
    } else if (c == 't' || c == 'f' || c == 'n') {
      while (pos < text.size() &&
             std::isalpha(static_cast<unsigned char>(text[pos]))) {
        ++pos;
      }
    } else {
      const auto num = parse_number();
      if (!num) {
        failed = true;
        return;
      }
      out[prefix] = *num;
    }
  }
};

/// Flatten one metrics file: "counters.x", "gauges.y",
/// "histograms.z.mean", ... -> value.
inline std::optional<std::map<std::string, double>> load_metrics(
    const fs::path& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  JsonParser parser(text);
  std::map<std::string, double> flat;
  parser.parse_value("", flat);
  if (parser.failed) return std::nullopt;
  flat.erase("schema_version");
  return flat;
}

inline bool contains(const std::string& haystack, const char* needle) {
  return haystack.find(needle) != std::string::npos;
}

enum class Gate { kNone, kHigherBetter, kLowerBetter };

inline Gate gate_for(const std::string& metric) {
  if (contains(metric, "goodput") || contains(metric, "throughput")) {
    return Gate::kHigherBetter;
  }
  // Kernel SIMD-vs-scalar speedup ratios (micro.*.simd_speedup) are
  // host-portable: both backends run on the same machine, so the ratio
  // gates even though the absolute symbols/sec rates stay informational.
  if (contains(metric, "speedup")) {
    return Gate::kHigherBetter;
  }
  // Simulated-time latency metrics only: wall-clock profiling histograms
  // (phy.fft and friends) vary with the CI host and must not block.
  if (contains(metric, "latency") || contains(metric, "delay")) {
    return Gate::kLowerBetter;
  }
  return Gate::kNone;
}

/// Baseline statistics for one metric across the reference runs.
struct BaselineStat {
  double mean = 0.0;
  double cv_pct = 0.0;  ///< 100 * stddev / |mean|; 0 for a single run
  std::size_t runs = 0;
  std::vector<double> values;  ///< per-run samples, run-dir order
};

/// Aggregate one BENCH file's metrics over every baseline run directory
/// that has it. Missing-from-some-runs metrics keep the runs they have.
inline std::map<std::string, BaselineStat> aggregate_baseline(
    const std::vector<fs::path>& run_dirs, const std::string& file_name) {
  std::map<std::string, std::vector<double>> samples;
  for (const fs::path& dir : run_dirs) {
    const fs::path path = dir / file_name;
    if (!fs::exists(path)) continue;
    const auto metrics = load_metrics(path);
    if (!metrics) continue;
    for (const auto& [metric, value] : *metrics) {
      samples[metric].push_back(value);
    }
  }
  std::map<std::string, BaselineStat> out;
  for (auto& [metric, values] : samples) {
    BaselineStat stat;
    stat.runs = values.size();
    for (const double v : values) stat.mean += v;
    stat.mean /= static_cast<double>(values.size());
    if (values.size() > 1 && std::abs(stat.mean) > 0.0) {
      double ss = 0.0;
      for (const double v : values) {
        ss += (v - stat.mean) * (v - stat.mean);
      }
      const double stddev =
          std::sqrt(ss / static_cast<double>(values.size() - 1));
      stat.cv_pct = 100.0 * stddev / std::abs(stat.mean);
    }
    stat.values = std::move(values);
    out[metric] = std::move(stat);
  }
  return out;
}

/// Keep diff tables and dashboards readable: histogram internals other
/// than mean/p99 (count, sum, min, max, bucket edges) are noise.
inline bool reportable(const std::string& metric) {
  if (!contains(metric, "histograms.")) return true;
  return contains(metric, ".mean") || contains(metric, ".p99");
}

/// Baseline layout discovery: run*/ subdirectories of repeated reference
/// runs, or (legacy) flat BENCH_*.json in the dir itself = a single run.
inline std::vector<fs::path> discover_run_dirs(const fs::path& baseline_dir) {
  std::vector<fs::path> run_dirs;
  for (const auto& entry : fs::directory_iterator(baseline_dir)) {
    if (entry.is_directory() &&
        entry.path().filename().string().rfind("run", 0) == 0) {
      run_dirs.push_back(entry.path());
    }
  }
  std::sort(run_dirs.begin(), run_dirs.end());
  if (run_dirs.empty()) run_dirs.push_back(baseline_dir);
  return run_dirs;
}

inline bool is_bench_file(const std::string& name) {
  return name.rfind("BENCH_", 0) == 0 && name.size() > 5 &&
         name.substr(name.size() - 5) == ".json";
}

/// Union of BENCH_*.json file names across the given directories, sorted.
inline std::vector<std::string> discover_bench_files(
    const std::vector<fs::path>& dirs) {
  std::vector<std::string> files;
  for (const fs::path& dir : dirs) {
    if (!fs::is_directory(dir)) continue;
    for (const auto& entry : fs::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (entry.is_regular_file() && is_bench_file(name) &&
          std::find(files.begin(), files.end(), name) == files.end()) {
        files.push_back(name);
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace carpool::benchcmp
