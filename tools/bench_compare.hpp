#pragma once

// Shared BENCH_*.json comparison machinery for bench_diff (the blocking
// CI gate) and bench_report (the trend dashboard). Both tools must agree
// on what a metric is, which metrics gate, and how a tolerance is
// derived, so the logic lives here once:
//
//   - flatten a metrics export, read with the strict JSON reader
//     (common/json.hpp), to "counters.x" / "histograms.z.mean" keys
//     (numeric leaves only; the schema_version-2 `meta` strings and
//     bucket arrays are parsed and discarded),
//   - aggregate baseline runs (run*/ subdirectories or one flat dir)
//     into per-metric mean + coefficient of variation,
//   - tolerance_pct = max(threshold, sigma * cv_pct),
//   - gates: goodput/throughput and kernel speedup ratios fail on
//     decrease, latency/delay on increase; everything else is
//     informational.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace carpool::benchcmp {

namespace fs = std::filesystem;

/// Numeric leaves of a parsed export under dotted keys; strings, bools,
/// nulls and arrays (histogram buckets) are not diffed.
inline void flatten(const JsonValue& value, const std::string& prefix,
                    std::map<std::string, double>& out) {
  if (value.is_object()) {
    for (const auto& [key, child] : value.as_object()) {
      flatten(child, prefix.empty() ? key : prefix + "." + key, out);
    }
  } else if (value.is_number()) {
    out[prefix] = value.as_number();
  }
}

/// Flatten one metrics file: "counters.x", "gauges.y",
/// "histograms.z.mean", ... -> value. A file that cannot be read or is
/// not strict JSON yields nullopt and `error` ("path:line:col: why").
inline std::optional<std::map<std::string, double>> load_metrics(
    const fs::path& path, std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = path.string() + ": cannot read";
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonParseResult parsed = json_parse(buffer.str());
  if (!parsed.ok()) {
    error = path.string() + ":" + std::to_string(parsed.error.line) + ":" +
            std::to_string(parsed.error.column) + ": " +
            parsed.error.message;
    return std::nullopt;
  }
  std::map<std::string, double> flat;
  flatten(*parsed.value, "", flat);
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
/// that has it. Missing-from-some-runs metrics keep the runs they have; a
/// run whose copy cannot be read is left out and named in `errors`.
inline std::map<std::string, BaselineStat> aggregate_baseline(
    const std::vector<fs::path>& run_dirs, const std::string& file_name,
    std::vector<std::string>& errors) {
  std::map<std::string, std::vector<double>> samples;
  for (const fs::path& dir : run_dirs) {
    const fs::path path = dir / file_name;
    if (!fs::exists(path)) continue;
    std::string error;
    const auto metrics = load_metrics(path, error);
    if (!metrics) {
      errors.push_back(error);
      continue;
    }
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
