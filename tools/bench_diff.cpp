// bench_diff — compare BENCH_*.json metric exports (schema_version 2,
// written by bench::write_metrics / obs::Registry) against a baseline.
//
//   bench_diff BASELINE_DIR CURRENT_DIR [--threshold PCT] [--sigma K]
//
// The baseline directory holds either flat BENCH_*.json files (one
// reference run) or run*/ subdirectories each holding BENCH_*.json (a
// set of repeated reference runs). With multiple runs the tool measures
// per-metric baseline variance and derives each metric's tolerance as
//
//   tolerance_pct = max(threshold, sigma * cv_pct)
//
// where cv_pct is the coefficient of variation (stddev/|mean| * 100)
// across the baseline runs — a metric that wobbles 2% run to run gets a
// wider gate than one that is bit-reproducible. Exit status is nonzero
// when a *gated* metric regressed beyond its tolerance:
//
//   - goodput/throughput metrics (name contains "goodput", "throughput")
//     gate on decreases;
//   - latency/delay metrics (name contains "latency" or "delay") gate on
//     increases. This is deliberately restricted to simulated-time
//     metrics: wall-clock profiling histograms (phy.*, fec.*, ...) vary
//     with the host and stay informational, p99 included.
//
// Everything else is informational: counters like retry totals move with
// scenario tweaks and should not fail CI. The CI workflow runs this as a
// BLOCKING step against the committed baselines in bench/baselines/
// (run1..run5); refresh those by re-running the bench binaries five
// times and copying each run's BENCH_*.json into its run directory.
//
// The flattening/aggregation/tolerance machinery is shared with
// bench_report (the trend dashboard) via bench_compare.hpp.
//
// Exit codes: 0 = no gated regression, 1 = gated regression, 2 = usage
// error, a BENCH file (baseline run or current) that exists but cannot
// be read as strict JSON, or nothing to compare.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_compare.hpp"
#include "common/cli.hpp"

namespace {

namespace fs = std::filesystem;
using namespace carpool::benchcmp;

struct Regression {
  std::string file;
  std::string metric;
  double baseline;
  double current;
  double change_pct;
  double tolerance_pct;
};

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_arg;
  std::string current_arg;
  double threshold_pct = 10.0;
  double sigma = 3.0;
  carpool::cli::Parser parser({
      carpool::cli::positional("BASELINE_DIR", baseline_arg),
      carpool::cli::positional("CURRENT_DIR", current_arg),
      carpool::cli::number_flag("--threshold", "PCT", threshold_pct),
      carpool::cli::number_flag("--sigma", "K", sigma),
  });
  parser.parse(argc, argv);
  const fs::path baseline_dir = baseline_arg;
  const fs::path current_dir = current_arg;
  if (!fs::is_directory(baseline_dir) || !fs::is_directory(current_dir)) {
    parser.usage_error("both arguments must be directories");
  }

  const std::vector<fs::path> run_dirs = discover_run_dirs(baseline_dir);
  const std::vector<std::string> files = discover_bench_files(run_dirs);
  if (files.empty()) {
    std::fprintf(stderr, "bench_diff: no BENCH_*.json in %s\n",
                 baseline_dir.string().c_str());
    return 2;
  }
  std::printf("baseline: %zu run(s) under %s\n", run_dirs.size(),
              baseline_dir.string().c_str());

  std::vector<Regression> regressions;
  std::size_t compared_files = 0;
  std::size_t unreadable_files = 0;
  for (const std::string& name : files) {
    const fs::path cur_path = current_dir / name;
    if (!fs::exists(cur_path)) {
      std::printf("%s: missing from %s (skipped)\n", name.c_str(),
                  current_dir.string().c_str());
      continue;
    }
    std::vector<std::string> errors;
    const auto base = aggregate_baseline(run_dirs, name, errors);
    std::string cur_error;
    const auto cur = load_metrics(cur_path, cur_error);
    if (!cur) errors.push_back(cur_error);
    if (!errors.empty()) {
      for (const std::string& error : errors) {
        std::fprintf(stderr, "bench_diff: %s\n", error.c_str());
      }
      ++unreadable_files;
      continue;
    }
    ++compared_files;
    std::printf("\n== %s ==\n", name.c_str());
    std::printf("%-52s %14s %14s %9s %8s\n", "metric", "baseline", "current",
                "delta", "tol");
    for (const auto& [metric, stat] : base) {
      if (!reportable(metric)) continue;
      const auto it = cur->find(metric);
      if (it == cur->end()) {
        std::printf("%-52s %14.6g %14s\n", metric.c_str(), stat.mean,
                    "(gone)");
        continue;
      }
      const double cur_value = it->second;
      const double denom = std::abs(stat.mean);
      const double change_pct =
          denom > 0.0 ? 100.0 * (cur_value - stat.mean) / denom
                      : (cur_value == stat.mean ? 0.0 : 100.0);
      const Gate gate = gate_for(metric);
      const double tolerance_pct =
          std::max(threshold_pct, sigma * stat.cv_pct);
      const bool regressed =
          (gate == Gate::kHigherBetter && change_pct < -tolerance_pct) ||
          (gate == Gate::kLowerBetter && change_pct > tolerance_pct);
      if (gate != Gate::kNone) {
        std::printf("%-52s %14.6g %14.6g %+8.2f%% %7.1f%%%s\n",
                    metric.c_str(), stat.mean, cur_value, change_pct,
                    tolerance_pct, regressed ? "  REGRESSION" : "  (gated)");
      } else {
        std::printf("%-52s %14.6g %14.6g %+8.2f%%\n", metric.c_str(),
                    stat.mean, cur_value, change_pct);
      }
      if (regressed) {
        regressions.push_back(Regression{name, metric, stat.mean, cur_value,
                                         change_pct, tolerance_pct});
      }
    }
    for (const auto& [metric, cur_value] : *cur) {
      if (reportable(metric) && base.find(metric) == base.end()) {
        std::printf("%-52s %14s %14.6g\n", metric.c_str(), "(new)",
                    cur_value);
      }
    }
  }

  // An export that exists but does not parse is a broken gate, not a
  // skipped file: the metrics it holds were never compared.
  if (unreadable_files > 0) {
    std::fprintf(stderr, "bench_diff: %zu BENCH file(s) could not be read\n",
                 unreadable_files);
    return 2;
  }
  if (compared_files == 0) {
    std::fprintf(stderr, "bench_diff: nothing compared\n");
    return 2;
  }
  if (!regressions.empty()) {
    std::printf("\n%zu regression(s) beyond tolerance:\n",
                regressions.size());
    for (const Regression& r : regressions) {
      std::printf("  %s %s: %.6g -> %.6g (%+.2f%%, tolerance %.1f%%)\n",
                  r.file.c_str(), r.metric.c_str(), r.baseline, r.current,
                  r.change_pct, r.tolerance_pct);
    }
    return 1;
  }
  std::printf(
      "\nno gated regressions (floor %.1f%%, sigma %.1f, %zu file(s))\n",
      threshold_pct, sigma, compared_files);
  return 0;
}
