// tools/soak — chaos soak campaign driver (docs/SOAK.md).
//
//   soak                                   # all built-in scenarios
//   soak --scenario scenarios/roaming.json # one scenario file
//   soak --frames 1000000                  # million-judgement campaign
//   soak --bundle-dir out/ --shrink        # emit + shrink repro bundles
//   soak --replay out/bundle_x.json        # replay a repro bundle
//   soak --frames 200000 --threads 0       # fan repeats across all cores
//   soak --replay b.json --chrome-trace t.json  # Perfetto timeline of
//                                               # the failing frame
//   soak --validate --scenario scenarios/steady.json  # schema check only
//   soak --trace capture.csv               # recorded SNR timeline overlay
//   soak --fuzz --fuzz-rounds 20           # coverage-guided fuzz campaign
//
// --validate parses and round-trips every --scenario file without
// running anything; exit 0 iff all are schema-valid. --trace FILE loads
// a recorded per-STA SNR timeline (CSV "time,sta,snr_db" or JSONL;
// chaos/snr_trace.hpp) and overlays it on every scenario run. --fuzz
// runs the coverage-guided scenario fuzzer (chaos/fuzz.hpp) with the
// loaded scenarios (or built-ins) as the seed corpus: --fuzz-rounds /
// --fuzz-batch / --fuzz-frames / --fuzz-seed shape the campaign,
// --fuzz-inject arms the inject_fault mutation operator, --corpus-dir
// writes the evolved corpus as scenario JSON files. The printed
// `corpus digest` is bit-identical at any --threads count.
//
// --chrome-trace PATH writes the run's frame-lifecycle spans (TXOP ->
// frame -> subframe -> decode; docs/OBSERVABILITY.md) as a Chrome
// trace-event file loadable in https://ui.perfetto.dev or
// chrome://tracing. --span-jsonl PATH writes the same spans as JSONL
// (convertible later with tools/trace_convert). Both need a build with
// CARPOOL_ENABLE_TRACE=ON; otherwise a warning is printed and the file
// holds no spans.
//
// --threads N shards timeline repeats across N workers (0 = auto, one
// per hardware thread; default honours CARPOOL_THREADS, else serial).
// The report and metrics are bit-for-bit identical at any thread count
// (docs/PARALLELISM.md); the `metrics fingerprint` line printed at the
// end digests every counter and gauge so CI can diff serial vs parallel
// runs with a string compare.
//
// Fault tolerance (docs/FAULT_TOLERANCE.md): --retry-attempts N retries
// a throwing repeat shard up to N times on a fresh worker (a successful
// retry is bit-identical to a first-try success); --shard-watchdog S
// arms a per-shard wall-clock watchdog. Repeats that exhaust their
// retries are quarantined into a degraded report instead of killing the
// campaign. --checkpoint-dir DIR flushes a resumable checkpoint every
// --checkpoint-every repeats (campaign mode needs exactly one scenario;
// fuzz mode persists its corpus as fuzz_state.json); --resume reloads it
// and continues — the resumed run's metrics fingerprint (and the fuzz
// corpus digest) are bit-identical to an uninterrupted campaign.
//
// Exit codes: 0 = campaign clean, 1 = invariant violation (bundle
// written when --bundle-dir is set), 2 = usage or scenario-file error,
// 3 = clean but degraded (some repeats quarantined after retries).

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/fuzz.hpp"
#include "chaos/runner.hpp"
#include "chaos/scenario.hpp"
#include "chaos/shrink.hpp"
#include "chaos/snr_trace.hpp"
#include "dsp/kernels.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "par/par.hpp"

namespace {

using namespace carpool;
using namespace carpool::chaos;

void usage() {
  std::fprintf(stderr,
               "usage: soak [--scenario FILE]... [--frames N] "
               "[--bundle-dir DIR] [--shrink]\n"
               "            [--replay BUNDLE] [--metrics FILE] [--list] "
               "[--threads N]\n"
               "            [--chrome-trace FILE] [--span-jsonl FILE]\n"
               "            [--validate] [--trace FILE]\n"
               "            [--fuzz] [--fuzz-rounds N] [--fuzz-batch N] "
               "[--fuzz-frames N]\n"
               "            [--fuzz-seed N] [--fuzz-inject] "
               "[--corpus-dir DIR]\n"
               "            [--retry-attempts N] [--shard-watchdog SECONDS]\n"
               "            [--checkpoint-dir DIR] [--checkpoint-every N] "
               "[--resume]\n"
               "            [--kernel auto|scalar|simd|sse2|avx2|avx512] "
               "[--kernel-info]\n");
}

/// Strict --kernel parser (the resolve_threads flag-hardening rule for
/// CLI input): an unknown name or a tier this CPU cannot run is a usage
/// error, never a silent fallback.
void apply_kernel_flag(const char* text) {
  switch (carpool::dsp::select_kernel(text == nullptr ? "" : text)) {
    case carpool::dsp::KernelSelect::kOk:
      return;
    case carpool::dsp::KernelSelect::kUnavailable:
      std::fprintf(stderr,
                   "soak: --kernel %s is not supported on this CPU (%s)\n",
                   text, carpool::dsp::kernel_info().c_str());
      usage();
      std::exit(2);
    case carpool::dsp::KernelSelect::kUnknown:
      break;
  }
  std::fprintf(stderr,
               "soak: --kernel wants auto|scalar|simd|sse2|avx2|avx512, "
               "got \"%s\"\n",
               text == nullptr ? "" : text);
  usage();
  std::exit(2);
}

/// Strict non-negative integer flag parser: the whole value must be a
/// base-10 unsigned integer ("--frames 12x", "--threads -3", and
/// "--fuzz-seed" followed by nothing are all usage errors, not silent
/// garbage). Exits 2 on any malformed value.
std::uint64_t parse_u64(const char* flag, const char* text) {
  if (text == nullptr || *text == '\0' || *text == '-' || *text == '+') {
    std::fprintf(stderr, "soak: %s wants a non-negative integer, got \"%s\"\n",
                 flag, text == nullptr ? "" : text);
    usage();
    std::exit(2);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "soak: %s wants a non-negative integer, got \"%s\"\n",
                 flag, text);
    usage();
    std::exit(2);
  }
  return static_cast<std::uint64_t>(v);
}

/// Strict non-negative seconds parser for --shard-watchdog.
double parse_seconds(const char* flag, const char* text) {
  if (text == nullptr || *text == '\0') {
    std::fprintf(stderr, "soak: %s wants non-negative seconds\n", flag);
    usage();
    std::exit(2);
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !(v >= 0.0)) {
    std::fprintf(stderr, "soak: %s wants non-negative seconds, got \"%s\"\n",
                 flag, text);
    usage();
    std::exit(2);
  }
  return v;
}

/// Export collected frame-lifecycle spans to the requested files.
/// Returns true on success (or nothing requested).
bool export_spans(const carpool::obs::SpanCollector& spans,
                  const std::string& chrome_path,
                  const std::string& jsonl_path) {
  bool ok = true;
  if (!chrome_path.empty()) {
    if (carpool::obs::ChromeTraceWriter::write(chrome_path,
                                               spans.records())) {
      std::printf("chrome trace: %s (%zu spans)\n", chrome_path.c_str(),
                  spans.records().size());
    } else {
      std::fprintf(stderr, "soak: cannot write %s\n", chrome_path.c_str());
      ok = false;
    }
  }
  if (!jsonl_path.empty()) {
    try {
      carpool::obs::TraceSink sink(jsonl_path);
      spans.write_jsonl(sink);
      sink.flush();
      std::printf("span jsonl: %s (%zu spans)\n", jsonl_path.c_str(),
                  spans.records().size());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "soak: %s\n", e.what());
      ok = false;
    }
  }
  return ok;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

void print_report(const Scenario& s, const SoakReport& r) {
  std::printf(
      "scenario %-22s seed %-6llu repeats %-3zu episodes %-4zu "
      "frames %-9llu probes %-6llu goodput %.2f Mbit/s  %s\n",
      s.name.c_str(), static_cast<unsigned long long>(s.seed), r.repeats,
      r.episodes_run, static_cast<unsigned long long>(r.frames_judged),
      static_cast<unsigned long long>(r.probes),
      r.mean_goodput_bps / 1e6, r.ok() ? "OK" : "VIOLATION");
  for (const Violation& v : r.violations) {
    std::printf("  violation: %s at frame %llu (t=%.6f, episode %zu, "
                "repeat %zu)\n    %s\n",
                v.invariant.c_str(),
                static_cast<unsigned long long>(v.frame), v.time,
                v.episode, v.repeat, v.detail.c_str());
  }
  if (!r.margins.minima().empty()) {
    const auto tightest = std::min_element(
        r.margins.minima().begin(), r.margins.minima().end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    std::printf("  min margin: %.4f (%s)\n", tightest->second,
                tightest->first.c_str());
  }
  if (!r.bundle_path.empty()) {
    std::printf("  repro bundle: %s\n", r.bundle_path.c_str());
  }
  if (r.resumed) {
    std::printf("  resumed from checkpoint (%zu repeats carried over)\n",
                r.resumed_repeats);
  }
  if (!r.checkpoint_path.empty()) {
    std::printf("  checkpoint: %s\n", r.checkpoint_path.c_str());
  }
  if (r.degraded.degraded() || r.degraded.retries > 0 ||
      r.degraded.stalls > 0) {
    std::printf("  %s\n", r.degraded.to_string().c_str());
  }
}

int replay_mode(const std::string& path) {
  std::string text;
  if (!read_file(path, text)) {
    std::fprintf(stderr, "soak: cannot read bundle %s\n", path.c_str());
    return 2;
  }
  const BundleParseResult parsed = bundle_from_json(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "soak: bad bundle %s: %s\n", path.c_str(),
                 parsed.error.to_string().c_str());
    return 2;
  }
  const ReplayResult result = replay_bundle(*parsed.bundle);
  if (result.reproduced) {
    std::printf("bundle %s: reproduced %s at frame %llu\n", path.c_str(),
                parsed.bundle->violation.invariant.c_str(),
                static_cast<unsigned long long>(
                    parsed.bundle->violation.frame));
    return 0;
  }
  if (result.violation) {
    std::printf("bundle %s: NOT reproduced — got %s at frame %llu "
                "instead\n",
                path.c_str(), result.violation->invariant.c_str(),
                static_cast<unsigned long long>(result.violation->frame));
  } else {
    std::printf("bundle %s: NOT reproduced — campaign ran clean\n",
                path.c_str());
  }
  return 1;
}

/// --validate: parse + round-trip every scenario file without running
/// anything. Reports every file (not just the first failure) so a CI
/// sweep over scenarios/*.json gives one complete answer.
int validate_mode(const std::vector<std::string>& files) {
  if (files.empty()) {
    std::fprintf(stderr,
                 "soak: --validate needs at least one --scenario FILE\n");
    return 2;
  }
  int exit_code = 0;
  for (const std::string& path : files) {
    std::string text;
    if (!read_file(path, text)) {
      std::fprintf(stderr, "%s: cannot read\n", path.c_str());
      exit_code = 2;
      continue;
    }
    const ScenarioParseResult parsed = scenario_from_json(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: INVALID: %s\n", path.c_str(),
                   parsed.error.to_string().c_str());
      exit_code = 2;
      continue;
    }
    // Serialize -> parse must also hold, or repro bundles embedding this
    // scenario would not round-trip.
    const ScenarioParseResult round =
        scenario_from_json(scenario_to_json(*parsed.scenario));
    if (!round.ok()) {
      std::fprintf(stderr, "%s: INVALID: round-trip failed: %s\n",
                   path.c_str(), round.error.to_string().c_str());
      exit_code = 2;
      continue;
    }
    std::printf("%s: OK (%s, %.1fs, %zu STAs)\n", path.c_str(),
                parsed.scenario->name.c_str(), parsed.scenario->duration,
                parsed.scenario->num_stas);
  }
  return exit_code;
}

/// --fuzz: coverage-guided campaign over the loaded scenarios.
int fuzz_mode(const std::vector<Scenario>& seeds, const FuzzOptions& fopts,
              const std::string& corpus_dir) {
  const FuzzEngine engine(fopts);
  const FuzzReport report = engine.run(seeds);
  if (!report.resume_error.empty()) {
    std::fprintf(stderr, "soak: cannot resume fuzz state: %s\n",
                 report.resume_error.c_str());
    return 2;
  }
  if (report.resumed) {
    std::printf("fuzz: resumed from saved fuzz state\n");
  }

  std::printf("fuzz: %zu seeds, %zu rounds, %llu evals, corpus %zu "
              "(%llu admissions)\n",
              seeds.size(), report.rounds_run,
              static_cast<unsigned long long>(report.evals),
              report.corpus.size(),
              static_cast<unsigned long long>(report.corpus_adds));
  for (const FuzzHit& hit : report.hits) {
    std::printf("  HIT r%zu/b%zu op=%s: %s at frame %llu\n    %s\n",
                hit.round, hit.batch_index, hit.op.c_str(),
                hit.violation.invariant.c_str(),
                static_cast<unsigned long long>(hit.violation.frame),
                hit.violation.detail.c_str());
    if (!hit.bundle_path.empty()) {
      std::printf("    repro bundle: %s\n", hit.bundle_path.c_str());
    }
    if (hit.timeline_ratio < 1.0) {
      std::printf("    shrunk timeline: %.1fs -> %.1fs (ratio %.3f)\n",
                  hit.scenario.timeline_seconds(),
                  hit.shrunk.timeline_seconds(), hit.timeline_ratio);
    }
  }
  if (!corpus_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(corpus_dir, ec);
    if (ec) {
      std::fprintf(stderr, "soak: cannot create %s\n", corpus_dir.c_str());
      return 2;
    }
    for (std::size_t i = 0; i < report.corpus.size(); ++i) {
      char name[64];
      std::snprintf(name, sizeof(name), "/corpus_%03zu_%016" PRIx64
                    ".json", i, report.corpus[i].signature);
      std::ofstream out(corpus_dir + name);
      if (out) out << scenario_to_json(report.corpus[i].scenario);
    }
    std::printf("corpus: %zu entries -> %s\n", report.corpus.size(),
                corpus_dir.c_str());
  }
  // The determinism canary: equal at any --threads count.
  std::printf("corpus digest: 0x%016" PRIx64 "\n", report.corpus_digest());
  std::printf("metrics fingerprint: 0x%016" PRIx64 "\n",
              obs::Registry::global().fingerprint());
  return report.found() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> scenario_files;
  std::string replay_path;
  std::string metrics_path;
  std::string chrome_trace_path;
  std::string span_jsonl_path;
  SoakOptions opts;
  opts.threads = carpool::par::resolve_threads();  // CARPOOL_THREADS or 1
  bool do_shrink = false;
  bool list_only = false;
  bool validate_only = false;
  bool do_fuzz = false;
  std::string trace_path;
  std::string corpus_dir;
  FuzzOptions fuzz_opts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--scenario") {
      scenario_files.push_back(next());
    } else if (arg == "--frames") {
      opts.max_frames = parse_u64("--frames", next());
    } else if (arg == "--bundle-dir") {
      opts.bundle_dir = next();
    } else if (arg == "--shrink") {
      do_shrink = true;
    } else if (arg == "--replay") {
      replay_path = next();
    } else if (arg == "--metrics") {
      metrics_path = next();
    } else if (arg == "--threads") {
      opts.threads = carpool::par::resolve_threads(
          static_cast<long long>(parse_u64("--threads", next())));
    } else if (arg == "--chrome-trace") {
      chrome_trace_path = next();
    } else if (arg == "--span-jsonl") {
      span_jsonl_path = next();
    } else if (arg == "--list") {
      list_only = true;
    } else if (arg == "--validate") {
      validate_only = true;
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--fuzz") {
      do_fuzz = true;
    } else if (arg == "--fuzz-rounds") {
      fuzz_opts.rounds = parse_u64("--fuzz-rounds", next());
    } else if (arg == "--fuzz-batch") {
      fuzz_opts.batch = parse_u64("--fuzz-batch", next());
    } else if (arg == "--fuzz-frames") {
      fuzz_opts.eval_frames = parse_u64("--fuzz-frames", next());
    } else if (arg == "--fuzz-seed") {
      fuzz_opts.seed = parse_u64("--fuzz-seed", next());
    } else if (arg == "--fuzz-inject") {
      fuzz_opts.allow_inject = true;
    } else if (arg == "--corpus-dir") {
      corpus_dir = next();
    } else if (arg == "--retry-attempts") {
      const std::uint64_t n = parse_u64("--retry-attempts", next());
      if (n == 0) {
        std::fprintf(stderr, "soak: --retry-attempts wants >= 1\n");
        usage();
        return 2;
      }
      opts.retry.max_attempts = static_cast<std::size_t>(n);
    } else if (arg == "--shard-watchdog") {
      opts.retry.watchdog_seconds = parse_seconds("--shard-watchdog", next());
    } else if (arg == "--checkpoint-dir") {
      opts.checkpoint_dir = next();
    } else if (arg == "--checkpoint-every") {
      const std::uint64_t n = parse_u64("--checkpoint-every", next());
      if (n == 0) {
        std::fprintf(stderr, "soak: --checkpoint-every wants >= 1\n");
        usage();
        return 2;
      }
      opts.checkpoint_every = static_cast<std::size_t>(n);
    } else if (arg == "--resume") {
      opts.resume = true;
    } else if (arg == "--kernel") {
      apply_kernel_flag(next());
    } else if (arg == "--kernel-info") {
      std::printf("%s\n", carpool::dsp::kernel_info().c_str());
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "soak: unknown argument %s\n", arg.c_str());
      usage();
      return 2;
    }
  }

  if (opts.resume && opts.checkpoint_dir.empty()) {
    std::fprintf(stderr, "soak: --resume needs --checkpoint-dir\n");
    usage();
    return 2;
  }

  // Span collection covers replay and campaign alike; the collector is
  // installed for the whole run and exported at exit.
  const bool want_spans =
      !chrome_trace_path.empty() || !span_jsonl_path.empty();
  if (want_spans && !obs::trace_compiled_in()) {
    std::fprintf(stderr,
                 "soak: warning: built with CARPOOL_ENABLE_TRACE=OFF; "
                 "span collection is compiled out and the trace will be "
                 "empty\n");
  }
  obs::SpanCollector span_collector;
  std::optional<obs::SpanCollector::ScopedCurrent> span_scope;
  if (want_spans) span_scope.emplace(span_collector);

  if (validate_only) return validate_mode(scenario_files);

  if (!replay_path.empty()) {
    const int code = replay_mode(replay_path);
    if (want_spans &&
        !export_spans(span_collector, chrome_trace_path, span_jsonl_path)) {
      return 2;
    }
    return code;
  }

  std::vector<Scenario> scenarios;
  if (scenario_files.empty()) {
    scenarios = default_scenarios();
  } else {
    for (const std::string& path : scenario_files) {
      std::string text;
      if (!read_file(path, text)) {
        std::fprintf(stderr, "soak: cannot read %s\n", path.c_str());
        return 2;
      }
      ScenarioParseResult parsed = scenario_from_json(text);
      if (!parsed.ok()) {
        std::fprintf(stderr, "soak: bad scenario %s: %s\n", path.c_str(),
                     parsed.error.to_string().c_str());
        return 2;
      }
      scenarios.push_back(std::move(*parsed.scenario));
    }
  }

  if (!trace_path.empty()) {
    std::string text;
    if (!read_file(trace_path, text)) {
      std::fprintf(stderr, "soak: cannot read trace %s\n",
                   trace_path.c_str());
      return 2;
    }
    const SnrTraceParseResult parsed = snr_trace_from_text(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "soak: bad trace %s: %s\n", trace_path.c_str(),
                   parsed.error.to_string().c_str());
      return 2;
    }
    std::printf("trace %s: %zu samples, %u STAs\n", trace_path.c_str(),
                parsed.trace->size(), parsed.trace->max_sta());
    for (Scenario& s : scenarios) s.snr_trace = *parsed.trace;
  }

  if (do_fuzz) {
    fuzz_opts.threads = opts.threads;
    fuzz_opts.bundle_dir = opts.bundle_dir;
    fuzz_opts.rte_norm_bound = opts.rte_norm_bound;
    fuzz_opts.checkpoint_dir = opts.checkpoint_dir;
    fuzz_opts.resume = opts.resume;
    return fuzz_mode(scenarios, fuzz_opts, corpus_dir);
  }

  if (list_only) {
    for (const Scenario& s : scenarios) {
      std::printf("%-22s duration %.1fs stas %zu %s\n", s.name.c_str(),
                  s.duration, s.num_stas, scenario_to_json(s).c_str());
    }
    return 0;
  }

  // A campaign checkpoint names one scenario; a multi-scenario sweep
  // would overwrite per-scenario files mid-flight and make --resume
  // ambiguous about which campaign to continue.
  if (!opts.checkpoint_dir.empty() && scenarios.size() != 1) {
    std::fprintf(stderr,
                 "soak: --checkpoint-dir needs exactly one --scenario "
                 "(got %zu)\n",
                 scenarios.size());
    usage();
    return 2;
  }

  // With a campaign budget, split it evenly across the scenario set so
  // `--frames 1000000` means one million judgements total.
  SoakOptions per = opts;
  if (opts.max_frames > 0 && scenarios.size() > 1) {
    per.max_frames = opts.max_frames / scenarios.size();
  }

  int exit_code = 0;
  bool any_degraded = false;
  std::uint64_t total_frames = 0;
  for (const Scenario& s : scenarios) {
    const SoakRunner runner(per);
    const auto started = std::chrono::steady_clock::now();
    const SoakReport report = runner.run(s);
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - started)
                              .count();
    if (!report.resume_error.empty()) {
      std::fprintf(stderr, "soak: cannot resume: %s\n",
                   report.resume_error.c_str());
      return 2;
    }
    total_frames += report.frames_judged;
    print_report(s, report);
    // Host-speed rates, printed only: wall time never enters the
    // registry, so the metrics fingerprint stays deterministic. A
    // resumed report carries work this process did not do.
    if (!report.resumed && wall_s > 0.0) {
      std::printf("  rate: %.0f judged frames/s, %.2f sim-s per wall-s "
                  "(%.3f s wall)\n",
                  static_cast<double>(report.frames_judged) / wall_s,
                  report.sim_seconds / wall_s, wall_s);
    }
    if (report.degraded.degraded()) any_degraded = true;
    if (!report.ok()) {
      exit_code = 1;
      if (do_shrink) {
        const ReproBundle bundle{s, report.violations.front()};
        const ShrinkResult shrunk = shrink_bundle(bundle);
        std::printf(
            "  shrink: %zu attempts, %zu accepted, timeline %.1fs -> "
            "%.1fs (ratio %.3f)\n",
            shrunk.attempts, shrunk.accepted, s.timeline_seconds(),
            shrunk.scenario.timeline_seconds(), shrunk.timeline_ratio);
        if (!per.bundle_dir.empty()) {
          const std::string path = per.bundle_dir + "/bundle_" + s.name +
                                   "_shrunk.json";
          std::ofstream out(path);
          if (out) {
            out << bundle_to_json({shrunk.scenario, shrunk.violation});
            std::printf("  shrunk bundle: %s\n", path.c_str());
          }
        }
      }
    }
  }

  std::printf("total frames judged: %llu\n",
              static_cast<unsigned long long>(total_frames));
  // Counter+gauge digest (wall-clock histograms excluded): identical
  // across thread counts, so serial-vs-parallel CI runs can diff it.
  std::printf("metrics fingerprint: 0x%016" PRIx64 "\n",
              obs::Registry::global().fingerprint());
  if (!metrics_path.empty()) {
    obs::Registry::global().write_json(metrics_path, "soak");
  }
  if (want_spans &&
      !export_spans(span_collector, chrome_trace_path, span_jsonl_path)) {
    return exit_code == 0 ? 2 : exit_code;
  }
  // Clean but degraded: some repeats were quarantined after exhausting
  // their retries. Distinct from 1 (violation) so CI can tell "campaign
  // found a bug" from "campaign lost shards".
  if (exit_code == 0 && any_degraded) return 3;
  return exit_code;
}
