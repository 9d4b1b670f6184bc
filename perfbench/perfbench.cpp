// perfbench — the repository benchmark driver (see README.md beside this
// file for the workloads, the metrics and how to read a traced run).
//
//   perfbench --workload phy_link|campaign_steady|campaign_probed|multi_bss|all
//             [--seed N] [--seconds S] [--trace 0|1] [--kernel NAME]
//             [--min-items N]
//
// Every workload is a closed-loop batch job in this one process: the next
// work item starts when the previous one has finished. All inputs derive
// from --seed. An untraced run (--trace 0) reports the end-to-end metrics;
// a traced run (--trace 1) repeats the same items with spans around the
// calls into each module's public functions, reads the program's own
// OBS_SCOPED_TIMER histograms, and reports per-layer metrics. Nothing is
// traced inside the libraries.
//
// Output: human-readable lines, then per workload one JSON object on a
// line of its own: {"correct", "attempted", "failed", "metrics"}.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "carpool/transceiver.hpp"
#include "channel/fading.hpp"
#include "chaos/runner.hpp"
#include "chaos/scenario.hpp"
#include "common/rng.hpp"
#include "dsp/kernels.hpp"
#include "mac/phy_model.hpp"
#include "mac/simulator.hpp"
#include "obs/registry.hpp"
#include "phy/frame.hpp"
#include "sim/multi_bss.hpp"
#include "sim/testbed.hpp"
#include "traffic/generators.hpp"

namespace {

using namespace carpool;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------ options

constexpr const char* kWorkloads[] = {"phy_link", "campaign_steady",
                                      "campaign_probed", "multi_bss"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string kernel = "auto";
  /// Lower bound on items per measured pass: enough that at least ten
  /// samples lie beyond the p90 and that the digest prefix exists.
  std::size_t min_items = 100;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "phy_link|campaign_steady|campaign_probed|multi_bss|all\n"
               "                 [--seed N] [--seconds S] [--trace 0|1]\n"
               "                 [--kernel auto|scalar|simd|sse2|avx2|avx512] "
               "[--min-items N]\n");
  std::exit(2);
}

template <class T>
bool parse_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--help" || flag == "-h") usage("help requested");
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      const bool known =
          value == "all" ||
          std::find(std::begin(kWorkloads), std::end(kWorkloads), value) !=
              std::end(kWorkloads);
      if (!known) usage("unknown workload \"" + std::string(value) + "\"");
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_number(value, o.seed)) usage("--seed wants an integer");
    } else if (flag == "--seconds") {
      if (!parse_number(value, o.seconds) || !(o.seconds > 0.0) ||
          o.seconds > 3600.0) {
        usage("--seconds wants a number in (0, 3600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace wants 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--kernel") {
      o.kernel = value;
    } else if (flag == "--min-items") {
      if (!parse_number(value, o.min_items) || o.min_items == 0 ||
          o.min_items > 1000000) {
        usage("--min-items wants an integer in [1, 1000000]");
      }
    } else {
      usage("unknown flag " + std::string(flag));
    }
  }
  if (!have_workload) usage("--workload is required");
  switch (dsp::select_kernel(o.kernel)) {
    case dsp::KernelSelect::kOk:
      break;
    case dsp::KernelSelect::kUnavailable:
      usage("--kernel " + o.kernel + " is not supported on this CPU");
    case dsp::KernelSelect::kUnknown:
      usage("--kernel wants auto|scalar|simd|sse2|avx2|avx512");
  }
  return o;
}

// ------------------------------------------------------------ results

/// 64-bit FNV-1a, fed incrementally.
class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  template <class T>
  void value(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof v);
  }
  [[nodiscard]] std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::string workload;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// One failed operation: an exception, an internal/config decode
  /// error, an invariant violation, a quarantined repeat or a digest
  /// mismatch. FCS losses are simulated outcomes, never failures.
  void fail(std::string why) {
    ++failed;
    problems.push_back(std::move(why));
  }
  /// A check that is an operation of its own (digest comparisons).
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
};

/// Peak resident set of this process image. VmHWM, not getrusage():
/// ru_maxrss survives exec, so it would report a larger parent's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, and how many samples lie strictly beyond
/// its rank.
std::pair<double, std::size_t> percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  return {v[idx], v.size() - idx - 1};
}

// ------------------------------------------------------------ host speed
//
// Shared hosts change speed by up to a third over seconds to minutes:
// other tenants contend for the same cores, and every timing here moves
// with them — a fixed scalar loop slows just as much as the workloads.
// The end-to-end times are therefore reported at a nominal host speed: a
// fixed calibration kernel, which no library code runs, is timed between
// consecutive items, and each item's host time t is scaled by
// kNominalCalibrationS / c, where c is the mean of the two calibration
// times bracketing the item. The raw host times are printed beside them.

/// The calibration kernel's host time at nominal speed (its typical time
/// on the 4-vCPU Xeon guest the bounds were set on).
constexpr double kNominalCalibrationS = 1.5e-3;

volatile double g_calibration_sink = 0.0;

/// A fixed mix of scalar floating point (libm), vectorisable arithmetic
/// and dependent integer table walks; returns its host time.
double calibration_kernel() {
  thread_local std::vector<double> fp(2048, 1.0);
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(8192);
    std::uint32_t x = 2463534242u;
    for (auto& v : t) {
      x ^= x << 13;
      x ^= x >> 17;
      x ^= x << 5;
      v = x;
    }
    return t;
  }();
  const auto t0 = Clock::now();
  double acc = 0.0;
  for (int pass = 0; pass < 24; ++pass) {
    for (double& v : fp) {
      v = v * 0.9999999 + std::sin(v + pass) * 1e-7;
      acc += v;
    }
  }
  std::uint32_t idx = 1;
  for (int i = 0; i < 200000; ++i) {
    idx = table[(idx ^ static_cast<std::uint32_t>(i)) & 8191u] + idx * 3u;
  }
  g_calibration_sink = acc + idx;
  return since(t0);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// The calibration kernel on `threads` threads at once (a workload that
/// runs on two cores sees the speed of both); mean host time.
double calibration_time(int threads) {
  if (threads <= 1) return calibration_kernel();
  std::vector<double> t(static_cast<std::size_t>(threads), 0.0);
  std::vector<std::thread> helpers;
  for (std::size_t i = 1; i < t.size(); ++i) {
    helpers.emplace_back([&t, i] { t[i] = calibration_kernel(); });
  }
  t[0] = calibration_kernel();
  for (std::thread& h : helpers) h.join();
  return sum(t) / static_cast<double>(t.size());
}

/// Item times of one pass: raw, and (when calibrating) at nominal speed.
/// `threads` is how many cores one item keeps busy.
class Timings {
 public:
  explicit Timings(bool calibrate, int threads = 1)
      : calibrate_(calibrate), threads_(threads) {
    if (calibrate_) last_ = calibration_time(threads_);
  }

  void add(double item_s) {
    raw_.push_back(item_s);
    if (!calibrate_) {
      nominal_.push_back(item_s);
      return;
    }
    const double c = calibration_time(threads_);
    const double bracket = 0.5 * (last_ + c);
    calibration_sum_ += bracket;
    nominal_.push_back(item_s * kNominalCalibrationS / bracket);
    last_ = c;
  }

  [[nodiscard]] std::size_t size() const { return raw_.size(); }
  [[nodiscard]] const std::vector<double>& raw() const { return raw_; }
  [[nodiscard]] const std::vector<double>& nominal() const {
    return nominal_;
  }
  /// Mean calibration time over nominal: 1.25 = host 25% slower.
  [[nodiscard]] double slowdown() const {
    return raw_.empty() || !calibrate_
               ? 1.0
               : calibration_sum_ / static_cast<double>(raw_.size()) /
                     kNominalCalibrationS;
  }

 private:
  bool calibrate_;
  int threads_;
  double last_ = 0.0;
  double calibration_sum_ = 0.0;
  std::vector<double> raw_;
  std::vector<double> nominal_;
};

/// Host time per item: p50 always, p90 only when at least ten samples lie
/// beyond it (otherwise it is withheld, never reported as 0).
void add_latency(Report& r, const std::vector<double>& item_s) {
  if (item_s.empty()) return;
  std::printf("latency samples: %zu\n", item_s.size());
  r.add("frame_p50_ms", median(item_s) * 1e3, "ms");
  const auto [p90, beyond] = percentile(item_s, 0.9);
  if (beyond >= 10) {
    r.add("frame_p90_ms", p90 * 1e3, "ms");
  } else {
    std::printf("frame_p90_ms withheld: %zu samples beyond p90 (< 10)\n",
                beyond);
  }
}

/// The end-to-end metrics of an untraced pass that completed `work`
/// units and simulated `sim_s` seconds.
void add_end_to_end(Report& r, const Timings& t, double work, double sim_s) {
  const double busy = sum(t.nominal());
  r.add("frames_per_s", work / busy, "1/s");
  r.add("sim_s_per_wall_s", sim_s / busy, "s/s");
  add_latency(r, t.nominal());
  std::printf("raw host time: frames_per_s %.6g, frame_p50_ms %.6g; "
              "host slowdown %.3f\n",
              work / sum(t.raw()), median(t.raw()) * 1e3, t.slowdown());
}

/// Run `setup` several times and report the median at nominal host speed
/// (the last set-up is the one the measured pass uses).
constexpr int kSetupRepeats = 5;

template <class Setup>
double timed_setups(int threads, Setup&& setup) {
  Timings t(true, threads);
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    setup();
    t.add(since(t0));
  }
  return median(t.nominal());
}

/// Items run until both the time budget and the item minimum are met.
/// A traced pass replays an untraced pass's item count with no time limit.
constexpr double kNoTimeLimit = std::numeric_limits<double>::infinity();

struct PassBudget {
  double seconds;
  std::size_t min_items;
  [[nodiscard]] bool more(std::size_t done, Clock::time_point t0) const {
    return done < min_items || since(t0) < seconds;
  }
};

// Sums of the program's own OBS_SCOPED_TIMER histograms (nanoseconds).
constexpr const char* kStageTimers[] = {
    "phy.ofdm_demodulate", "phy.equalize", "fec.viterbi_decode",
    "carpool.ahdr_test", "phy.ofdm_modulate"};
constexpr std::size_t kNumStages = std::size(kStageTimers);

struct StageSums {
  double seconds[kNumStages] = {};
  std::uint64_t calls[kNumStages] = {};

  static StageSums read(obs::Registry& reg) {
    StageSums s;
    for (std::size_t i = 0; i < kNumStages; ++i) {
      const obs::Histogram& h = reg.latency_histogram(kStageTimers[i]);
      s.seconds[i] = h.sum() * 1e-9;
      s.calls[i] = h.count();
    }
    return s;
  }
  StageSums& operator+=(const StageSums& o) {
    for (std::size_t i = 0; i < kNumStages; ++i) {
      seconds[i] += o.seconds[i];
      calls[i] += o.calls[i];
    }
    return *this;
  }
  [[nodiscard]] StageSums minus(const StageSums& before) const {
    StageSums d;
    for (std::size_t i = 0; i < kNumStages; ++i) {
      d.seconds[i] = seconds[i] - before.seconds[i];
      d.calls[i] = calls[i] - before.calls[i];
    }
    return d;
  }
  [[nodiscard]] double total_s() const {
    double t = 0.0;
    for (const double s : seconds) t += s;
    return t;
  }
};

/// Every per-layer metric, in one table so that each traced workload
/// reports all of them: a layer the workload does not run reads 0.
struct Layers {
  std::map<std::string, std::pair<double, std::string>> values;

  Layers() {
    const std::pair<const char*, const char*> kAll[] = {
        {"trace.items", "count"},
        {"trace.wall_s", "s"},
        {"trace.remainder_s", "s"},
        {"obs.trace_overhead", "ratio"},
        {"carpool.tx_build_s", "s"},
        {"channel.transmit_s", "s"},
        {"channel.samples", "count"},
        {"carpool.rx_s", "s"},
        {"carpool.rx_ms.mcs2", "ms"},
        {"carpool.rx_ms.mcs4", "ms"},
        {"carpool.rx_ms.mcs5", "ms"},
        {"carpool.rx_ms.mcs7", "ms"},
        {"phy.frontend_s", "s"},
        {"phy.ofdm_demodulate_s", "s"},
        {"phy.ofdm_demodulate_calls", "count"},
        {"phy.equalize_s", "s"},
        {"phy.equalize_calls", "count"},
        {"fec.viterbi_decode_s", "s"},
        {"fec.viterbi_decode_calls", "count"},
        {"carpool.ahdr_test_s", "s"},
        {"carpool.ahdr_test_calls", "count"},
        {"phy.ofdm_modulate_s", "s"},
        {"phy.ofdm_modulate_calls", "count"},
        {"phy.rx_unattributed_s", "s"},
        {"carpool.symbols_full", "count"},
        {"carpool.symbols_pilot_only", "count"},
        {"carpool.subframes_walked", "count"},
        {"carpool.rte_updates", "count"},
        {"carpool.fcs_ok_ratio", "ratio"},
        {"chaos.campaign_s", "s"},
        {"chaos.steps", "count"},
        {"chaos.episodes", "count"},
        {"chaos.repeats", "count"},
        {"chaos.probes", "count"},
        {"chaos.step_us", "us"},
        {"chaos.probe_phy_s", "s"},
        {"chaos.overhead_ns_per_judgement", "ns"},
        {"mac.run_s", "s"},
        {"mac.steps", "count"},
        {"mac.phy_model_s", "s"},
        {"mac.phy_model_calls", "count"},
        {"traffic.next_s", "s"},
        {"traffic.next_calls", "count"},
        {"mac.engine_self_s", "s"},
        {"sim.build_s", "s"},
        {"sim.run_s", "s"},
        {"sim.domains", "count"},
        {"sim.handovers", "count"},
        {"par.speedup_2t", "ratio"},
        {"par.domain_imbalance", "ratio"},
    };
    for (const auto& [name, unit] : kAll) values[name] = {0.0, unit};
  }

  void set(const std::string& name, double v) {
    const auto it = values.find(name);
    if (it == values.end()) {
      throw std::logic_error("perfbench: unlisted per-layer metric " + name);
    }
    it->second.first = v;
  }

  /// Stage-timer sums per item into the phy.* / fec.* / carpool.* rows.
  void set_stages(const StageSums& s, double items) {
    for (std::size_t i = 0; i < kNumStages; ++i) {
      const std::string base = kStageTimers[i];
      set(base + "_s", s.seconds[i] / items);
      set(base + "_calls", static_cast<double>(s.calls[i]) / items);
    }
  }

  /// Traced wall per item = the workload's top-level spans + remainder.
  void set_wall(std::size_t items, double wall, double untraced_wall,
                std::initializer_list<const char*> top_level) {
    const double n = static_cast<double>(items);
    double attributed = 0.0;
    for (const char* name : top_level) attributed += values.at(name).first;
    set("trace.items", n);
    set("trace.wall_s", wall / n);
    set("trace.remainder_s", wall / n - attributed);
    set("obs.trace_overhead", wall / untraced_wall - 1.0);
  }

  void emit(Report& r) const {
    for (const auto& [name, v] : values) r.add(name, v.first, v.second);
  }
};

// ------------------------------------------------------------ MAC probes

/// Time spent in, and calls into, the MAC's PHY error model and the
/// traffic generators during one direct mac::Simulator run.
struct MacTally {
  double phy_s = 0.0;
  std::uint64_t phy_calls = 0;
  double next_s = 0.0;
  std::uint64_t next_calls = 0;
  std::uint64_t steps = 0;
  std::uint64_t judged = 0;
};

/// PhyErrorModel decorator: times every judgement the MAC asks for.
class TimedPhy final : public mac::PhyErrorModel {
 public:
  TimedPhy(std::shared_ptr<const mac::PhyErrorModel> inner, MacTally& tally)
      : inner_(std::move(inner)), tally_(&tally) {}

  [[nodiscard]] double subframe_error_prob(
      const mac::SubframeChannelQuery& query) const override {
    const auto t0 = Clock::now();
    const double p = inner_->subframe_error_prob(query);
    tally_->phy_s += since(t0);
    ++tally_->phy_calls;
    return p;
  }
  [[nodiscard]] double control_error_prob(double snr_db) const override {
    const auto t0 = Clock::now();
    const double p = inner_->control_error_prob(snr_db);
    tally_->phy_s += since(t0);
    ++tally_->phy_calls;
    return p;
  }

 private:
  std::shared_ptr<const mac::PhyErrorModel> inner_;
  MacTally* tally_;
};

/// Run one mac::Simulator over `cfg` and `flows`; a counting observer
/// records steps and judgements into `tally`. With `instrument` set, the
/// PHY model and every flow's generator are wrapped in timers too.
/// Returns the run's wall time.
double run_direct_mac(mac::SimConfig cfg, std::vector<mac::FlowSpec> flows,
                      MacTally& tally, bool instrument,
                      mac::SimResult* result = nullptr) {
  if (instrument) {
    std::shared_ptr<const mac::PhyErrorModel> inner =
        cfg.phy ? cfg.phy : std::make_shared<mac::AnalyticPhyModel>();
    cfg.phy = std::make_shared<TimedPhy>(std::move(inner), tally);
    for (mac::FlowSpec& f : flows) {
      f.next = [inner_next = std::move(f.next), &tally](double now,
                                                        Rng& rng) {
        const auto t0 = Clock::now();
        auto next = inner_next(now, rng);
        tally.next_s += since(t0);
        ++tally.next_calls;
        return next;
      };
    }
  }
  std::uint64_t judged = 0;
  cfg.observer = [&tally, &judged](const mac::SimStepView& view) {
    ++tally.steps;
    judged = view.frames_judged;
    return true;
  };
  const auto t0 = Clock::now();
  mac::Simulator sim(std::move(cfg));
  for (mac::FlowSpec& f : flows) sim.add_flow(std::move(f));
  mac::SimResult res = sim.run();
  const double wall = since(t0);
  tally.judged += judged;
  if (result != nullptr) *result = std::move(res);
  return wall;
}

void set_mac_layers(Layers& layers, const MacTally& t, double run_s,
                    double per) {
  layers.set("mac.run_s", run_s / per);
  layers.set("mac.steps", static_cast<double>(t.steps) / per);
  layers.set("mac.phy_model_s", t.phy_s / per);
  layers.set("mac.phy_model_calls", static_cast<double>(t.phy_calls) / per);
  layers.set("traffic.next_s", t.next_s / per);
  layers.set("traffic.next_calls", static_cast<double>(t.next_calls) / per);
  layers.set("mac.engine_self_s", (run_s - t.phy_s - t.next_s) / per);
}

// ------------------------------------------------------------ phy_link

/// Four receivers at the paper's per-receiver MCS mix, each on its own
/// Rician testbed location (Fig. 13/14): the nearest location carries
/// the highest MCS.
constexpr std::size_t kLinkMcs[] = {2, 4, 5, 7};
constexpr std::size_t kLinkLocations[] = {22, 9, 16, 2};
constexpr std::size_t kLinkReceivers = std::size(kLinkMcs);
constexpr std::size_t kLinkPsduBytes = 1500;
constexpr double kLinkPower = 0.2;
/// Frames whose decodes are repeated under the scalar kernel tier.
constexpr std::size_t kScalarCheckFrames = 4;

/// One aggregate's decode outcomes.
struct LinkFrame {
  std::vector<CarpoolRxResult> rx;
  double airtime = 0.0;
};

/// Per-frame spans of a traced phy_link pass.
struct LinkSpans {
  double tx_build = 0.0;
  double transmit = 0.0;
  double rx_total = 0.0;
  double rx[kLinkReceivers] = {};
  double frontend = 0.0;
  std::size_t samples = 0;
  StageSums tx_stages;
  StageSums rx_stages;
};

class PhyLink {
 public:
  explicit PhyLink(std::uint64_t seed)
      : payload_rng_(seed ^ 0x9a1f00d5ULL), gap_rng_(seed ^ 0x6a9d3ULL) {
    const sim::TestbedLayout layout;
    CarpoolRxConfig rxcfg;
    for (std::size_t r = 0; r < kLinkReceivers; ++r) {
      FadingConfig ch =
          layout.channel_config(kLinkLocations[r], kLinkPower, seed);
      ch.rician_los = true;
      ch.rician_k_db = 8.0;
      channels_.emplace_back(ch);
      rxcfg.self = MacAddress::for_station(static_cast<std::uint32_t>(r + 1));
      receivers_.emplace_back(rxcfg);
      subframes_.push_back(SubframeSpec{rxcfg.self, {}, kLinkMcs[r]});
    }
  }

  /// One aggregate: TX build, then each receiver's channel and decode,
  /// then a seeded idle gap (DIFS + backoff) on every channel. Returns
  /// the host time of that work; payload generation is not timed.
  double frame(LinkFrame& out, LinkSpans* spans) {
    for (SubframeSpec& s : subframes_) {
      Bytes body(kLinkPsduBytes - 4);
      for (auto& b : body) {
        b = static_cast<std::uint8_t>(payload_rng_.uniform_int(256));
      }
      s.psdu = append_fcs(body);
    }
    obs::Registry& reg = obs::Registry::current();
    out.rx.resize(kLinkReceivers);
    const auto t0 = Clock::now();
    if (spans == nullptr) {
      const CxVec wave = tx_.build(subframes_);
      for (std::size_t r = 0; r < kLinkReceivers; ++r) {
        out.rx[r] = receivers_[r].receive(channels_[r].transmit(wave));
      }
    } else {
      StageSums s0 = StageSums::read(reg);
      auto t = Clock::now();
      const CxVec wave = tx_.build(subframes_);
      spans->tx_build += since(t);
      StageSums s1 = StageSums::read(reg);
      spans->tx_stages += s1.minus(s0);
      for (std::size_t r = 0; r < kLinkReceivers; ++r) {
        t = Clock::now();
        const CxVec rx_wave = channels_[r].transmit(wave);
        spans->transmit += since(t);
        spans->samples += rx_wave.size();
        s0 = StageSums::read(reg);
        t = Clock::now();
        out.rx[r] = receivers_[r].receive(rx_wave);
        const double rx_s = since(t);
        s1 = StageSums::read(reg);
        spans->rx[r] += rx_s;
        spans->rx_total += rx_s;
        spans->rx_stages += s1.minus(s0);
        // The front end has no timer of its own: replay it on the same
        // received waveform.
        t = Clock::now();
        static_cast<void>(receive_frontend(rx_wave));
        spans->frontend += since(t);
      }
    }
    for (FadingChannel& ch : channels_) {
      ch.idle(34e-6 + 9e-6 * static_cast<double>(gap_rng_.uniform_int(16)));
    }
    const double host = since(t0);
    out.airtime = CarpoolTransmitter::frame_airtime(subframes_);
    return host;
  }

 private:
  CarpoolTransmitter tx_;
  std::vector<CarpoolReceiver> receivers_;
  std::vector<FadingChannel> channels_;
  std::vector<SubframeSpec> subframes_;
  Rng payload_rng_;
  Rng gap_rng_;
};

/// Decode counts of a fixed frame prefix; they must not move when only
/// speed changes.
struct LinkCounts {
  std::size_t frames = 0;
  std::size_t symbols_full = 0;
  std::size_t symbols_pilot_only = 0;
  std::size_t subframes_walked = 0;
  std::size_t rte_updates = 0;
  std::size_t subframes = 0;
  std::size_t fcs_ok = 0;

  void add(const LinkFrame& f) {
    ++frames;
    for (const CarpoolRxResult& rx : f.rx) {
      symbols_full += rx.symbols_full_decoded;
      symbols_pilot_only += rx.symbols_pilot_only;
      subframes_walked += rx.subframes_walked;
      for (const DecodedSubframe& sub : rx.subframes) {
        rte_updates += sub.rte_updates;
        ++subframes;
        fcs_ok += sub.fcs_ok ? 1 : 0;
      }
    }
  }
};

/// Digest over each reception's status and each decoded subframe's
/// index, status, FCS verdict and PSDU.
void digest_frame(const LinkFrame& f, Fnv& h) {
  for (const CarpoolRxResult& rx : f.rx) {
    h.value(rx.status);
    for (const DecodedSubframe& sub : rx.subframes) {
      h.value(sub.index);
      h.value(sub.status);
      h.value(sub.fcs_ok);
      h.value(sub.psdu.size());
      h.bytes(sub.psdu.data(), sub.psdu.size());
    }
  }
}

/// One aggregate is one operation; it fails when any receiver reports an
/// internal or configuration error.
void account_frame(const LinkFrame& f, Report& r) {
  ++r.attempted;
  for (const CarpoolRxResult& rx : f.rx) {
    if (rx.status == DecodeStatus::kInternalError ||
        rx.status == DecodeStatus::kBadConfig) {
      r.fail("receive: " + std::string(to_string(rx.status)));
      return;
    }
  }
}

/// The digest of the first `frames` aggregates of a fresh link.
std::uint64_t link_prefix_digest(std::uint64_t seed, std::size_t frames) {
  PhyLink link(seed);
  LinkFrame f;
  Fnv h;
  for (std::size_t i = 0; i < frames; ++i) {
    link.frame(f, nullptr);
    digest_frame(f, h);
  }
  return h.digest();
}

Report run_phy_link(const Options& o) {
  Report r;
  std::optional<PhyLink> link;
  LinkFrame f;
  const double setup_s = timed_setups(1, [&] {
    link.emplace(o.seed);
    link->frame(f, nullptr);  // warm-up: lazy tables are built here
  });

  const std::size_t head_frames = std::min(kScalarCheckFrames, o.min_items);

  // Measured pass over a fresh link (the warm-up frame is not part of
  // the deterministic stream). Decode counts and the digest cover the
  // first min_items frames, so they do not depend on the host's speed.
  std::uint64_t head_digest = 0;
  LinkCounts counts;
  auto pass = [&](double seconds, std::size_t max_items, LinkSpans* spans,
                  Timings& timings) {
    link.emplace(o.seed);
    Fnv h;
    Fnv head;
    LinkCounts prefix;
    const PassBudget budget{seconds, o.min_items};
    const auto t0 = Clock::now();
    double airtime = 0.0;
    for (std::size_t i = 0; i < max_items && budget.more(i, t0); ++i) {
      timings.add(link->frame(f, spans));
      airtime += f.airtime;
      account_frame(f, r);
      if (i < head_frames) {
        digest_frame(f, head);
        if (i + 1 == head_frames) head_digest = head.digest();
      }
      if (i < o.min_items) {
        digest_frame(f, h);
        prefix.add(f);
        if (i + 1 == o.min_items) r.digest = h.digest();
      }
    }
    counts = prefix;
    return std::pair{since(t0), airtime};
  };

  if (!o.trace) {
    Timings timings(true);
    const double airtime = pass(o.seconds, SIZE_MAX, nullptr, timings).second;
    add_end_to_end(r, timings, static_cast<double>(timings.size()), airtime);
  } else {
    Timings untraced(false);
    const double untraced_wall =
        pass(o.seconds / 2, SIZE_MAX, nullptr, untraced).first;
    const std::size_t items = untraced.size();
    const std::uint64_t untraced_digest = r.digest;
    LinkSpans spans;
    Timings traced(false);
    const double wall = pass(kNoTimeLimit, items, &spans, traced).first;
    r.check(traced.size() == items, "traced pass item count differs");
    r.check(r.digest == untraced_digest, "traced pass digest differs");

    Layers L;
    const double n = static_cast<double>(items);
    L.set("carpool.tx_build_s", spans.tx_build / n);
    L.set("channel.transmit_s", spans.transmit / n);
    L.set("carpool.rx_s", spans.rx_total / n);
    for (std::size_t i = 0; i < kLinkReceivers; ++i) {
      L.set("carpool.rx_ms.mcs" + std::to_string(kLinkMcs[i]),
            spans.rx[i] / n * 1e3);
    }
    L.set("phy.frontend_s", spans.frontend / n);
    StageSums stages = spans.rx_stages;
    stages += spans.tx_stages;
    L.set_stages(stages, n);
    L.set("phy.rx_unattributed_s",
          (spans.rx_total - spans.frontend - spans.rx_stages.total_s()) / n);
    const double frames = static_cast<double>(counts.frames);
    L.set("channel.samples", static_cast<double>(spans.samples) / n);
    L.set("carpool.symbols_full", counts.symbols_full / frames);
    L.set("carpool.symbols_pilot_only", counts.symbols_pilot_only / frames);
    L.set("carpool.subframes_walked", counts.subframes_walked / frames);
    L.set("carpool.rte_updates", counts.rte_updates / frames);
    L.set("carpool.fcs_ok_ratio",
          counts.subframes ? static_cast<double>(counts.fcs_ok) /
                                 static_cast<double>(counts.subframes)
                           : 0.0);
    L.set_wall(items, wall, untraced_wall,
               {"carpool.tx_build_s", "channel.transmit_s", "carpool.rx_s",
                "phy.frontend_s"});
    L.emit(r);
  }

  // The same first frames decoded under the scalar kernel tier must give
  // the same receptions (the bit-identity contract across tiers).
  {
    const dsp::ScopedKernel scalar(dsp::scalar_backend());
    r.check(link_prefix_digest(o.seed, head_frames) == head_digest,
            "scalar-kernel re-decode differs");
  }
  if (!o.trace) r.add("setup_s", setup_s, "s");
  return r;
}

// ------------------------------------------------------------ campaigns

/// Reception-judgement budget of one campaign: about two passes over the
/// steady timeline and one over the interference ladder, so each run
/// holds well over a hundred campaigns.
constexpr std::uint64_t kSteadyBudget = 40000;
constexpr std::uint64_t kProbedBudget = 24000;

struct Campaign {
  chaos::Scenario scenario;
  chaos::SoakRunner runner;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Campaign make_campaign(const std::string& path, std::uint64_t budget,
                       std::uint64_t seed) {
  chaos::ScenarioParseResult parsed =
      chaos::scenario_from_json(read_file(path));
  if (!parsed.ok()) {
    throw std::runtime_error(path + ": " + parsed.error.to_string());
  }
  chaos::Scenario s = std::move(*parsed.scenario);
  s.seed = chaos::derive_seed(s.seed, seed, 0x5eedULL);
  chaos::SoakOptions opts;
  opts.max_frames = budget;
  opts.threads = 1;
  return Campaign{std::move(s), chaos::SoakRunner(std::move(opts))};
}

struct CampaignItem {
  chaos::SoakReport report;
  std::uint64_t digest = 0;
  double wall = 0.0;
  StageSums stages;
};

/// One campaign in a registry of its own, so its metrics fingerprint
/// does not depend on what else ran in the process.
CampaignItem run_campaign(const Campaign& c) {
  obs::Registry reg;
  const obs::Registry::ScopedCurrent scope(reg);
  CampaignItem item;
  const auto t0 = Clock::now();
  item.report = c.runner.run(c.scenario);
  item.wall = since(t0);
  const chaos::SoakReport& rep = item.report;
  Fnv h;
  h.value(reg.fingerprint());
  h.value(rep.frames_judged);
  h.value(rep.steps);
  h.value(rep.probes);
  h.value(rep.episodes_run);
  h.value(rep.repeats);
  h.value(rep.sim_seconds);
  h.value(rep.violations.size());
  item.digest = h.digest();
  item.stages = StageSums::read(reg);
  return item;
}

void account_campaign(const CampaignItem& item, std::uint64_t first_digest,
                      Report& r) {
  ++r.attempted;
  for (const chaos::Violation& v : item.report.violations) {
    r.fail("invariant " + v.invariant + " at frame " +
           std::to_string(v.frame) + ": " + v.detail);
  }
  for (std::size_t i = 0; i < item.report.degraded.quarantined.size(); ++i) {
    r.fail("quarantined repeat");
  }
  if (item.digest != first_digest) r.fail("campaign digest differs");
}

/// The scenario's base parameters as one direct mac::Simulator run: no
/// invariants, no probes, no interference — the MAC engine on its own.
std::pair<mac::SimConfig, std::vector<mac::FlowSpec>> direct_mac_inputs(
    const chaos::Scenario& s, std::uint64_t seed) {
  mac::SimConfig cfg;
  cfg.scheme = s.scheme;
  cfg.duration = s.duration;
  cfg.link_policy = s.link_policy;
  cfg.default_snr_db = s.default_snr_db;
  cfg.num_stas = s.num_stas;
  cfg.seed = seed;
  std::vector<mac::FlowSpec> flows;
  if (s.traffic.empty() || s.traffic.front().kind != chaos::TrafficKind::kCbr) {
    throw std::runtime_error("direct MAC run expects a CBR traffic phase");
  }
  const chaos::TrafficPhase& p = s.traffic.front();
  for (mac::NodeId sta = 1; sta <= s.num_stas; ++sta) {
    flows.push_back(traffic::make_cbr_flow(sta, p.frame_bytes, p.interval));
  }
  return {std::move(cfg), std::move(flows)};
}

Report run_campaign_workload(const Options& o, const std::string& path,
                             std::uint64_t budget) {
  Report r;
  std::optional<Campaign> campaign;
  const double setup_s = timed_setups(1, [&] {
    campaign.emplace(make_campaign(path, budget, o.seed));
    // Warm-up: a short campaign builds the lazy tables before timing.
    Campaign warm = make_campaign(path, 2000, o.seed);
    static_cast<void>(run_campaign(warm));
  });

  std::uint64_t judged = 0;
  double sim_s = 0.0;
  auto pass = [&](double seconds, std::size_t max_items, Timings& timings,
                  std::vector<CampaignItem>* keep) {
    judged = 0;
    sim_s = 0.0;
    const PassBudget budget_{seconds, o.min_items};
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < max_items && budget_.more(i, t0); ++i) {
      CampaignItem item = run_campaign(*campaign);
      if (r.digest == 0) r.digest = item.digest;
      account_campaign(item, r.digest, r);
      timings.add(item.wall);
      judged += item.report.frames_judged;
      sim_s += item.report.sim_seconds;
      if (keep != nullptr) keep->push_back(std::move(item));
    }
    return since(t0);
  };

  if (!o.trace) {
    Timings timings(true);
    pass(o.seconds, SIZE_MAX, timings, nullptr);
    add_end_to_end(r, timings, static_cast<double>(judged), sim_s);
  } else {
    Timings untraced(false);
    const double untraced_wall =
        pass(o.seconds / 2, SIZE_MAX, untraced, nullptr);
    const std::size_t items = untraced.size();
    const double untraced_ns_per_judgement =
        sum(untraced.raw()) * 1e9 / static_cast<double>(judged);
    std::vector<CampaignItem> traced;
    Timings traced_timings(false);
    const double wall = pass(kNoTimeLimit, items, traced_timings, &traced);
    r.check(traced.size() == items, "traced pass item count differs");

    Layers L;
    const double n = static_cast<double>(items);
    double campaign_s = 0.0;
    StageSums stages;
    for (const CampaignItem& c : traced) {
      campaign_s += c.wall;
      stages += c.stages;
    }
    const chaos::SoakReport& rep = traced.front().report;
    L.set("chaos.campaign_s", campaign_s / n);
    L.set("chaos.steps", static_cast<double>(rep.steps));
    L.set("chaos.episodes", static_cast<double>(rep.episodes_run));
    L.set("chaos.repeats", static_cast<double>(rep.repeats));
    L.set("chaos.probes", static_cast<double>(rep.probes));
    L.set("chaos.step_us",
          campaign_s / n / static_cast<double>(rep.steps) * 1e6);
    L.set("chaos.probe_phy_s", stages.total_s() / n);
    L.set_stages(stages, n);

    // The MAC engine without the campaign around it: bare runs for the
    // per-judgement overhead, instrumented runs for the MAC layers.
    constexpr int kMacRuns = 5;
    std::vector<double> bare_ns;
    MacTally tally;
    double mac_s = 0.0;
    for (int i = 0; i < kMacRuns; ++i) {
      const std::uint64_t seed = chaos::derive_seed(o.seed, i, 0x3acULL);
      auto [cfg, flows] = direct_mac_inputs(campaign->scenario, seed);
      MacTally bare;
      const double w = run_direct_mac(cfg, std::move(flows), bare, false);
      bare_ns.push_back(w * 1e9 / static_cast<double>(bare.judged));
      std::tie(cfg, flows) = direct_mac_inputs(campaign->scenario, seed);
      mac_s += run_direct_mac(std::move(cfg), std::move(flows), tally, true);
    }
    set_mac_layers(L, tally, mac_s, kMacRuns);
    L.set("chaos.overhead_ns_per_judgement",
          untraced_ns_per_judgement - median(bare_ns));
    L.set_wall(items, wall, untraced_wall, {"chaos.campaign_s"});
    L.emit(r);
  }
  if (!o.trace) r.add("setup_s", setup_s, "s");
  return r;
}

// ------------------------------------------------------------ multi_bss

constexpr std::size_t kBssAps = 16;
constexpr std::size_t kBssStas = 64;
constexpr std::size_t kBssWalkers = 8;
constexpr double kBssDuration = 4.0;  ///< campus seconds per run
constexpr int kBssThreads = 2;

/// The campus campaign: 16 APs on 3-channel reuse, 64 STAs, and walkers
/// crossing between APs so handovers cut epochs. The walkers are part of
/// the fixed campus (so every seed does the same amount of work); the
/// seed drives the MAC's random streams.
sim::MultiBssConfig multi_bss_config(std::uint64_t seed, int threads) {
  sim::MultiBssConfig cfg;
  cfg.topology.ap_count = kBssAps;
  cfg.topology.channel_count = 3;
  cfg.topology.roam_interval = 0.05;
  cfg.num_stas = kBssStas;
  cfg.duration = kBssDuration;
  cfg.seed = seed;
  cfg.threads = threads;
  const sim::Topology topo(cfg.topology, cfg.power_magnitude,
                           cfg.layout_seed);
  Rng rng(0xb55ULL);
  cfg.paths.resize(cfg.num_stas + 1);
  for (std::size_t w = 0; w < kBssWalkers; ++w) {
    const std::size_t sta = 1 + rng.uniform_int(cfg.num_stas);
    const sim::Point a = topo.ap_position(rng.uniform_int(kBssAps));
    const sim::Point b = topo.ap_position(rng.uniform_int(kBssAps));
    std::vector<sim::TimedPoint> wp{{0.0, {a.x + 1.0, a.y + 1.0}},
                                    {kBssDuration, {b.x + 1.0, b.y + 1.0}}};
    cfg.paths[sta] = sim::MobilityPath(std::move(wp));
  }
  return cfg;
}

struct BssItem {
  sim::MultiBssResult result;
  std::uint64_t digest = 0;
  std::uint64_t frames_resolved = 0;
  double wall = 0.0;
};

BssItem run_bss(sim::MultiBssSim& sim) {
  obs::Registry reg;
  const obs::Registry::ScopedCurrent scope(reg);
  BssItem item;
  const auto t0 = Clock::now();
  item.result = sim.run();
  item.wall = since(t0);
  const sim::MultiBssResult& res = item.result;
  Fnv h;
  h.value(reg.fingerprint());
  for (const sim::DomainRun& run : res.runs) {
    const mac::SimResult& s = run.result;
    item.frames_resolved += s.dl_frames_delivered + s.dl_frames_dropped +
                            s.ul_frames_delivered + s.ul_frames_dropped;
  }
  h.value(item.frames_resolved);
  h.value(res.dl_frames_delivered);
  h.value(res.dl_frames_dropped);
  h.value(res.collisions);
  h.value(res.domains_simulated);
  h.value(res.domains_idle);
  h.value(res.handovers.size());
  h.value(res.aggregate_goodput_bps);
  item.digest = h.digest();
  return item;
}

Report run_multi_bss(const Options& o) {
  Report r;
  std::optional<sim::MultiBssSim> sim;
  std::vector<double> build_s;
  const double setup_s = timed_setups(kBssThreads, [&] {
    const auto t0 = Clock::now();
    sim.emplace(multi_bss_config(o.seed, kBssThreads));
    build_s.push_back(since(t0));
    static_cast<void>(run_bss(*sim));  // warm-up
  });

  std::uint64_t frames = 0;
  auto pass = [&](double seconds, std::size_t max_items, Timings& timings,
                  std::vector<BssItem>* keep) {
    frames = 0;
    const PassBudget budget{seconds, o.min_items};
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < max_items && budget.more(i, t0); ++i) {
      BssItem item = run_bss(*sim);
      if (r.digest == 0) r.digest = item.digest;
      ++r.attempted;
      if (item.digest != r.digest) r.fail("multi-BSS digest differs");
      timings.add(item.wall);
      frames += item.frames_resolved;
      if (keep != nullptr) keep->push_back(std::move(item));
    }
    return since(t0);
  };

  if (!o.trace) {
    Timings timings(true, kBssThreads);
    pass(o.seconds, SIZE_MAX, timings, nullptr);
    add_end_to_end(r, timings, static_cast<double>(frames),
                   kBssDuration * static_cast<double>(timings.size()));
  } else {
    Timings untraced(false);
    const double untraced_wall =
        pass(o.seconds / 2, SIZE_MAX, untraced, nullptr);
    const std::size_t items = untraced.size();
    std::vector<BssItem> traced;
    Timings traced_timings(false);
    const double wall = pass(kNoTimeLimit, items, traced_timings, &traced);
    r.check(traced.size() == items, "traced pass item count differs");
    const double run_s = sum(traced_timings.raw());
    const double n = static_cast<double>(items);
    const double two_thread_s = median(untraced.raw());

    // Same campaign on one thread: identical result, and the 2-thread
    // speed-up.
    sim::MultiBssSim serial(multi_bss_config(o.seed, 1));
    std::vector<double> serial_s;
    for (int i = 0; i < 3; ++i) {
      const BssItem one = run_bss(serial);
      r.check(one.digest == r.digest, "multi-BSS differs at 1 thread");
      serial_s.push_back(one.wall);
    }

    // Every (epoch, AP) domain replayed as a plain mac::Simulator: bare
    // for the per-domain imbalance, instrumented for the MAC layers.
    const sim::MultiBssResult& res = traced.front().result;
    std::vector<double> domain_s;
    MacTally tally;
    double mac_s = 0.0;
    bool replay_matches = true;
    for (const sim::DomainRun& run : res.runs) {
      if (run.stas.empty()) continue;
      const mac::SimConfig cfg =
          sim->domain_config(run.epoch, run.ap, run.start, run.stop, run.stas);
      auto flows = [&] {
        std::vector<mac::FlowSpec> f;
        for (std::size_t local = 1; local <= run.stas.size(); ++local) {
          f.push_back(traffic::make_cbr_flow(
              static_cast<mac::NodeId>(local), sim->config().frame_bytes,
              sim->config().cbr_interval));
        }
        return f;
      };
      obs::Registry scratch;
      const obs::Registry::ScopedCurrent scope(scratch);
      mac::SimResult replay;
      MacTally bare;
      domain_s.push_back(run_direct_mac(cfg, flows(), bare, false, &replay));
      replay_matches = replay_matches &&
                       replay.dl_frames_delivered ==
                           run.result.dl_frames_delivered &&
                       replay.ul_frames_delivered ==
                           run.result.ul_frames_delivered;
      mac_s += run_direct_mac(cfg, flows(), tally, true);
    }
    r.check(replay_matches, "domain replay differs from the campaign");
    double domain_mean = 0.0;
    for (const double s : domain_s) domain_mean += s;
    domain_mean /= static_cast<double>(domain_s.size());

    Layers L;
    L.set("sim.build_s", median(build_s));
    L.set("sim.run_s", run_s / n);
    L.set("sim.domains", static_cast<double>(res.domains_simulated));
    L.set("sim.handovers", static_cast<double>(res.handovers.size()));
    L.set("par.speedup_2t", median(serial_s) / two_thread_s);
    L.set("par.domain_imbalance",
          *std::max_element(domain_s.begin(), domain_s.end()) / domain_mean);
    set_mac_layers(L, tally, mac_s, 1.0);
    L.set_wall(items, wall, untraced_wall, {"sim.run_s"});
    L.emit(r);
  }
  if (!o.trace) r.add("setup_s", setup_s, "s");
  return r;
}

// ------------------------------------------------------------ driver

/// Pin the process to the last `n` CPUs it was started with, so that the
/// calibration kernel runs on the cores the workload's threads run on.
/// Threads inherit the mask, including the `par` pool's. Left unpinned
/// when the mask cannot be read or set.
void pin_to_cpus(std::size_t n) {
  static const std::optional<cpu_set_t> started_with = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    return sched_getaffinity(0, sizeof set, &set) == 0
               ? std::optional<cpu_set_t>(set)
               : std::nullopt;
  }();
  if (!started_with) return;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && n > 0; --cpu) {
    if (CPU_ISSET(cpu, &*started_with)) {
      CPU_SET(cpu, &pinned);
      --n;
    }
  }
  if (sched_setaffinity(0, sizeof pinned, &pinned) != 0) {
    std::printf("note: could not pin to CPUs; running unpinned\n");
  }
}

Report run_workload(const Options& o, const std::string& name) {
  pin_to_cpus(name == "multi_bss" ? kBssThreads : 1);
  if (name == "phy_link") return run_phy_link(o);
  if (name == "campaign_steady") {
    return run_campaign_workload(o, "scenarios/steady.json", kSteadyBudget);
  }
  if (name == "campaign_probed") {
    return run_campaign_workload(o, "scenarios/interference_ladder.json",
                                 kProbedBudget);
  }
  return run_multi_bss(o);
}

void print_report(const Options& o, Report& r) {
  if (!o.trace) r.add("peak_rss_mb", peak_rss_mb(), "MB");
  for (Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) {
      r.fail("non-finite metric " + m.name);
      m.value = 0.0;
    }
  }
  const bool correct = r.failed == 0;
  std::printf("workload: %s  seed %" PRIu64 "  trace %d\n", r.workload.c_str(),
              o.seed, o.trace ? 1 : 0);
  std::printf("kernel: %s\n", dsp::kernel_info().c_str());
  std::printf("digest: 0x%016" PRIx64 "\n", r.digest);
  std::printf("ops: attempted %" PRIu64 " failed %" PRIu64 "\n", r.attempted,
              r.failed);
  for (const std::string& p : r.problems) {
    std::printf("FAILED: %s\n", p.c_str());
  }
  for (const Metric& m : r.metrics) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  std::vector<std::string> names;
  if (o.workload == "all") {
    names.assign(std::begin(kWorkloads), std::end(kWorkloads));
  } else {
    names.push_back(o.workload);
  }
  bool all_correct = true;
  for (const std::string& name : names) {
    Report r;
    try {
      r = run_workload(o, name);
    } catch (const std::exception& e) {
      r = Report{};
      r.attempted = 1;
      r.fail(std::string("exception: ") + e.what());
    }
    r.workload = name;
    print_report(o, r);
    all_correct = all_correct && r.failed == 0;
  }
  return all_correct ? 0 : 1;
}
