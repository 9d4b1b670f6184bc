// Robustness sweep: impairment intensity vs Carpool goodput, plus a
// decode-status matrix for crafted faults. The point is the *shape*:
// goodput must degrade gracefully (monotone, no cliff) as interference
// intensity rises, and every engineered fault must map to its structured
// DecodeStatus instead of an exception or a silent empty result.

// The intensity rungs fan across carpool::par workers (--threads N /
// CARPOOL_THREADS, docs/PARALLELISM.md): each rung owns its impairment
// chain and a shard-local metric scope, and rows/gauges land in ladder
// order, so output and metrics are identical at any thread count. The
// crafted-fault decode-status matrix stays serial — it is microseconds
// of work and its point is exact sequential storytelling.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench_util.hpp"
#include "impair/impair.hpp"
#include "par/par.hpp"

namespace carpool::bench {
namespace {

std::size_t g_threads = 1;

/// One rung of the interference ladder: Gilbert-Elliott burst power/duty
/// plus an impulsive-noise rate, all rising together.
struct Intensity {
  const char* label;
  double ge_power;       ///< bad-state interference power (unit signal)
  double p_good_to_bad;  ///< burst entry probability per symbol
  double impulse_prob;   ///< per-sample impulse probability
};

constexpr Intensity kLadder[] = {
    {"0 (clean)", 0.0, 0.0, 0.0},
    {"1", 0.05, 0.04, 2e-4},
    {"2", 0.15, 0.08, 5e-4},
    {"3", 0.40, 0.12, 1e-3},
    {"4", 1.00, 0.16, 2e-3},
    {"5", 2.50, 0.20, 4e-3},
};

std::vector<SubframeSpec> make_frame(Rng& rng) {
  std::vector<SubframeSpec> subframes;
  for (std::size_t i = 0; i < 3; ++i) {
    SubframeSpec spec;
    spec.receiver = MacAddress{{0x02, 0x00, 0x00, 0x00, 0x00,
                                static_cast<std::uint8_t>(0x10 + i)}};
    spec.psdu = append_fcs(random_psdu(200, rng));
    spec.mcs_index = 2;  // QPSK 1/2
    subframes.push_back(std::move(spec));
  }
  return subframes;
}

impair::ImpairmentChain make_chain(const Intensity& level,
                                   std::uint64_t seed) {
  impair::ImpairmentChain chain(seed);
  if (level.ge_power > 0.0) {
    chain.add(impair::make_gilbert_elliott(
        {.p_good_to_bad = level.p_good_to_bad,
         .p_bad_to_good = 0.3,
         .bad_noise_power = level.ge_power,
         .period_samples = kSymbolLen}));
  }
  if (level.impulse_prob > 0.0) {
    chain.add(impair::make_impulsive_noise(
        {.impulse_prob = level.impulse_prob, .impulse_power = 40.0}));
  }
  return chain;
}

int run(int argc, char** argv) {
  g_threads = par::resolve_threads();  // CARPOOL_THREADS or serial
  parse_flags(argc, argv, {threads_flag(g_threads), kernel_flag()});
  banner("Robustness", "goodput vs impairment intensity",
         "not in the paper — graceful-degradation acceptance sweep for the "
         "fault-injection harness (docs/ROBUSTNESS.md)");

  Rng payload_rng(7);
  const std::vector<SubframeSpec> subframes = make_frame(payload_rng);
  const CarpoolTransmitter tx({SymbolCrcScheme{}});
  const CxVec tx_wave = tx.build(subframes);

  std::vector<CarpoolReceiver> receivers;
  for (const SubframeSpec& spec : subframes) {
    CarpoolRxConfig rxcfg;
    rxcfg.self = spec.receiver;
    receivers.emplace_back(rxcfg);
  }

  constexpr std::size_t kFrames = 80;
  std::printf("\n%-10s %10s %10s %8s %8s %8s %8s\n", "intensity",
              "goodput", "frac", "fcs", "trunc", "sig", "sync");
  std::printf("%-10s %10s %10s %8s %8s %8s %8s\n", "", "(frac ok)",
              "delta", "fail", "", "corrupt", "lost");

  // Each rung is an independent job: its own impairment chain, shared
  // read-only tx_wave and (stateless) receivers, shard-local metrics.
  struct RungResult {
    double frac = 0.0;
    std::map<DecodeStatus, std::uint64_t> frame_status;
  };
  const auto rungs = par::run_sharded(
      std::size(kLadder), g_threads, [&](const par::ShardInfo& info) {
        const Intensity& level = kLadder[info.index];
        impair::ImpairmentChain chain = make_chain(level, 42);
        std::uint64_t delivered = 0;
        std::uint64_t offered = 0;  // every receiver is offered its subframe
        RungResult out;
        for (std::size_t f = 0; f < kFrames; ++f) {
          // Same channel realisation at every intensity (paired sweep):
          // only the injected impairment differs between rungs.
          FadingConfig ch;
          ch.snr_db = 25.0;
          ch.coherence_time = 5e-3;
          ch.seed = 10007 * f + 1;
          FadingChannel channel(ch);
          const CxVec rx_wave = chain.run(channel.transmit(tx_wave));
          for (std::size_t r = 0; r < receivers.size(); ++r) {
            const CarpoolRxResult result = receivers[r].receive(rx_wave);
            ++out.frame_status[result.status];
            offered += subframes[r].psdu.size();
            for (const DecodedSubframe& sub : result.subframes) {
              if (sub.index == r && sub.fcs_ok) {
                delivered += subframes[r].psdu.size();
              }
            }
          }
        }
        out.frac = offered == 0 ? 0.0
                                : static_cast<double>(delivered) /
                                      static_cast<double>(offered);
        return out;
      });

  std::vector<double> fracs;
  for (std::size_t li = 0; li < rungs.size(); ++li) {
    RungResult rung = rungs[li];
    fracs.push_back(rung.frac);
    std::printf("%-10s %10.3f %+10.3f %8llu %8llu %8llu %8llu\n",
                kLadder[li].label, rung.frac,
                li == 0 ? 0.0 : rung.frac - fracs[li - 1],
                static_cast<unsigned long long>(
                    rung.frame_status[DecodeStatus::kFcsFail]),
                static_cast<unsigned long long>(
                    rung.frame_status[DecodeStatus::kTruncated]),
                static_cast<unsigned long long>(
                    rung.frame_status[DecodeStatus::kSigCorrupt]),
                static_cast<unsigned long long>(
                    rung.frame_status[DecodeStatus::kSyncLost]));
    gauge("robustness.goodput_frac.intensity_" + std::to_string(li),
          rung.frac);
  }

  // Graceful degradation check: monotone non-increasing within a small
  // sampling tolerance, and no single-step cliff from "fine" to "dead".
  bool monotone = true;
  bool cliff = false;
  for (std::size_t i = 1; i < fracs.size(); ++i) {
    if (fracs[i] > fracs[i - 1] + 0.02) monotone = false;
    if (fracs[i - 1] > 0.8 && fracs[i] < 0.1) cliff = true;
  }
  gauge("robustness.monotone", monotone ? 1.0 : 0.0);
  gauge("robustness.no_cliff", cliff ? 0.0 : 1.0);
  std::printf("\ndegradation: %s, %s\n",
              monotone ? "monotone" : "NON-MONOTONE",
              cliff ? "CLIFF DETECTED" : "no cliff");

  // ---- decode-status matrix: one crafted fault per structured error ----
  std::printf("\n%-22s %-14s %-14s\n", "fault", "expected", "observed");
  struct Case {
    const char* fault;
    DecodeStatus expected;
    DecodeStatus observed;
  };
  std::vector<Case> cases;
  auto impaired = [&](impair::ImpairmentChain&& c) {
    return c.run(tx_wave);
  };
  {
    impair::ImpairmentChain c(1);
    c.add(impair::make_truncation({.keep_samples = kPreambleLen / 2}));
    cases.push_back({"truncated capture", DecodeStatus::kTruncated,
                     receivers[0].receive(impaired(std::move(c))).status});
  }
  {
    impair::ImpairmentChain c(1);
    c.add(impair::make_sample_erasure(
        {.start_sample = 0, .num_samples = kPreambleLen}));
    cases.push_back({"erased preamble", DecodeStatus::kSyncLost,
                     receivers[0].receive(impaired(std::move(c))).status});
  }
  {
    impair::ImpairmentChain c(1);
    c.add(impair::make_header_corruption(
        {.symbol_index = 2, .flip_bins = 20}));
    cases.push_back({"corrupted SIG", DecodeStatus::kSigCorrupt,
                     receivers[0].receive(impaired(std::move(c))).status});
  }
  {
    CarpoolRxConfig other;
    other.self = MacAddress{{0x02, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE}};
    const CarpoolReceiver rx(other);
    cases.push_back(
        {"not my frame", DecodeStatus::kAhdrMiss, rx.receive(tx_wave).status});
  }
  bool all_match = true;
  for (const Case& c : cases) {
    const bool match = c.expected == c.observed;
    all_match = all_match && match;
    std::printf("%-22s %-14s %-14s%s\n", c.fault,
                std::string(to_string(c.expected)).c_str(),
                std::string(to_string(c.observed)).c_str(),
                match ? "" : "  <-- MISMATCH");
  }
  gauge("robustness.status_matrix_ok", all_match ? 1.0 : 0.0);

  write_metrics("robustness");
  return monotone && !cliff && all_match ? 0 : 1;
}

}  // namespace
}  // namespace carpool::bench

int main(int argc, char** argv) { return carpool::bench::run(argc, argv); }
