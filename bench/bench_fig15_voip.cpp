// Fig. 15 — Goodput and latency for VoIP traffic vs number of STAs, for
// Carpool / MU-Aggregation / A-MPDU / 802.11 / WiFox.
//
// Paper (65 Mbit/s PHY, 96 kbit/s VoIP, 10-30 STAs): Carpool's goodput
// keeps rising linearly while A-MPDU tapers from ~2 to ~1 Mbit/s and
// 802.11 collapses from 0.55 to 0.18 Mbit/s; Carpool's latency stays near
// zero while others grow towards ~1.4 s. MU-Aggregation trails A-MPDU
// because long multi-receiver frames are unreliable without RTE.
//
// Our MAC overhead per frame is smaller than the authors' testbed stack,
// which shifts the congestion knee from ~20 to ~28 STAs; we sweep to 58
// so every crossover is visible, including Carpool overtaking WiFox once
// WiFox hits its one-frame-per-TXOP capacity (see EXPERIMENTS.md).

#include <cstdio>

#include "bench_util.hpp"
#include "mac/simulator.hpp"
#include "traffic/generators.hpp"

using namespace carpool;
using namespace carpool::mac;

int main(int argc, char** argv) {
  bench::parse_flags(argc, argv, {bench::kernel_flag()});
  std::printf("Fig. 15 — VoIP goodput/latency vs number of STAs\n");
  const Scheme schemes[] = {Scheme::kCarpool, Scheme::kMuAggregation,
                            Scheme::kAmpdu, Scheme::kDcf80211,
                            Scheme::kWiFox};

  std::printf("%6s", "STAs");
  for (const Scheme s : schemes) {
    std::printf(" | %14s Mb/s,s", scheme_name(s).data());
  }
  std::printf("\n");

  for (std::size_t n = 10; n <= 58; n += 6) {
    std::printf("%6zu", n);
    for (const Scheme scheme : schemes) {
      SimConfig cfg;
      cfg.scheme = scheme;
      cfg.num_stas = n;
      cfg.duration = 12.0;
      cfg.seed = 2015;
      cfg.default_snr_db = 26.0;
      cfg.coherence_time = 3e-3;
      Simulator sim(cfg);
      for (NodeId sta = 1; sta <= n; ++sta) {
        for (auto& flow : traffic::make_voip_call(
                 sta, traffic::VoipParams::near_peak())) {
          sim.add_flow(std::move(flow));
        }
      }
      const SimResult r = sim.run();
      std::printf(" | %10.2f, %6.3f", r.downlink_goodput_bps / 1e6,
                  r.mean_delay_s);
    }
    std::printf("\n");
  }

  std::printf("\nShape checks (paper): Carpool rises linearly; 802.11 "
              "collapses past the knee; MU-Aggregation falls below A-MPDU "
              "once frames are long; Carpool delay stays near zero.\n");
  bench::write_metrics("fig15_voip");
  return 0;
}
