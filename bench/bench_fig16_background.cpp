// Fig. 16 — Goodput and latency with SIGCOMM'08 UDP/TCP uplink background
// traffic (mean inter-arrival 47 ms TCP / 88 ms UDP per STA, trace-matched
// frame sizes) in addition to VoIP.
//
// Paper: background traffic drags every baseline down; from 20 to 30 STAs
// Carpool achieves 1.12x-3.2x the goodput of A-MPDU, Carpool's delay stays
// below 0.2 s while A-MPDU and 802.11 suffer 0.8 s and 1.5 s.

#include <cstdio>

#include "bench_util.hpp"
#include "mac/simulator.hpp"
#include "traffic/generators.hpp"

using namespace carpool;
using namespace carpool::mac;

int main(int argc, char** argv) {
  bench::parse_flags(argc, argv, {bench::kernel_flag()});
  std::printf("Fig. 16 — goodput/latency with UDP/TCP background traffic\n");
  const Scheme schemes[] = {Scheme::kCarpool, Scheme::kMuAggregation,
                            Scheme::kAmpdu, Scheme::kDcf80211,
                            Scheme::kWiFox};
  std::printf("%6s", "STAs");
  for (const Scheme s : schemes) {
    std::printf(" | %14s Mb/s,s", scheme_name(s).data());
  }
  std::printf("\n");

  double carpool_30 = 0.0, ampdu_30 = 0.0;
  double carpool_20 = 0.0, ampdu_20 = 0.0;
  for (std::size_t n = 10; n <= 34; n += 4) {
    std::printf("%6zu", n);
    for (const Scheme scheme : schemes) {
      // The SIGCOMM'08 trace also contains busy uplink-only stations;
      // they contend without receiving downlink traffic.
      const std::size_t background = 10;
      SimConfig cfg;
      cfg.scheme = scheme;
      cfg.num_stas = n + background;
      cfg.duration = 12.0;
      cfg.seed = 808;
      cfg.default_snr_db = 26.0;
      cfg.coherence_time = 3e-3;
      Simulator sim(cfg);
      for (NodeId sta = 1; sta <= n; ++sta) {
        for (auto& flow : traffic::make_voip_call(
                 sta, traffic::VoipParams::near_peak())) {
          sim.add_flow(std::move(flow));
        }
        for (auto& flow : traffic::make_sigcomm_background(sta)) {
          sim.add_flow(std::move(flow));
        }
      }
      for (NodeId sta = static_cast<NodeId>(n + 1);
           sta <= n + background; ++sta) {
        sim.add_flow(traffic::make_poisson_flow(
            sta, 0.012, traffic::TraceKind::kSigcomm, /*uplink=*/true));
      }
      const SimResult r = sim.run();
      std::printf(" | %10.2f, %6.3f", r.downlink_goodput_bps / 1e6,
                  r.mean_delay_s);
      if (scheme == Scheme::kCarpool && n == 30) {
        carpool_30 = r.downlink_goodput_bps;
      }
      if (scheme == Scheme::kAmpdu && n == 30) {
        ampdu_30 = r.downlink_goodput_bps;
      }
      if (scheme == Scheme::kCarpool && n == 22) {
        carpool_20 = r.downlink_goodput_bps;
      }
      if (scheme == Scheme::kAmpdu && n == 22) {
        ampdu_20 = r.downlink_goodput_bps;
      }
    }
    std::printf("\n");
  }

  if (ampdu_20 > 0 && ampdu_30 > 0) {
    std::printf("\nCarpool/A-MPDU goodput ratio: %.2fx at 22 STAs, %.2fx at "
                "30 STAs (paper: 1.12x-3.2x from 20 to 30 STAs)\n",
                carpool_20 / ampdu_20, carpool_30 / ampdu_30);
  }
  bench::write_metrics("fig16_background");
  return 0;
}
