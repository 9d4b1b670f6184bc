// Fig. 17 — Goodput under (a) different delivery-latency requirements and
// (b) different downlink frame sizes, at 30 STAs with the same SIGCOMM
// background traffic as Fig. 16.
//
// Paper: (a) Carpool achieves 1.9x-9.8x the goodput of A-MPDU for latency
// bounds of 10-200 ms, the gain shrinking as the bound loosens;
// (b) with a 10 ms bound and frame sizes 100-1500 B, Carpool is 2.8x-3.6x
// A-MPDU and 5x-6.4x 802.11.

#include <cstdio>

#include "bench_util.hpp"
#include "mac/simulator.hpp"
#include "traffic/generators.hpp"

using namespace carpool;
using namespace carpool::mac;

namespace {

SimResult run_case(Scheme scheme, double deadline, std::size_t frame_bytes,
                   double frame_interval) {
  constexpr std::size_t kStas = 30;        // downlink receivers (paper value)
  constexpr std::size_t kBackground = 25;  // busy uplink-only stations from
                                           // the SIGCOMM'08 trace replay
  SimConfig cfg;
  cfg.scheme = scheme;
  cfg.num_stas = kStas + kBackground;
  cfg.duration = 12.0;
  cfg.seed = 1717;
  cfg.default_snr_db = 26.0;
  cfg.coherence_time = 3e-3;
  cfg.delivery_deadline = deadline;
  cfg.aggregation.max_latency = deadline;
  Simulator sim(cfg);
  for (NodeId sta = 1; sta <= kStas; ++sta) {
    sim.add_flow(traffic::make_cbr_flow(sta, frame_bytes, frame_interval));
    for (auto& flow : traffic::make_sigcomm_background(sta)) {
      sim.add_flow(std::move(flow));
    }
  }
  for (NodeId sta = kStas + 1; sta <= kStas + kBackground; ++sta) {
    sim.add_flow(traffic::make_poisson_flow(sta, 0.008,
                                            traffic::TraceKind::kSigcomm,
                                            /*uplink=*/true));
  }
  return sim.run();
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_flags(argc, argv, {bench::kernel_flag()});
  std::printf("Fig. 17(a) — goodput vs latency requirement (120 B VoIP "
              "frames, 30 STAs + busy uplink)\n");
  std::printf("%12s %10s %10s %8s\n", "bound (ms)", "Carpool", "A-MPDU",
              "ratio");
  for (const double ms : {10.0, 50.0, 100.0, 150.0, 200.0}) {
    const SimResult carpool =
        run_case(Scheme::kCarpool, ms / 1e3, 120, 0.005);
    const SimResult ampdu = run_case(Scheme::kAmpdu, ms / 1e3, 120, 0.005);
    std::printf("%12.0f %10.2f %10.2f %7.1fx\n", ms,
                carpool.downlink_goodput_bps / 1e6,
                ampdu.downlink_goodput_bps / 1e6,
                ampdu.downlink_goodput_bps > 0
                    ? carpool.downlink_goodput_bps /
                          ampdu.downlink_goodput_bps
                    : 0.0);
  }
  std::printf("(paper: 1.9x at loose bounds up to 9.8x at tight bounds)\n");

  std::printf("\nFig. 17(b) — goodput vs frame size (10 ms latency bound, "
              "30 STAs + busy uplink)\n");
  std::printf("%12s %10s %10s %10s %10s %10s\n", "bytes", "Carpool",
              "A-MPDU", "802.11", "vs AMPDU", "vs 802.11");
  for (const std::size_t bytes : {100u, 200u, 400u, 800u, 1500u}) {
    // Keep per-STA offered bit rate constant as frame size grows.
    const double interval = static_cast<double>(bytes) * 8.0 / 192e3;
    const SimResult carpool =
        run_case(Scheme::kCarpool, 0.01, bytes, interval);
    const SimResult ampdu = run_case(Scheme::kAmpdu, 0.01, bytes, interval);
    const SimResult dcf = run_case(Scheme::kDcf80211, 0.01, bytes, interval);
    std::printf("%12zu %10.2f %10.2f %10.2f %9.1fx %9.1fx\n",
                static_cast<std::size_t>(bytes),
                carpool.downlink_goodput_bps / 1e6,
                ampdu.downlink_goodput_bps / 1e6,
                dcf.downlink_goodput_bps / 1e6,
                ampdu.downlink_goodput_bps > 0
                    ? carpool.downlink_goodput_bps /
                          ampdu.downlink_goodput_bps
                    : 0.0,
                dcf.downlink_goodput_bps > 0
                    ? carpool.downlink_goodput_bps /
                          dcf.downlink_goodput_bps
                    : 0.0);
  }
  std::printf("(paper: 2.8x-3.6x over A-MPDU, 5x-6.4x over 802.11)\n");
  bench::write_metrics("fig17_latency_frames");
  return 0;
}
