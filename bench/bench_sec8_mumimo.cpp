// Sec. 8 / Fig. 18 — Carpool over MU-MIMO: four beamformed streams for
// four users share one legacy preamble and A-HDR, where 802.11ac MU-MIMO
// needs at least two transmissions.
//
// Paper: the aggregation preserves per-user decodability (each group keeps
// its own VHT preamble and precoder) while halving the preamble/contention
// cost for the two-group example.

#include <cstdio>

#include "bench_util.hpp"
#include "carpool/mumimo.hpp"

using namespace carpool;

int main(int argc, char** argv) {
  bench::parse_flags(argc, argv, {bench::kernel_flag()});
  std::printf("Sec. 8 — MU-MIMO Carpool (2-antenna AP, 4 users, ZF)\n\n");

  std::printf("Per-user BER across SNR (QAM16, ideal CSI):\n");
  std::printf("%8s %10s %10s %10s %10s %12s\n", "SNR", "user A", "user B",
              "user C", "user D", "airtime save");
  for (const double snr : {10.0, 15.0, 20.0, 25.0, 30.0}) {
    MuMimoConfig cfg;
    cfg.snr_db = snr;
    cfg.symbols_per_group = 40;
    cfg.seed = static_cast<std::uint64_t>(snr);
    const MuMimoResult r = simulate_mumimo(cfg);
    std::printf("%8.0f %10.2e %10.2e %10.2e %10.2e %11.1f%%\n", snr,
                r.user_ber[0], r.user_ber[1], r.user_ber[2], r.user_ber[3],
                100.0 * r.airtime_saving());
  }

  std::printf("\nCSI-error sensitivity (SNR 25 dB): residual inter-stream "
              "interference grows with estimation error\n");
  std::printf("%12s %12s\n", "CSI error", "mean BER");
  for (const double err : {0.0, 0.01, 0.05, 0.1, 0.2}) {
    MuMimoConfig cfg;
    cfg.snr_db = 25.0;
    cfg.csi_error = err;
    cfg.seed = 7;
    const MuMimoResult r = simulate_mumimo(cfg);
    std::printf("%12.2f %12.2e\n", err, r.mean_ber);
  }

  std::printf("\nAirtime structure: Carpool shares one legacy preamble + "
              "A-HDR across stream groups (Fig. 18(b)).\n");
  bench::write_metrics("sec8_mumimo");
  return 0;
}
