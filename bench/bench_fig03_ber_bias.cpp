// Fig. 3 — BER bias in a long frame: per-symbol BER grows with symbol
// index when the channel estimate comes only from the preamble.
//
// The paper sends 1000 x 4 KB QAM64 frames over a 3 m USRP link in a
// 10 m x 10 m office (measured BER rises from ~4e-4 at the head to ~2e-3
// at the tail). We transmit the same frames through the fading-channel
// model with standard (preamble-only) channel estimation.

#include <cstdio>

#include "bench_util.hpp"

using namespace carpool;

int main(int argc, char** argv) {
  bench::parse_flags(argc, argv, {bench::kernel_flag()});
  bench::banner("Fig. 3", "BER bias vs symbol index (QAM64, 4 KB frames)",
                "per-symbol BER grows ~5x from frame head to symbol ~110");

  Rng rng(42);
  const std::size_t kMcs = 7;  // QAM64
  std::vector<SubframeSpec> subframes{SubframeSpec{
      MacAddress::for_station(1),
      append_fcs(bench::random_psdu(4000, rng)), kMcs}};

  CarpoolFrameConfig txcfg;   // side channel on (irrelevant to standard RX)
  CarpoolRxConfig rxcfg;
  rxcfg.use_rte = false;      // standard channel estimation
  FadingConfig channel;
  channel.snr_db = 33.0;          // 3 m line-of-sight office link
  channel.rician_los = true;
  channel.rician_k_db = 10.0;
  channel.coherence_time = 45e-3; // quasi-static indoor channel
  channel.cfo_hz = 6e3;

  const bench::LinkRun run =
      bench::run_link(subframes, txcfg, rxcfg, channel, 60, 1);

  std::printf("%12s %12s\n", "symbol idx", "BER");
  const std::size_t n = run.raw.errors_per_symbol.size();
  for (std::size_t s = 0; s < n; s += 10) {
    std::printf("%12zu %12.6f\n", s + 1, run.raw.ber_at(s));
  }
  const double head = (run.raw.ber_at(0) + run.raw.ber_at(1) +
                       run.raw.ber_at(2) + run.raw.ber_at(3)) / 4.0;
  double tail = 0.0;
  for (std::size_t s = n - 4; s < n; ++s) tail += run.raw.ber_at(s);
  tail /= 4.0;
  std::printf("\nhead BER %.6f -> tail BER %.6f (bias factor %.1fx; "
              "paper shows ~5x growth)\n",
              head, tail, head > 0 ? tail / head : 0.0);
  bench::write_metrics("fig03_ber_bias");
  return 0;
}
