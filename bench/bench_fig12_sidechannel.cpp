// Fig. 12 — Reliability of the phase offset side channel: BER of the
// 1-bit / 2-bit phase-offset bits vs BPSK / QPSK data subcarriers across
// the TX power sweep.
//
// Paper: 1-bit phase offset beats BPSK; 2-bit phase offset is much lower
// than QPSK in most cases, because each phase offset is demodulated from
// four pilot subcarriers while data bits ride single subcarriers.

#include <cstdio>

#include "bench_util.hpp"

using namespace carpool;

namespace {

struct BerPair {
  double data_ber = 0.0;
  double side_ber = 0.0;
};

BerPair measure(PhaseMod side_mod, Modulation data_mod,
                double power_magnitude) {
  Rng rng(5);
  const std::size_t mcs_idx = bench::mcs_for_modulation(data_mod);
  std::vector<SubframeSpec> subframes{SubframeSpec{
      MacAddress::for_station(1),
      append_fcs(bench::random_psdu(1000, rng)), mcs_idx}};

  CarpoolFrameConfig txcfg;
  txcfg.crc_scheme = SymbolCrcScheme{side_mod, 1};
  CarpoolRxConfig rxcfg;
  rxcfg.crc_scheme = txcfg.crc_scheme;
  rxcfg.use_rte = false;

  const sim::TestbedLayout layout;
  std::size_t data_err = 0, data_bits = 0, side_err = 0, side_bits = 0;
  for (const std::size_t loc : {1u, 7u, 13u, 19u, 25u}) {
    FadingConfig channel = layout.channel_config(loc, power_magnitude, 9);
    const bench::LinkRun run = bench::run_link(subframes, txcfg, rxcfg,
                                               channel, 6, loc + 500);
    data_err += run.raw.total_errors;
    data_bits += run.raw.total_bits;
    side_err += run.side_bit_errors;
    side_bits += run.side_bits_total;
  }
  BerPair out;
  out.data_ber = data_bits ? static_cast<double>(data_err) / data_bits : 0.0;
  out.side_ber = side_bits ? static_cast<double>(side_err) / side_bits : 0.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_flags(argc, argv, {bench::kernel_flag()});
  bench::banner("Fig. 12", "BER of phase offset side channel vs data channel",
                "1-bit side channel < BPSK data BER; 2-bit side channel "
                "well below QPSK data BER");

  std::printf("%10s %12s %12s %12s\n", "power", "data BER", "side BER",
              "side/data");
  std::printf("--- 1-bit phase offset vs BPSK ---\n");
  for (const double power : bench::power_sweep()) {
    const BerPair p = measure(PhaseMod::kOneBit, Modulation::kBpsk, power);
    std::printf("%10.4f %12.2e %12.2e %12.3f\n", power, p.data_ber,
                p.side_ber, p.data_ber > 0 ? p.side_ber / p.data_ber : 0.0);
  }
  std::printf("--- 2-bit phase offset vs QPSK ---\n");
  for (const double power : bench::power_sweep()) {
    const BerPair p = measure(PhaseMod::kTwoBit, Modulation::kQpsk, power);
    std::printf("%10.4f %12.2e %12.2e %12.3f\n", power, p.data_ber,
                p.side_ber, p.data_ber > 0 ? p.side_ber / p.data_ber : 0.0);
  }
  bench::write_metrics("fig12_sidechannel");
  return 0;
}
