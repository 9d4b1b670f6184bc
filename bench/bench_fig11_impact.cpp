// Fig. 11 — Impact of the phase offset side channel on data decoding:
// BER of the standard PHY vs the PHY with phase-offset injection, for
// BPSK/QPSK/16-QAM/64-QAM across the paper's TX power sweep.
//
// Paper: BER differences between the two PHYs range from 1.02% to 5.49%
// (relative) — i.e. the side channel is essentially free.

#include <cstdio>

#include "bench_util.hpp"

using namespace carpool;

namespace {

double link_ber(Modulation mod, double power_magnitude, bool inject,
                std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t mcs_idx = bench::mcs_for_modulation(mod);
  const std::size_t bytes = mod == Modulation::kBpsk ? 400 : 1000;
  std::vector<SubframeSpec> subframes{SubframeSpec{
      MacAddress::for_station(1),
      append_fcs(bench::random_psdu(bytes, rng)), mcs_idx}};

  CarpoolFrameConfig txcfg;
  txcfg.inject_side_channel = inject;
  CarpoolRxConfig rxcfg;
  rxcfg.side_channel_present = inject;
  rxcfg.use_rte = false;  // isolate the injection effect

  const sim::TestbedLayout layout;
  bench::RawBer total;
  // Controlled comparison (Sec. 7.1.1): identical static layouts -> same
  // channel seeds for both PHYs at each location.
  for (const std::size_t loc : {0u, 5u, 11u, 17u, 23u}) {
    FadingConfig channel = layout.channel_config(loc, power_magnitude, 7);
    channel.coherence_time = 20e-3;  // controlled, near-static environment
    const bench::LinkRun run = bench::run_link(subframes, txcfg, rxcfg,
                                               channel, 10, loc + 100);
    total.total_errors += run.raw.total_errors;
    total.total_bits += run.raw.total_bits;
  }
  return total.ber();
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_flags(argc, argv, {bench::kernel_flag()});
  bench::banner("Fig. 11", "BER of PHY with phase offset side channel vs "
                           "standard PHY",
                "curves for the two PHYs nearly coincide at every "
                "modulation and power (1.02%%-5.49%% relative difference)");

  std::printf("%8s %10s %14s %14s %10s\n", "mod", "power", "standard BER",
              "w/ side-ch BER", "rel diff");
  for (const Modulation mod : {Modulation::kBpsk, Modulation::kQpsk,
                               Modulation::kQam16, Modulation::kQam64}) {
    for (const double power : bench::power_sweep()) {
      const double std_ber = link_ber(mod, power, false, 1);
      const double inj_ber = link_ber(mod, power, true, 1);
      const double rel =
          std_ber > 0 ? (inj_ber - std_ber) / std_ber * 100.0 : 0.0;
      std::printf("%8s %10.4f %14.2e %14.2e %9.2f%%\n",
                  modulation_name(mod).data(), power, std_ber, inj_ber, rel);
    }
  }
  bench::write_metrics("fig11_impact");
  return 0;
}
