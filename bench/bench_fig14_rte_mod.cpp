// Fig. 14 — BER of real-time channel estimation vs standard estimation
// for each modulation at two TX powers (USRP magnitudes 0.05 and 0.2).
//
// Paper: at higher-order modulations (QAM16/QAM64) RTE achieves several
// times lower BER; at BPSK/QPSK the gains are marginal because low-order
// constellations tolerate the stale estimate.

#include <cstdio>

#include "bench_util.hpp"

using namespace carpool;

namespace {

double ber_for(Modulation mod, double power, bool rte) {
  Rng rng(77);
  const std::size_t mcs_idx = bench::mcs_for_modulation(mod);
  // Long 4 KB frames as in Fig. 13: low-order constellations tolerate the
  // accumulated drift (large decision distance), high-order ones do not —
  // which is exactly the paper's explanation for Fig. 14.
  std::vector<SubframeSpec> subframes{SubframeSpec{
      MacAddress::for_station(1),
      append_fcs(bench::random_psdu(4000, rng)), mcs_idx}};

  CarpoolFrameConfig txcfg;
  CarpoolRxConfig rxcfg;
  rxcfg.use_rte = rte;

  const sim::TestbedLayout layout;
  std::size_t errors = 0, bits = 0;
  for (const std::size_t loc : {2u, 9u, 16u, 22u, 28u}) {
    FadingConfig channel = layout.channel_config(loc, power, 13);
    channel.rician_los = true;
    channel.rician_k_db = 8.0;
    channel.coherence_time = 5e-3;
    const bench::LinkRun run = bench::run_link(subframes, txcfg, rxcfg,
                                               channel, 6, loc + 900);
    errors += run.raw.total_errors;
    bits += run.raw.total_bits;
  }
  return bits ? static_cast<double>(errors) / bits : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_flags(argc, argv, {bench::kernel_flag()});
  bench::banner("Fig. 14", "BER of RTE vs standard per modulation",
                "large RTE gains for QAM16/QAM64, marginal for BPSK/QPSK");

  for (const double power : {0.05, 0.2}) {
    std::printf("\n--- power magnitude = %.2f ---\n", power);
    std::printf("%8s %14s %14s %8s\n", "mod", "standard", "RTE", "gain");
    for (const Modulation mod : {Modulation::kBpsk, Modulation::kQpsk,
                                 Modulation::kQam16, Modulation::kQam64}) {
      const double std_ber = ber_for(mod, power, false);
      const double rte_ber = ber_for(mod, power, true);
      std::printf("%8s %14.2e %14.2e %7.1fx\n",
                  modulation_name(mod).data(), std_ber, rte_ber,
                  rte_ber > 0 ? std_ber / rte_ber : 0.0);
    }
  }
  bench::write_metrics("fig14_rte_mod");
  return 0;
}
