// Sec. 5.2 — CRC granularity / modulation trade-off study: six schemes
// ({1,2}-bit phase offset x {1,2,3}-symbol CRC groups) measured over
// multiple receiver locations and TX powers.
//
// Paper: "the scheme with one symbol as a group and two-bit phase offset
// side channel achieves best performance in most of the cases" — finer
// granularity gives more data pilots, and CRC-2 per symbol is reliable
// enough.

#include <cstdio>

#include "bench_util.hpp"

using namespace carpool;

int main(int argc, char** argv) {
  bench::parse_flags(argc, argv, {bench::kernel_flag()});
  bench::banner("Sec. 5.2", "symbol-CRC granularity x modulation trade-off",
                "two-bit / 1-symbol (CRC-2 per symbol) wins in most cases");

  Rng rng(3);
  std::vector<SubframeSpec> subframes{SubframeSpec{
      MacAddress::for_station(1),
      append_fcs(bench::random_psdu(4000, rng)), 7}};  // QAM64

  const sim::TestbedLayout layout;
  std::printf("%10s %10s | %14s %14s\n", "mod", "group", "post-FEC loss",
              "raw BER");

  struct SchemeDef {
    PhaseMod mod;
    std::size_t group;
  };
  const SchemeDef schemes[] = {
      {PhaseMod::kOneBit, 1}, {PhaseMod::kOneBit, 2}, {PhaseMod::kOneBit, 3},
      {PhaseMod::kTwoBit, 1}, {PhaseMod::kTwoBit, 2}, {PhaseMod::kTwoBit, 3},
  };

  double best_loss = 1.0;
  double best_raw = 1.0;
  const SchemeDef* best = nullptr;
  for (const SchemeDef& s : schemes) {
    CarpoolFrameConfig txcfg;
    txcfg.crc_scheme = SymbolCrcScheme{s.mod, s.group};
    CarpoolRxConfig rxcfg;
    rxcfg.crc_scheme = txcfg.crc_scheme;
    rxcfg.use_rte = true;

    RatioCounter loss;
    std::size_t errors = 0, bits = 0;
    for (const std::size_t loc : {3u, 10u, 18u, 26u}) {
      for (const double power : {0.1, 0.15, 0.2}) {
        FadingConfig channel = layout.channel_config(loc, power, 17);
        channel.rician_los = true;
        channel.rician_k_db = 8.0;
        channel.coherence_time = 4.5e-3;
        const bench::LinkRun run = bench::run_link(subframes, txcfg, rxcfg,
                                                   channel, 6, loc * 31 + 7);
        loss.add(run.fcs_fail.hits(), run.fcs_fail.trials());
        errors += run.raw.total_errors;
        bits += run.raw.total_bits;
      }
    }
    const double raw = bits ? static_cast<double>(errors) / bits : 0.0;
    std::printf("%10s %10zu | %13.1f%% %14.2e\n",
                s.mod == PhaseMod::kOneBit ? "1-bit" : "2-bit", s.group,
                100.0 * loss.ratio(), raw);
    // Rank by post-FEC loss, breaking ties with raw BER.
    if (loss.ratio() < best_loss ||
        (loss.ratio() == best_loss && raw < best_raw)) {
      best_loss = loss.ratio();
      best_raw = raw;
      best = &s;
    }
  }
  if (best != nullptr) {
    std::printf("\nbest scheme: %s / %zu-symbol group (paper picks 2-bit / "
                "1-symbol)\n",
                best->mod == PhaseMod::kOneBit ? "1-bit" : "2-bit",
                best->group);
  }
  bench::write_metrics("sec5_granularity");
  return 0;
}
