// Fig. 1 — Traffic statistics in public WLANs, regenerated from the
// synthetic trace generator matched to the paper's measurements.

#include <cstdio>

#include "bench_util.hpp"
#include "traffic/frame_sizes.hpp"
#include "traffic/trace_synth.hpp"

using namespace carpool;
using namespace carpool::traffic;

int main(int argc, char** argv) {
  bench::parse_flags(argc, argv, {bench::kernel_flag()});
  bench::banner("Fig. 1(a)", "concurrent downlink requests (active STAs/AP)",
                "library trace fluctuates ~2-14 with mean 7.63 active STAs");
  TraceSynthConfig cfg;
  const SyntheticTrace trace = synthesize_trace(cfg);
  std::printf("%8s %12s\n", "t (s)", "active STAs");
  for (std::size_t t = 0; t < trace.active_stas_per_second.size(); t += 20) {
    std::printf("%8zu %12zu\n", t, trace.active_stas_per_second[t]);
  }
  std::printf("mean active STAs per AP: %.2f (paper: 7.63)\n",
              trace.mean_active_stas);
  std::printf("total STAs across %zu APs: %zu (paper: ~164)\n", cfg.num_aps,
              trace.total_stas);

  bench::banner("Fig. 1(b)", "frame size CDF",
                ">50%% of SIGCOMM and >90%% of library downlink frames "
                "are smaller than 300 B");
  std::printf("%10s %10s %10s\n", "bytes", "SIGCOMM", "Library");
  const FrameSizeDistribution sigcomm(TraceKind::kSigcomm);
  const FrameSizeDistribution library(TraceKind::kLibrary);
  for (const std::size_t b :
       {60u, 100u, 200u, 300u, 500u, 800u, 1200u, 1500u}) {
    std::printf("%10zu %10.3f %10.3f\n", static_cast<std::size_t>(b),
                sigcomm.cdf(b), library.cdf(b));
  }

  bench::banner("Fig. 1(c)", "downlink traffic volume ratio",
                "SIGCOMM'04 80%%, SIGCOMM'08 83.4%%, Library 89.2%%");
  struct Row {
    const char* name;
    double target;
  };
  for (const Row row : {Row{"SIGCOMM'04", 0.800}, Row{"SIGCOMM'08", 0.834},
                        Row{"Library", 0.892}}) {
    TraceSynthConfig c;
    c.downlink_ratio = row.target;
    c.seed = static_cast<std::uint64_t>(row.target * 1e4);
    const SyntheticTrace t = synthesize_trace(c);
    std::printf("%12s: downlink ratio %.3f (paper: %.3f)\n", row.name,
                t.downlink_ratio(), row.target);
  }
  bench::write_metrics("fig01_traffic");
  return 0;
}
