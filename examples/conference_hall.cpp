// Conference-hall scenario, trace-driven end to end: synthesize a
// public-WLAN trace with the paper's measured statistics (Sec. 2), build a
// trace-driven PHY error model by running real Carpool frames through the
// OFDM simulator (the paper's Sec. 7.2 methodology), then evaluate the MAC
// schemes under that model.

#include <cstdio>
#include <memory>

#include "common/cli.hpp"
#include "mac/simulator.hpp"
#include "sim/phy_trace.hpp"
#include "sim/testbed.hpp"
#include "traffic/generators.hpp"
#include "traffic/trace_synth.hpp"

using namespace carpool;
using namespace carpool::mac;

int main(int argc, char** argv) {
  cli::parse_flags(argc, argv, {});
  // 1. Characterize the venue (Fig. 1 statistics).
  traffic::TraceSynthConfig trace_cfg;
  trace_cfg.downlink_ratio = 0.834;  // SIGCOMM'08
  trace_cfg.sizes = traffic::TraceKind::kSigcomm;
  const traffic::SyntheticTrace trace = traffic::synthesize_trace(trace_cfg);
  std::printf("Synthesized venue: %zu STAs across %zu APs, mean %.1f "
              "active/AP, downlink ratio %.1f%%\n",
              trace.total_stas, trace_cfg.num_aps, trace.mean_active_stas,
              100.0 * trace.downlink_ratio());

  // 2. Trace-driven PHY: run real frames through the bit-exact PHY to
  //    tabulate subframe error behaviour (takes a few seconds).
  std::printf("\nGenerating PHY traces from the OFDM simulator...\n");
  sim::PhyTraceConfig phy_cfg;
  phy_cfg.snr_grid_db = {24, 30, 36};
  phy_cfg.frames_per_point = 6;
  phy_cfg.subframes_per_frame = 3;
  phy_cfg.subframe_bytes = 600;
  const auto phy = std::make_shared<sim::TracePhyModel>(
      sim::TracePhyModel::generate(phy_cfg));
  std::printf("  symbol-failure (SNR 24 dB): head %.3f -> tail %.3f "
              "(standard) vs %.3f -> %.3f (RTE)\n",
              phy->symbol_failure(24, false, 0),
              phy->symbol_failure(24, false, 80),
              phy->symbol_failure(24, true, 0),
              phy->symbol_failure(24, true, 80));

  // 3. STA link SNRs from the Fig. 10 office layout at 0.1 power.
  const sim::TestbedLayout layout;
  const std::size_t stas = 36;
  std::vector<double> snrs;
  for (std::size_t i = 0; i < stas; ++i) {
    snrs.push_back(layout.snr_db(i % sim::TestbedLayout::kNumLocations, 0.1));
  }

  // 4. Evaluate the schemes on the busy hall.
  std::printf("\n%16s %10s %9s %9s\n", "scheme", "goodput", "delay",
              "PHY loss");
  for (const Scheme scheme :
       {Scheme::kCarpool, Scheme::kMuAggregation, Scheme::kAmpdu,
        Scheme::kWiFox, Scheme::kDcf80211}) {
    SimConfig cfg;
    cfg.scheme = scheme;
    cfg.num_stas = stas;
    cfg.duration = 8.0;
    cfg.seed = 11;
    cfg.sta_snr_db = snrs;
    cfg.coherence_time = 3e-3;
    cfg.phy = phy;
    Simulator sim_run(cfg);
    for (NodeId sta = 1; sta <= stas; ++sta) {
      for (auto& flow :
           traffic::make_voip_call(sta, traffic::VoipParams::near_peak())) {
        sim_run.add_flow(std::move(flow));
      }
      for (auto& flow : traffic::make_sigcomm_background(sta)) {
        sim_run.add_flow(std::move(flow));
      }
    }
    const SimResult r = sim_run.run();
    std::printf("%16s %8.2fMb %8.3fs %9lu\n", scheme_name(scheme).data(),
                r.downlink_goodput_bps / 1e6, r.mean_delay_s,
                static_cast<unsigned long>(r.subframe_failures));
  }
  return 0;
}
