// Coffee-shop scenario: one AP serving a crowd of stations running VoIP
// calls plus web-browsing background traffic — the "large audience
// environment" the paper opens with. Runs the MAC simulator with every
// scheme and prints a side-by-side comparison of goodput, delay, airtime
// breakdown and per-station energy.

#include <cstdio>

#include "common/cli.hpp"
#include "mac/simulator.hpp"
#include "traffic/generators.hpp"

using namespace carpool;
using namespace carpool::mac;

namespace {

SimResult run(Scheme scheme, std::size_t stas) {
  SimConfig cfg;
  cfg.scheme = scheme;
  cfg.num_stas = stas;
  cfg.duration = 10.0;
  cfg.seed = 31337;
  cfg.default_snr_db = 26.0;
  cfg.coherence_time = 3e-3;
  Simulator sim(cfg);
  for (NodeId sta = 1; sta <= stas; ++sta) {
    // Every patron is on a call...
    for (auto& flow :
         traffic::make_voip_call(sta, traffic::VoipParams::near_peak())) {
      sim.add_flow(std::move(flow));
    }
    // ...and browsing on the side (SIGCOMM-like uplink requests plus
    // downlink responses).
    for (auto& flow : traffic::make_sigcomm_background(sta)) {
      sim.add_flow(std::move(flow));
    }
    sim.add_flow(traffic::make_poisson_flow(
        sta, 0.20, traffic::TraceKind::kSigcomm, /*uplink=*/false));
  }
  return sim.run();
}

}  // namespace

int main(int argc, char** argv) {
  cli::parse_flags(argc, argv, {});
  constexpr std::size_t kStas = 32;
  std::printf("Coffee shop: 1 AP, %zu stations, VoIP + web traffic, 10 s\n\n",
              kStas);
  std::printf("%16s %9s %8s %8s %7s %7s %9s %9s %7s\n", "scheme",
              "goodput", "delay", "p95", "coll", "aggr", "STA mJ/s", "drop",
              "Jain");

  for (const Scheme scheme :
       {Scheme::kCarpool, Scheme::kMuAggregation, Scheme::kAmpdu,
        Scheme::kWiFox, Scheme::kDcf80211}) {
    const SimResult r = run(scheme, kStas);
    double sta_energy = 0.0;
    for (std::size_t sta = 1; sta < r.node_energy.size(); ++sta) {
      sta_energy += r.node_energy[sta].joules;
    }
    sta_energy /= static_cast<double>(r.node_energy.size() - 1) * r.duration;
    std::printf("%16s %7.2fMb %7.3fs %7.3fs %7lu %7.2f %9.0f %9lu %7.3f\n",
                scheme_name(scheme).data(), r.downlink_goodput_bps / 1e6,
                r.mean_delay_s, r.p95_delay_s,
                static_cast<unsigned long>(r.collisions),
                r.avg_aggregated_receivers, sta_energy * 1e3,
                static_cast<unsigned long>(r.dl_frames_dropped),
                r.jain_fairness);
  }

  std::printf("\nAirtime breakdown for Carpool vs 802.11:\n");
  for (const Scheme scheme : {Scheme::kCarpool, Scheme::kDcf80211}) {
    const SimResult r = run(scheme, kStas);
    std::printf("%16s  payload %4.1f%%  overhead %4.1f%%  collisions %4.1f%%"
                "  idle %4.1f%%\n",
                scheme_name(scheme).data(),
                100 * r.airtime_payload / r.duration,
                100 * r.airtime_overhead / r.duration,
                100 * r.airtime_collision / r.duration,
                100 * r.airtime_idle / r.duration);
  }
  return 0;
}
