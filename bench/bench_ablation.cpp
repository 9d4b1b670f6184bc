// Ablations of Carpool's design choices (beyond the paper's own figures):
//   A. Eq. (3) update weight alpha (paper: 0.5) — too small adapts slowly,
//      too large amplifies estimate noise.
//   B. The data-pilot EVM sanity gate — our addition that keeps CRC-2
//      false accepts from poisoning H~ at low SNR.
//   C. Bloom hash count h at N = 8 receivers (paper fixes h = 4).
//   D. Aggregation width (max receivers per Carpool frame) at the MAC.
//   E. Sequential-ACK overhead vs receiver count.

// Every parameter ladder fans its points across carpool::par workers
// (--threads N / CARPOOL_THREADS, docs/PARALLELISM.md); rows print in
// ladder order after the sharded run, so the output and the exported
// metrics are identical at any thread count.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.hpp"
#include "carpool/bloom.hpp"
#include "mac/rate_adaptation.hpp"
#include "mac/simulator.hpp"
#include "par/par.hpp"
#include "traffic/generators.hpp"

using namespace carpool;

namespace {

std::size_t g_threads = 1;

void ablate_rte_alpha() {
  bench::banner("Ablation A", "RTE update weight alpha (Eq. 3)",
                "paper uses alpha = 0.5");
  Rng rng(1);
  std::vector<SubframeSpec> subframes{SubframeSpec{
      MacAddress::for_station(1),
      append_fcs(bench::random_psdu(4000, rng)), 7}};
  FadingConfig channel;
  channel.snr_db = 33.0;
  channel.rician_los = true;
  channel.rician_k_db = 10.0;
  channel.coherence_time = 4.5e-3;
  channel.cfo_hz = 6e3;

  std::printf("%8s %14s %14s\n", "alpha", "raw BER", "FCS loss");
  const std::vector<double> alphas{0.0, 0.125, 0.25, 0.5, 0.75, 1.0};
  const auto rows = par::run_sharded(
      alphas.size(), g_threads, [&](const par::ShardInfo& info) {
        const double alpha = alphas[info.index];
        CarpoolFrameConfig txcfg;
        CarpoolRxConfig rxcfg;
        rxcfg.use_rte = alpha > 0.0;
        rxcfg.rte_alpha = alpha;
        const bench::LinkRun run =
            bench::run_link(subframes, txcfg, rxcfg, channel, 25, 3);
        return bench::rowf("%8.3f %14.2e %13.1f%%\n", alpha, run.raw.ber(),
                           100.0 * run.fcs_fail.ratio());
      });
  for (const std::string& r : rows) std::fputs(r.c_str(), stdout);
}

void ablate_evm_gate() {
  bench::banner("Ablation B", "data-pilot EVM sanity gate",
                "a precaution against CRC-2 false accepts; measured effect "
                "is small — in operational regimes few bad symbols pass, "
                "and in deep fades frames are lost regardless");
  Rng rng(2);
  std::vector<SubframeSpec> subframes{SubframeSpec{
      MacAddress::for_station(1),
      append_fcs(bench::random_psdu(4000, rng)), 7}};

  // Harsh NLOS regime: raw BER high enough that 25% of corrupted symbols
  // slip past CRC-2, which is exactly where the gate earns its keep.
  std::printf("%8s %10s | %14s %14s\n", "SNR", "gate", "raw BER",
              "FCS loss");
  std::vector<std::pair<double, double>> points;
  for (const double snr : {20.0, 26.0, 33.0}) {
    for (const double gate : {0.0, 0.2, 0.35}) {
      points.emplace_back(snr, gate);
    }
  }
  const auto rows = par::run_sharded(
      points.size(), g_threads, [&](const par::ShardInfo& info) {
        const auto [snr, gate] = points[info.index];
        FadingConfig channel;
        channel.snr_db = snr;
        channel.coherence_time = 3e-3;
        CarpoolFrameConfig txcfg;
        CarpoolRxConfig rxcfg;
        rxcfg.pilot_evm_gate = gate;
        const bench::LinkRun run =
            bench::run_link(subframes, txcfg, rxcfg, channel, 15, 5);
        return bench::rowf("%8.0f %10.2f | %14.2e %13.1f%%\n", snr, gate,
                           run.raw.ber(), 100.0 * run.fcs_fail.ratio());
      });
  for (const std::string& r : rows) std::fputs(r.c_str(), stdout);
}

void ablate_bloom_hashes() {
  bench::banner("Ablation C", "Bloom hash count h at N = 8 receivers",
                "optimum near h = (48/8) ln 2 ~ 4.2; the paper fixes 4");
  std::printf("%4s %12s %14s\n", "h", "theory", "empirical");
  const std::vector<std::size_t> hashes{1, 2, 3, 4, 5, 6, 8};
  const auto rows = par::run_sharded(
      hashes.size(), g_threads, [&](const par::ShardInfo& info) {
        const std::size_t h = hashes[info.index];
        // Per-point RNG stream (seeded by h) so the points are
        // independent jobs instead of sharing one sequential stream.
        Rng rng(3 + 1000 * h);
        RatioCounter fp;
        for (int trial = 0; trial < 20000; ++trial) {
          AggregationBloomFilter filter(h);
          for (std::size_t i = 0; i < 8; ++i) {
            filter.insert(MacAddress::for_station(static_cast<std::uint32_t>(
                              rng.uniform_int(1u << 24))),
                          i);
          }
          fp.add(filter.matches(
              MacAddress::for_station(
                  static_cast<std::uint32_t>((1u << 24) + trial)),
              rng.uniform_int(8)));
        }
        return bench::rowf("%4zu %12.5f %14.5f\n", h,
                           theoretical_fp_rate(8, h), fp.ratio());
      });
  for (const std::string& r : rows) std::fputs(r.c_str(), stdout);
}

void ablate_aggregation_width() {
  bench::banner("Ablation D", "aggregation width (max receivers per frame)",
                "goodput under contention grows with width and saturates");
  using namespace mac;
  // Latency-bounded VoIP with busy uplink (the Fig. 17 regime): serving
  // many stations per TXOP is what meets the deadline.
  std::printf("%6s %12s %10s %10s\n", "width", "goodput", "delay", "aggr");
  const std::vector<std::size_t> widths{1, 2, 4, 6, 8};
  const auto rows = par::run_sharded(
      widths.size(), g_threads, [&](const par::ShardInfo& info) {
        const std::size_t width = widths[info.index];
        SimConfig cfg;
        cfg.scheme = Scheme::kCarpool;
        cfg.num_stas = 42;
        cfg.duration = 10.0;
        cfg.seed = 4;
        cfg.aggregation.max_receivers = width;
        cfg.delivery_deadline = 0.02;
        Simulator sim(cfg);
        for (NodeId sta = 1; sta <= 30; ++sta) {
          for (auto& f : traffic::make_voip_call(
                   sta, traffic::VoipParams::near_peak())) {
            sim.add_flow(std::move(f));
          }
        }
        for (NodeId sta = 31; sta <= 42; ++sta) {
          sim.add_flow(traffic::make_poisson_flow(
              sta, 0.008, traffic::TraceKind::kSigcomm, /*uplink=*/true));
        }
        const SimResult r = sim.run();
        return bench::rowf("%6zu %10.2fMb %9.3fs %10.2f\n", width,
                           r.downlink_goodput_bps / 1e6, r.mean_delay_s,
                           r.avg_aggregated_receivers);
      });
  for (const std::string& r : rows) std::fputs(r.c_str(), stdout);
}

void ablate_sequential_ack() {
  bench::banner("Ablation E", "sequential ACK overhead vs receiver count",
                "Eq. (1): NAV grows by t_ACK + t_SIFS per receiver");
  const mac::MacParams p;
  std::printf("%6s %14s %14s %10s\n", "N", "ACK overhead", "1500B payload",
              "ACK share");
  for (const std::size_t n : {1u, 2u, 4u, 8u}) {
    const double acks = static_cast<double>(n) * (p.sifs + p.ack_duration());
    const double payload =
        p.payload_duration(8ull * 1500 * n) + p.plcp_header;
    std::printf("%6zu %12.1fus %12.1fus %9.1f%%\n", n, acks * 1e6,
                payload * 1e6, 100.0 * acks / (acks + payload));
  }
}

void ablate_rate_adaptation() {
  bench::banner("Ablation F", "per-subframe rate adaptation",
                "Carpool subframes may use different MCSs (Sec. 4.1); "
                "SNR-matched rates beat any fixed rate on mixed links");
  using namespace mac;
  // Half the stations near the AP (30 dB), half far (12 dB).
  std::vector<double> snrs;
  for (int i = 0; i < 24; ++i) snrs.push_back(i % 2 == 0 ? 30.0 : 12.0);

  auto run = [&](bool adapt, double fixed_rate) {
    SimConfig cfg;
    cfg.scheme = Scheme::kCarpool;
    cfg.num_stas = 24;
    cfg.duration = 8.0;
    cfg.seed = 6;
    cfg.sta_snr_db = snrs;
    cfg.link_policy.rate_adaptation = adapt;
    cfg.params.data_rate_bps = fixed_rate;
    Simulator sim(cfg);
    for (NodeId sta = 1; sta <= 24; ++sta) {
      for (auto& f :
           traffic::make_voip_call(sta, traffic::VoipParams::near_peak())) {
        sim.add_flow(std::move(f));
      }
    }
    return sim.run();
  };

  std::printf("%20s %12s %10s %12s\n", "policy", "goodput", "delay",
              "PHY losses");
  struct Policy {
    const char* name;
    bool adapt;
    double rate;
  };
  const std::vector<Policy> policies{{"fixed 65 Mb/s", false, 65e6},
                                     {"fixed 13 Mb/s", false, 13e6},
                                     {"SNR-adaptive", true, 65e6}};
  const auto results = par::run_sharded(
      policies.size(), g_threads, [&](const par::ShardInfo& info) {
        return run(policies[info.index].adapt, policies[info.index].rate);
      });
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const SimResult& r = results[i];
    std::printf("%20s %10.2fMb %9.3fs %12lu\n", policies[i].name,
                r.downlink_goodput_bps / 1e6, r.mean_delay_s,
                static_cast<unsigned long>(r.subframe_failures));
  }
}

void ablate_coexistence() {
  bench::banner("Ablation G", "legacy-station coexistence (Sec. 4.3)",
                "legacy stations get plain frames; Carpool's gain scales "
                "with the capable fraction and legacy users lose nothing");
  using namespace mac;
  std::printf("%14s %12s %10s %12s\n", "legacy STAs", "goodput", "delay",
              "aggregated");
  const std::vector<std::size_t> legacy_counts{0, 10, 20, 30};
  const auto rows = par::run_sharded(
      legacy_counts.size(), g_threads, [&](const par::ShardInfo& info) {
        const std::size_t legacy = legacy_counts[info.index];
        SimConfig cfg;
        cfg.scheme = Scheme::kCarpool;
        cfg.num_stas = 40;
        cfg.duration = 10.0;
        cfg.seed = 8;
        cfg.num_legacy_stas = legacy;
        Simulator sim(cfg);
        for (NodeId sta = 1; sta <= 40; ++sta) {
          for (auto& f : traffic::make_voip_call(
                   sta, traffic::VoipParams::near_peak())) {
            sim.add_flow(std::move(f));
          }
        }
        const SimResult r = sim.run();
        return bench::rowf("%11zu/40 %10.2fMb %9.3fs %12.2f\n", legacy,
                           r.downlink_goodput_bps / 1e6, r.mean_delay_s,
                           r.avg_aggregated_receivers);
      });
  for (const std::string& r : rows) std::fputs(r.c_str(), stdout);
}

void ablate_hidden_terminals() {
  bench::banner("Ablation H", "hidden terminals and RTS/CTS (Sec. 4.2)",
                "hidden pairs waste air on collisions; the multicast "
                "RTS/CTS of Fig. 7 shrinks the vulnerable window");
  using namespace mac;
  std::printf("%10s %8s %12s %12s %12s\n", "hidden", "RTS/CTS", "ul Mb/s",
              "collisions", "coll. air");
  std::vector<std::pair<double, bool>> points;
  for (const double fraction : {0.0, 0.3, 0.6}) {
    for (const bool rts : {false, true}) {
      points.emplace_back(fraction, rts);
    }
  }
  const auto rows = par::run_sharded(
      points.size(), g_threads, [&](const par::ShardInfo& info) {
        const auto [fraction, rts] = points[info.index];
        SimConfig cfg;
        cfg.scheme = Scheme::kDcf80211;
        cfg.num_stas = 20;
        cfg.duration = 8.0;
        cfg.seed = 12;
        cfg.hidden_pair_fraction = fraction;
        cfg.use_rts_cts = rts;
        Simulator sim(cfg);
        for (NodeId sta = 1; sta <= 20; ++sta) {
          sim.add_flow(traffic::make_poisson_flow(
              sta, 0.008, traffic::TraceKind::kSigcomm, /*uplink=*/true));
        }
        const SimResult r = sim.run();
        return bench::rowf("%10.1f %8s %12.2f %12lu %11.2fs\n", fraction,
                           rts ? "on" : "off", r.uplink_goodput_bps / 1e6,
                           static_cast<unsigned long>(r.collisions),
                           r.airtime_collision);
      });
  for (const std::string& r : rows) std::fputs(r.c_str(), stdout);
}

void ablate_link_policy_bursts() {
  bench::banner("Ablation I", "link policy under Gilbert-Elliott bursts",
                "static SNR thresholds cannot see correlated fades coming; "
                "ACK-feedback hysteresis sheds rate instead of suspending "
                "degraded links outright (docs/LINK_STATE.md)");
  using namespace mac;

  auto run = [&](bool feedback) {
    SimConfig cfg;
    cfg.scheme = Scheme::kCarpool;
    cfg.num_stas = 16;
    cfg.duration = 10.0;
    cfg.seed = 14;
    cfg.sta_snr_db.assign(16, 24.0);
    cfg.link_policy.rate_adaptation = true;
    cfg.link_policy.suspension = true;
    cfg.link_policy.feedback = feedback;
    GilbertElliottPhyModel::Params ge;
    ge.p_good_to_bad = 0.08;
    ge.p_bad_to_good = 0.25;
    ge.bad_snr_penalty_db = 14.0;  // 24 dB -> 10 dB: deep but not dead
    ge.period = 10e-3;
    ge.seed = 14;
    cfg.phy = std::make_shared<GilbertElliottPhyModel>(
        std::make_shared<AnalyticPhyModel>(), ge);
    Simulator sim(cfg);
    for (NodeId sta = 1; sta <= 16; ++sta) {
      sim.add_flow(traffic::make_cbr_flow(sta, 800, 0.01));
    }
    return sim.run();
  };

  const auto results = par::run_sharded(
      2, g_threads, [&](const par::ShardInfo& info) {
        return run(info.index == 1);  // 0: static threshold, 1: feedback
      });
  const SimResult& fixed = results[0];
  const SimResult& hysteresis = results[1];
  std::printf("%22s %12s %12s %10s %10s %8s\n", "policy", "goodput",
              "PHY losses", "suspends", "downs", "ups");
  auto row = [](const char* name, const SimResult& r) {
    std::printf("%22s %10.2fMb %12lu %10lu %10lu %8lu\n", name,
                r.downlink_goodput_bps / 1e6,
                static_cast<unsigned long>(r.subframe_failures),
                static_cast<unsigned long>(r.lq_suspensions),
                static_cast<unsigned long>(r.ls_rate_downgrades),
                static_cast<unsigned long>(r.ls_rate_upgrades));
  };
  row("static threshold", fixed);
  row("feedback hysteresis", hysteresis);
  bench::gauge("ablation.ge_static_goodput_bps", fixed.downlink_goodput_bps);
  bench::gauge("ablation.ge_feedback_goodput_bps",
               hysteresis.downlink_goodput_bps);
  if (hysteresis.downlink_goodput_bps < fixed.downlink_goodput_bps) {
    std::printf("  WARNING: hysteresis below static under bursts\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  g_threads = par::resolve_threads();  // CARPOOL_THREADS or serial
  cli::parse_flags(argc, argv,
                   {cli::threads_flag(g_threads), cli::kernel_flag()});
  ablate_rte_alpha();
  ablate_evm_gate();
  ablate_bloom_hashes();
  ablate_aggregation_width();
  ablate_sequential_ack();
  ablate_rate_adaptation();
  ablate_coexistence();
  ablate_hidden_terminals();
  ablate_link_policy_bursts();
  bench::write_metrics("ablation");
  return 0;
}
