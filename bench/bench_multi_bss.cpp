// Multi-BSS scaling sweep: aggregate Carpool goodput vs AP count on the
// sim::Topology campus (docs/MULTI_AP.md). The paper deploys Carpool at
// one AP; this sweep asks the city-scale question — does adding APs (each
// running its own Carpool-aggregating BSS, 3-channel reuse, co-channel
// SINR penalties, one roaming walker stirring handovers) keep adding
// throughput? The expected *shape* follows the multi-packet-reception
// scaling literature (arXiv:1006.4408): aggregate throughput grows with
// the number of parallel receivers, so goodput must be non-decreasing in
// AP count. The check is informational — reported as a gauge, judged by
// CI as a trend, not a blocking gate.
//
// Each sweep point holds the per-AP load constant (4 STAs per AP) and
// runs a MultiBssSim campaign whose BSS shards fan across carpool::par
// (--threads N / CARPOOL_THREADS); results are bit-identical at any
// thread count, so the emitted gauges are fingerprint-stable.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.hpp"
#include "par/par.hpp"
#include "sim/multi_bss.hpp"
#include "sim/topology.hpp"

namespace carpool::bench {
namespace {

constexpr std::size_t kApSweep[] = {1, 2, 4, 8, 16};
constexpr std::size_t kStasPerAp = 4;
constexpr double kDuration = 0.5;  ///< simulated seconds per point

/// One walker crossing the campus corner to corner, so every multi-AP
/// point exercises roaming handovers. STA 1's home is AP 0; the path
/// ends at the far AP of the grid.
sim::MobilityPath make_walker(const sim::Topology& topo) {
  const sim::Point from = topo.ap_position(0);
  const sim::Point to = topo.ap_position(topo.ap_count() - 1);
  std::vector<sim::TimedPoint> wp;
  wp.push_back({0.0, {from.x + 1.0, from.y + 1.0}});
  wp.push_back({kDuration, {to.x + 1.0, to.y + 1.0}});
  return sim::MobilityPath(std::move(wp));
}

int run(int argc, char** argv) {
  std::size_t threads = par::resolve_threads();  // CARPOOL_THREADS or 1
  cli::parse_flags(argc, argv,
                   {cli::threads_flag(threads), cli::kernel_flag()});
  banner("Multi-BSS", "aggregate goodput vs AP count",
         "not in the paper — city-scale extrapolation; MPR scaling shape "
         "per arXiv:1006.4408 (throughput grows with parallel receivers)");

  std::printf("\n%-6s %6s %14s %14s %10s %9s %7s\n", "APs", "STAs",
              "aggregate", "per-AP mean", "handovers", "domains", "idle");
  std::printf("%-6s %6s %14s %14s %10s %9s %7s\n", "", "", "(Mb/s)",
              "(Mb/s)", "", "", "");

  std::vector<double> aggregate_bps;
  for (const std::size_t aps : kApSweep) {
    sim::MultiBssConfig cfg;
    cfg.topology.ap_count = aps;
    // Scan fast enough that the walker roams at every multi-AP point of
    // this short sweep (default 0.25 s sees at most one scan in 0.5 s).
    cfg.topology.roam_interval = 0.05;
    cfg.num_stas = aps * kStasPerAp;
    cfg.duration = kDuration;
    cfg.seed = 2015;
    cfg.threads = static_cast<int>(threads);
    {
      // Walker path needs the AP grid geometry; build a throwaway
      // topology with the same spec/seed the campaign will use.
      const sim::Topology topo(cfg.topology, cfg.power_magnitude,
                               cfg.layout_seed);
      cfg.paths.resize(cfg.num_stas + 1);
      if (aps > 1) cfg.paths[1] = make_walker(topo);
    }

    sim::MultiBssSim sim(std::move(cfg));
    const sim::MultiBssResult res = sim.run();

    double per_ap_mean = 0.0;
    for (const double g : res.per_ap_goodput_bps) per_ap_mean += g;
    per_ap_mean /= static_cast<double>(res.ap_count);

    std::printf("%-6zu %6zu %14.2f %14.2f %10zu %9llu %7llu\n", aps,
                aps * kStasPerAp, res.aggregate_goodput_bps / 1e6,
                per_ap_mean / 1e6, res.handovers.size(),
                static_cast<unsigned long long>(res.domains_simulated),
                static_cast<unsigned long long>(res.domains_idle));

    const std::string suffix = "aps_" + std::to_string(aps);
    gauge("multi_bss.goodput_bps." + suffix, res.aggregate_goodput_bps);
    gauge("multi_bss.per_ap_goodput_bps." + suffix, per_ap_mean);
    gauge("multi_bss.handovers." + suffix,
          static_cast<double>(res.handovers.size()));
    aggregate_bps.push_back(res.aggregate_goodput_bps);
  }

  // MPR-style scaling trend: aggregate goodput non-decreasing in AP
  // count (small tolerance for co-channel interference at dense points).
  bool monotone = true;
  for (std::size_t i = 1; i < aggregate_bps.size(); ++i) {
    if (aggregate_bps[i] < aggregate_bps[i - 1] * 0.98) monotone = false;
  }
  gauge("multi_bss.scaling_monotone", monotone ? 1.0 : 0.0);
  std::printf("\nscaling monotone (MPR trend, informational): %s\n",
              monotone ? "yes" : "NO");

  write_metrics("multi_bss");
  return 0;
}

}  // namespace
}  // namespace carpool::bench

int main(int argc, char** argv) {
  return carpool::bench::run(argc, argv);
}
