// Parameter sweep to CSV: run the MAC simulator over a grid of
// (scheme, station count, seed) and emit machine-readable rows — the shape
// downstream users need for plotting their own Fig. 15-style curves.
//
//   ./parameter_sweep [out.csv]                (default: stdout)
//   ./parameter_sweep --link-policy [out.csv]
//   ./parameter_sweep --threads 0 out.csv      (all cores, same CSV)
//   ./parameter_sweep --kernel scalar out.csv  (pin the DSP backend)
//
// Grid points fan across carpool::par workers (--threads N /
// CARPOOL_THREADS, docs/PARALLELISM.md); rows are emitted in grid order
// after the sharded run, so the CSV is byte-identical at any thread
// count.
//
// The --link-policy mode sweeps the LinkPolicyConfig hysteresis axes
// instead (down_after x up_after x probe backoff, docs/LINK_STATE.md)
// under Gilbert-Elliott bursts, and appends a per-STA MCS decision trace —
// every link-state transition with the rate in force after it — so policy
// tuning can be eyeballed from one CSV.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "mac/simulator.hpp"
#include "par/par.hpp"
#include "traffic/generators.hpp"

using namespace carpool;
using namespace carpool::mac;

namespace {

std::size_t g_threads = 1;

/// printf into a std::string (rows are formatted inside shard jobs and
/// written to the CSV in grid order afterwards).
template <class... Args>
std::string rowf(const char* fmt, Args... args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return std::string(buf);
}

void sweep_schemes(std::FILE* out) {
  std::fprintf(out,
               "scheme,stas,seed,goodput_mbps,mean_delay_s,p95_delay_s,"
               "collisions,tx_attempts,subframe_failures,delivered,dropped,"
               "avg_aggregated,airtime_payload,airtime_overhead,"
               "airtime_collision,airtime_idle\n");

  const Scheme schemes[] = {Scheme::kCarpool, Scheme::kMuAggregation,
                            Scheme::kAmpdu, Scheme::kDcf80211,
                            Scheme::kWiFox};
  struct Point {
    std::size_t n;
    Scheme scheme;
    std::uint64_t seed;
  };
  std::vector<Point> grid;
  for (std::size_t n = 10; n <= 46; n += 12) {
    for (const Scheme scheme : schemes) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        grid.push_back({n, scheme, seed});
      }
    }
  }
  const auto rows = par::run_sharded(
      grid.size(), g_threads, [&](const par::ShardInfo& info) {
        const Point& pt = grid[info.index];
        SimConfig cfg;
        cfg.scheme = pt.scheme;
        cfg.num_stas = pt.n;
        cfg.duration = 8.0;
        cfg.seed = pt.seed;
        cfg.default_snr_db = 26.0;
        Simulator sim(cfg);
        for (NodeId sta = 1; sta <= pt.n; ++sta) {
          for (auto& flow : traffic::make_voip_call(
                   sta, traffic::VoipParams::near_peak())) {
            sim.add_flow(std::move(flow));
          }
        }
        const SimResult r = sim.run();
        return rowf(
            "%s,%zu,%llu,%.4f,%.5f,%.5f,%llu,%llu,%llu,%llu,%llu,%.3f,"
            "%.4f,%.4f,%.4f,%.4f\n",
            scheme_name(pt.scheme).data(), pt.n,
            static_cast<unsigned long long>(pt.seed),
            r.downlink_goodput_bps / 1e6, r.mean_delay_s, r.p95_delay_s,
            static_cast<unsigned long long>(r.collisions),
            static_cast<unsigned long long>(r.tx_attempts),
            static_cast<unsigned long long>(r.subframe_failures),
            static_cast<unsigned long long>(r.dl_frames_delivered),
            static_cast<unsigned long long>(r.dl_frames_dropped),
            r.avg_aggregated_receivers, r.airtime_payload,
            r.airtime_overhead, r.airtime_collision, r.airtime_idle);
      });
  for (const std::string& row : rows) std::fputs(row.c_str(), out);
}

void sweep_link_policy(std::FILE* out) {
  // Bursty links with a mixed SNR population: the regime where the
  // hysteresis knobs actually move the outcome.
  constexpr std::size_t kStas = 12;

  std::fprintf(out,
               "down_after,up_after,initial_timeout_s,goodput_mbps,"
               "mean_delay_s,subframe_failures,suspensions,probes,"
               "rate_downgrades,rate_upgrades,transitions\n");

  struct Point {
    std::size_t down, up;
    double timeout;
  };
  std::vector<Point> grid;
  for (const std::size_t down_after : {1u, 3u, 6u}) {
    for (const std::size_t up_after : {4u, 10u, 20u}) {
      for (const double initial_timeout : {10e-3, 40e-3}) {
        grid.push_back({down_after, up_after, initial_timeout});
      }
    }
  }

  struct PolicyRun {
    std::string row;
    std::vector<LinkTransition> log;
  };
  const auto runs = par::run_sharded(
      grid.size(), g_threads, [&](const par::ShardInfo& info) {
        const Point& pt = grid[info.index];
        SimConfig cfg;
        cfg.scheme = Scheme::kCarpool;
        cfg.num_stas = kStas;
        cfg.duration = 6.0;
        cfg.seed = 21;
        for (std::size_t i = 0; i < kStas; ++i) {
          cfg.sta_snr_db.push_back(i % 2 == 0 ? 27.0 : 16.0);
        }
        cfg.link_policy.rate_adaptation = true;
        cfg.link_policy.feedback = true;
        cfg.link_policy.suspension = true;
        cfg.link_policy.down_after = pt.down;
        cfg.link_policy.up_after = pt.up;
        cfg.link_policy.initial_timeout = pt.timeout;
        cfg.link_policy.max_timeout = 16.0 * pt.timeout;
        cfg.link_policy.record_transitions = true;
        GilbertElliottPhyModel::Params ge;
        ge.p_good_to_bad = 0.08;
        ge.p_bad_to_good = 0.25;
        ge.bad_snr_penalty_db = 12.0;
        ge.period = 10e-3;
        ge.seed = 21;
        cfg.phy = std::make_shared<GilbertElliottPhyModel>(
            std::make_shared<AnalyticPhyModel>(), ge);
        Simulator sim(cfg);
        for (NodeId sta = 1; sta <= kStas; ++sta) {
          sim.add_flow(traffic::make_cbr_flow(sta, 700, 0.01));
        }
        const SimResult r = sim.run();
        PolicyRun pr;
        pr.row = rowf("%zu,%zu,%.3f,%.4f,%.5f,%llu,%llu,%llu,%llu,%llu,"
                      "%llu\n",
                      pt.down, pt.up, pt.timeout,
                      r.downlink_goodput_bps / 1e6, r.mean_delay_s,
                      static_cast<unsigned long long>(r.subframe_failures),
                      static_cast<unsigned long long>(r.lq_suspensions),
                      static_cast<unsigned long long>(r.lq_probes),
                      static_cast<unsigned long long>(r.ls_rate_downgrades),
                      static_cast<unsigned long long>(r.ls_rate_upgrades),
                      static_cast<unsigned long long>(r.ls_transitions));
        pr.log = r.link_transitions;
        return pr;
      });
  for (const PolicyRun& pr : runs) std::fputs(pr.row.c_str(), out);

  // Per-STA MCS decision trace: one row per recorded transition, tagged
  // with the policy point that produced it.
  std::fprintf(out,
               "\ntrace:down_after,up_after,initial_timeout_s,t,sta,from,to,"
               "rate_mbps\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Point& pt = grid[i];
    for (const LinkTransition& tr : runs[i].log) {
      std::fprintf(out, "trace:%zu,%zu,%.3f,%.5f,%u,%s,%s,%.1f\n", pt.down,
                   pt.up, pt.timeout, tr.time,
                   static_cast<unsigned>(tr.sta),
                   link_health_name(tr.from).data(),
                   link_health_name(tr.to).data(), tr.rate_bps / 1e6);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool link_policy = false;
  const char* path = nullptr;
  g_threads = carpool::par::resolve_threads();  // CARPOOL_THREADS or 1
  carpool::bench::parse_flags(
      argc, argv,
      {{"--link-policy", nullptr,
        [&link_policy](const char*) { return link_policy = true; }},
       carpool::bench::threads_flag(g_threads),
       carpool::bench::kernel_flag(),
       {"OUT", nullptr, [&path](const char* text) {
          path = text;
          return true;
        }}});

  std::FILE* out = stdout;
  if (path != nullptr) {
    out = std::fopen(path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path);
      return 1;
    }
  }

  if (link_policy) {
    sweep_link_policy(out);
  } else {
    sweep_schemes(out);
  }
  if (out != stdout) std::fclose(out);
  return 0;
}
