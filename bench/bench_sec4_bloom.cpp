// Sec. 4.1 — A-HDR coded-Bloom-filter analysis:
//   - false-positive ratio vs number of receivers (theory and empirical),
//     paper: 0.31% (N=4, optimal h) ... 5.59% (N=8, h=4)
//   - h = (48/N) ln 2 optimality
//   - 12.5% overhead vs listing 8 MAC addresses

#include <cstdio>

#include "bench_util.hpp"
#include "carpool/bloom.hpp"

using namespace carpool;

int main(int argc, char** argv) {
  bench::parse_flags(argc, argv, {bench::kernel_flag()});
  bench::banner("Sec. 4.1", "A-HDR Bloom filter false-positive analysis",
                "r_FP = (1-e^{-hN/48})^h, 0.31%-5.59%% for N=4..8; "
                "A-HDR is 12.5%% of an 8-address list");

  std::printf("%4s %6s %12s %12s %14s\n", "N", "h*", "r_FP(h*)",
              "r_FP(h=4)", "empirical(h=4)");
  Rng rng(1);
  for (std::size_t n = 2; n <= kMaxReceivers; ++n) {
    const std::size_t h_opt = optimal_hash_count(n);
    // Empirical measurement at h = 4 (implementation value).
    RatioCounter fp;
    for (int trial = 0; trial < 30000; ++trial) {
      AggregationBloomFilter filter(4);
      for (std::size_t i = 0; i < n; ++i) {
        filter.insert(MacAddress::for_station(static_cast<std::uint32_t>(
                          rng.uniform_int(1u << 24))),
                      i);
      }
      const MacAddress outsider = MacAddress::for_station(
          static_cast<std::uint32_t>((1u << 24) + trial));
      fp.add(filter.matches(outsider, rng.uniform_int(n)));
    }
    std::printf("%4zu %6zu %12.5f %12.5f %14.5f\n", n, h_opt,
                theoretical_fp_rate(n, h_opt), theoretical_fp_rate(n, 4),
                fp.ratio());
  }

  std::printf("\nOverhead comparison for 8 receivers:\n");
  std::printf("  explicit MAC addresses: %d bits\n", 48 * 8);
  std::printf("  A-HDR Bloom filter:     %zu bits (%.1f%%)\n", kAhdrBits,
              100.0 * static_cast<double>(kAhdrBits) / (48.0 * 8.0));

  // The strawman overhead example of Sec. 3: 8 x 1500 B at 600 Mbit/s with
  // addresses at 6.5 Mbit/s.
  const double addr_time = 48.0 * 8.0 / 6.5e6;
  const double payload_time = 1500.0 * 8.0 / 600e6;
  std::printf("\nSec. 3 example: address headers %.1f us vs payload %.1f us "
              "(paper: 59 us vs 20 us)\n",
              addr_time * 1e6, payload_time * 1e6);
  bench::write_metrics("sec4_bloom");
  return 0;
}
