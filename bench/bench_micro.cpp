// Microbenchmarks (google-benchmark) for the processing-latency discussion
// in Sec. 8: A-HDR generation/check is O(h) and takes microseconds; the
// side-channel encode is negligible next to data encoding; plus throughput
// numbers for the heavy PHY blocks.
//
// The kernel-throughput section at the end times the dsp:: backends
// (docs/KERNELS.md) head to head and exports micro.*.symbols_per_sec
// gauges per backend plus micro.*.simd_speedup ratios; the ratios gate
// in CI via bench_diff, and this binary itself exits nonzero when the
// SIMD tier fails a conservative 2x floor on at least two of the three
// PHY kernels.

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_util.hpp"

#include "carpool/bloom.hpp"
#include "carpool/side_channel.hpp"
#include "carpool/transceiver.hpp"
#include "common/rng.hpp"
#include "dsp/fft.hpp"
#include "dsp/kernels.hpp"
#include "fec/interleaver.hpp"
#include "fec/scrambler.hpp"
#include "fec/viterbi.hpp"
#include "phy/frame.hpp"

namespace carpool {
namespace {

Bytes random_psdu(std::size_t n, Rng& rng) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  return out;
}

void BM_Fft64(benchmark::State& state) {
  Rng rng(1);
  CxVec data(64);
  for (Cx& x : data) x = Cx{rng.gaussian(), rng.gaussian()};
  for (auto _ : state) {
    CxVec copy = data;
    fft_inplace(copy);
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_Fft64);

void BM_BloomInsert8(benchmark::State& state) {
  // Sec. 8: A-HDR generation is O(h) per receiver, "a few microseconds".
  for (auto _ : state) {
    AggregationBloomFilter filter(4);
    for (std::size_t i = 0; i < 8; ++i) {
      filter.insert(MacAddress::for_station(static_cast<std::uint32_t>(i)),
                    i);
    }
    benchmark::DoNotOptimize(&filter);
  }
}
BENCHMARK(BM_BloomInsert8);

void BM_BloomCheck(benchmark::State& state) {
  AggregationBloomFilter filter(4);
  for (std::size_t i = 0; i < 8; ++i) {
    filter.insert(MacAddress::for_station(static_cast<std::uint32_t>(i)), i);
  }
  const MacAddress probe = MacAddress::for_station(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.matched_subframes(probe));
  }
}
BENCHMARK(BM_BloomCheck);

void BM_SideChannelEncode(benchmark::State& state) {
  Rng rng(2);
  std::vector<Bits> blocks(64, Bits(288));
  for (auto& block : blocks) {
    for (auto& bit : block) {
      bit = static_cast<std::uint8_t>(rng.uniform_int(2));
    }
  }
  const SymbolCrcScheme scheme{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode_side_channel(blocks, scheme));
  }
}
BENCHMARK(BM_SideChannelEncode);

void BM_ViterbiDecode(benchmark::State& state) {
  Rng rng(3);
  Bits data(static_cast<std::size_t>(state.range(0)));
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(2));
  const Bits coded = ConvolutionalCode::encode_terminated(data,
                                                          CodeRate::kHalf);
  const SoftBits soft = bits_to_soft(coded);
  const ViterbiDecoder decoder;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        decoder.decode_punctured(soft, CodeRate::kHalf, data.size()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_ViterbiDecode)->Arg(216)->Arg(1728);

void BM_Interleave(benchmark::State& state) {
  Rng rng(4);
  const Interleaver il(288, 6);
  Bits block(288);
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.uniform_int(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(il.interleave(block));
  }
}
BENCHMARK(BM_Interleave);

void BM_CarpoolTxBuild(benchmark::State& state) {
  Rng rng(5);
  std::vector<SubframeSpec> subframes;
  for (std::size_t i = 0; i < 4; ++i) {
    subframes.push_back(SubframeSpec{
        MacAddress::for_station(static_cast<std::uint32_t>(i + 1)),
        append_fcs(random_psdu(500, rng)), 7});
  }
  const CarpoolTransmitter tx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tx.build(subframes));
  }
}
BENCHMARK(BM_CarpoolTxBuild);

void BM_CarpoolRxDecode(benchmark::State& state) {
  Rng rng(6);
  std::vector<SubframeSpec> subframes;
  for (std::size_t i = 0; i < 4; ++i) {
    subframes.push_back(SubframeSpec{
        MacAddress::for_station(static_cast<std::uint32_t>(i + 1)),
        append_fcs(random_psdu(500, rng)), 7});
  }
  const CarpoolTransmitter tx;
  const CxVec wave = tx.build(subframes);
  CarpoolRxConfig cfg;
  cfg.self = subframes[2].receiver;
  const CarpoolReceiver rx(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rx.receive(wave));
  }
}
BENCHMARK(BM_CarpoolRxDecode);

void BM_Scrambler(benchmark::State& state) {
  Rng rng(7);
  Bits data(12000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(2));
  for (auto _ : state) {
    Scrambler s(0x5D);
    benchmark::DoNotOptimize(s.process(data));
  }
}
BENCHMARK(BM_Scrambler);

// ---------------------------------------------------------------------
// Kernel backend throughput: scalar reference vs the best SIMD tier.

/// Wall-clock rate of `op`, in items/sec, with `items` work items per
/// call. Adaptive batching: doubles the batch until one batch takes at
/// least ~50 ms, so the clock overhead is amortized identically for
/// fast (SIMD) and slow (scalar) backends.
template <typename Op>
double measure_rate(Op&& op, double items) {
  using Clock = std::chrono::steady_clock;
  op();  // warm caches and tables
  for (std::size_t batch = 64;; batch *= 2) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) op();
    const std::chrono::duration<double> elapsed = Clock::now() - start;
    if (elapsed.count() >= 0.05) {
      return static_cast<double>(batch) * items / elapsed.count();
    }
  }
}

struct KernelRates {
  double fft64 = 0.0;     ///< 64-point transforms / sec
  double viterbi = 0.0;   ///< trellis steps / sec
  double equalize = 0.0;  ///< 48-subcarrier symbols / sec
  double ahdr = 0.0;      ///< keyed-hash finalizations / sec
};

KernelRates measure_backend(const dsp::KernelBackend& backend) {
  Rng rng(42);
  KernelRates out;

  // A realistic demodulation burst: 16 back-to-back OFDM symbols through
  // the batch transform (the receiver's per-subframe shape). Each op is
  // a forward + inverse round trip with a 1/n rescale: the values stay
  // bounded across millions of iterations without re-seeding the buffer
  // through a memcpy that would dilute the kernel time being measured.
  constexpr std::size_t kFftBatch = 16;
  CxVec fft_buf(64 * kFftBatch);
  for (Cx& x : fft_buf) x = Cx{rng.gaussian(), rng.gaussian()};
  out.fft64 = measure_rate(
      [&] {
        backend.fft_batch(fft_buf.data(), 64, kFftBatch, -1);
        backend.fft_batch(fft_buf.data(), 64, kFftBatch, +1);
        double* raw = reinterpret_cast<double*>(fft_buf.data());
        for (std::size_t i = 0; i < 2 * 64 * kFftBatch; ++i) {
          raw[i] *= 1.0 / 64.0;
        }
        benchmark::DoNotOptimize(fft_buf.data());
      },
      static_cast<double>(2 * kFftBatch));

  constexpr std::size_t kSteps = 432;
  std::vector<double> soft(2 * kSteps);
  for (double& s : soft) s = rng.gaussian();
  std::vector<std::uint64_t> sel(kSteps);
  std::vector<double> final_metric(dsp::kViterbiStates);
  out.viterbi = measure_rate(
      [&] {
        backend.viterbi_forward(soft.data(), kSteps, sel.data(),
                                final_metric.data());
        benchmark::DoNotOptimize(sel.data());
      },
      static_cast<double>(kSteps));

  constexpr std::size_t kBins = kNumDataSubcarriers;  // 48
  constexpr std::size_t kSymbols = 64;  // amortize the sub-us symbol cost
  CxVec bins(kBins), h(kBins), data(kBins);
  std::vector<double> gains(kBins);
  for (Cx& x : bins) x = Cx{rng.gaussian(), rng.gaussian()};
  for (Cx& x : h) x = Cx{rng.gaussian(), rng.gaussian()};
  const Cx derotate = cx_exp(-0.21);
  out.equalize = measure_rate(
      [&] {
        for (std::size_t s = 0; s < kSymbols; ++s) {
          backend.equalize(bins.data(), h.data(), kBins, derotate,
                           data.data(), gains.data());
        }
        benchmark::DoNotOptimize(data.data());
      },
      static_cast<double>(kSymbols));

  constexpr std::size_t kHashes = 48;
  std::vector<std::uint64_t> keys(kHashes), hashes(kHashes);
  for (std::size_t i = 0; i < kHashes; ++i) keys[i] = 0x12340000ULL + i;
  out.ahdr = measure_rate(
      [&] {
        backend.ahdr_mix(0x9a3bc1d204857efULL, keys.data(), kHashes,
                         hashes.data());
        benchmark::DoNotOptimize(hashes.data());
      },
      static_cast<double>(kHashes));
  return out;
}

/// Times scalar vs the best SIMD tier, exports the gauges, and enforces
/// the self-gate. Returns the process exit code.
int kernel_throughput_report() {
  bench::banner("KERNELS", "dsp backend throughput (docs/KERNELS.md)",
                "scalar reference vs runtime-dispatched SIMD tier");
  std::printf("%s\n\n", dsp::kernel_info().c_str());

  const KernelRates scalar = measure_backend(dsp::scalar_backend());
  bench::gauge("micro.fft64.symbols_per_sec.scalar", scalar.fft64);
  bench::gauge("micro.viterbi.symbols_per_sec.scalar", scalar.viterbi);
  bench::gauge("micro.equalize.symbols_per_sec.scalar", scalar.equalize);
  bench::gauge("micro.ahdr.symbols_per_sec.scalar", scalar.ahdr);

  const dsp::KernelBackend* simd = dsp::simd_backend();
  if (simd == nullptr) {
    std::printf("no SIMD tier on this CPU; scalar rates only\n");
    std::printf("  fft64    %12.0f symbols/s\n", scalar.fft64);
    std::printf("  viterbi  %12.0f steps/s\n", scalar.viterbi);
    std::printf("  equalize %12.0f symbols/s\n", scalar.equalize);
    std::printf("  ahdr     %12.0f hashes/s\n", scalar.ahdr);
    return 0;
  }

  const KernelRates best = measure_backend(*simd);
  bench::gauge("micro.fft64.symbols_per_sec.simd", best.fft64);
  bench::gauge("micro.viterbi.symbols_per_sec.simd", best.viterbi);
  bench::gauge("micro.equalize.symbols_per_sec.simd", best.equalize);
  bench::gauge("micro.ahdr.symbols_per_sec.simd", best.ahdr);

  struct Row {
    const char* name;
    double scalar_rate;
    double simd_rate;
    bool gated;  ///< counts toward the 2-of-3 PHY-kernel floor
  };
  const Row rows[] = {
      {"micro.fft64", scalar.fft64, best.fft64, true},
      {"micro.viterbi", scalar.viterbi, best.viterbi, true},
      {"micro.equalize", scalar.equalize, best.equalize, true},
      {"micro.ahdr", scalar.ahdr, best.ahdr, false},
  };
  std::printf("kernel          scalar (items/s)    %s (items/s)   speedup\n",
              simd->name);
  int fast_enough = 0;
  for (const Row& row : rows) {
    const double speedup =
        row.scalar_rate > 0.0 ? row.simd_rate / row.scalar_rate : 0.0;
    // Tier-qualified name: the ratio only gates in bench_diff against
    // baselines recorded for the same best tier; on a runner with a
    // different feature set the baseline metric reads "(gone)" and this
    // one "(new)" — informational, not a spurious regression.
    bench::gauge(std::string(row.name) + ".simd_speedup." + simd->name,
                 speedup);
    std::printf("%-14s %17.0f %17.0f %8.2fx\n", row.name, row.scalar_rate,
                row.simd_rate, speedup);
    if (row.gated && speedup >= 2.0) ++fast_enough;
  }
  if (fast_enough < 2) {
    std::fprintf(stderr,
                 "bench_micro: SIMD tier %s beat the scalar reference 2x on "
                 "only %d of 3 PHY kernels (want >= 2) — kernel dispatch is "
                 "not paying for itself\n",
                 simd->name, fast_enough);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace carpool

int main(int argc, char** argv) {
  // Peel off the carpool flags; --benchmark_* goes on to google-benchmark.
  bool kernel_info = false;
  argc = carpool::bench::parse_flags(
      argc, argv,
      {carpool::bench::kernel_flag(),
       {"--kernel-info", nullptr,
        [&kernel_info](const char*) { return kernel_info = true; }}},
      "--benchmark_");
  if (kernel_info) {
    std::printf("%s\n", carpool::dsp::kernel_info().c_str());
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const int gate = carpool::kernel_throughput_report();
  carpool::bench::write_metrics("micro");
  return gate;
}
