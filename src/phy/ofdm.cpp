#include "phy/ofdm.hpp"

#include <cmath>
#include <stdexcept>

#include "dsp/fft.hpp"
#include "dsp/kernels.hpp"
#include "fec/scrambler.hpp"
#include "obs/timer.hpp"

namespace carpool {
namespace {

constexpr std::size_t bin_of(int subcarrier) {
  return subcarrier >= 0 ? static_cast<std::size_t>(subcarrier)
                         : kFftSize - static_cast<std::size_t>(-subcarrier);
}

std::array<std::size_t, kNumDataSubcarriers> make_data_bins() {
  std::array<std::size_t, kNumDataSubcarriers> bins{};
  std::size_t idx = 0;
  for (int sc = -26; sc <= 26; ++sc) {
    if (sc == 0 || sc == -21 || sc == -7 || sc == 7 || sc == 21) continue;
    bins[idx++] = bin_of(sc);
  }
  return bins;
}

const std::array<std::size_t, kNumDataSubcarriers> kDataBins = make_data_bins();
constexpr std::array<std::size_t, kNumPilots> kPilotBins{
    bin_of(-21), bin_of(-7), bin_of(7), bin_of(21)};
constexpr std::array<double, kNumPilots> kPilotBase{1.0, 1.0, 1.0, -1.0};

// Normalise so the time-domain symbol has unit mean power when the 52
// occupied bins carry unit-power points.
const double kScale = static_cast<double>(kFftSize) / std::sqrt(52.0);

std::array<double, 127> make_polarity() {
  // The polarity sequence equals 1 - 2*s_n where s_n is the output of the
  // 802.11 scrambler LFSR seeded with all ones.
  std::array<double, 127> seq{};
  Scrambler lfsr(0x7F);
  for (double& value : seq) value = lfsr.next_bit() ? -1.0 : 1.0;
  return seq;
}

const std::array<double, 127> kPolarity = make_polarity();

}  // namespace

std::span<const std::size_t> data_bins() noexcept { return kDataBins; }
std::span<const std::size_t> pilot_bins() noexcept { return kPilotBins; }
std::span<const double> pilot_base() noexcept { return kPilotBase; }

double pilot_polarity(std::size_t symbol_index) noexcept {
  return kPolarity[symbol_index % kPolarity.size()];
}

CxVec assemble_symbol(std::span<const Cx> data, std::size_t symbol_index,
                      double phase_offset) {
  if (data.size() != kNumDataSubcarriers) {
    throw std::invalid_argument("assemble_symbol: need 48 data points");
  }
  OBS_TIMED_SPAN("phy.ofdm_modulate");
  CxVec bins(kFftSize, Cx{});
  const Cx rotation = cx_exp(phase_offset);
  for (std::size_t i = 0; i < kNumDataSubcarriers; ++i) {
    bins[kDataBins[i]] = data[i] * rotation;
  }
  const double polarity = pilot_polarity(symbol_index);
  for (std::size_t i = 0; i < kNumPilots; ++i) {
    bins[kPilotBins[i]] = Cx{kPilotBase[i] * polarity, 0.0} * rotation;
  }
  CxVec time = ifft(bins);
  scale(time, kScale);

  CxVec symbol;
  symbol.reserve(kSymbolLen);
  symbol.insert(symbol.end(), time.end() - kCpLen, time.end());
  symbol.insert(symbol.end(), time.begin(), time.end());
  return symbol;
}

CxVec extract_symbol(std::span<const Cx> samples) {
  if (samples.size() != kSymbolLen) {
    throw std::invalid_argument("extract_symbol: need 80 samples");
  }
  CxVec bins(samples.begin() + kCpLen, samples.end());
  demodulate_windows(bins);
  return bins;
}

void demodulate_windows(std::span<Cx> windows) {
  if (windows.size() % kFftSize != 0) {
    throw std::invalid_argument("demodulate_windows: not whole windows");
  }
  OBS_TIMED_SPAN("phy.ofdm_demodulate");
  dsp::active_backend().fft_batch(windows.data(), kFftSize,
                                  windows.size() / kFftSize, -1);
  scale(windows, 1.0 / kScale);
}

CxVec gather_data(std::span<const Cx> bins) {
  if (bins.size() != kFftSize) {
    throw std::invalid_argument("gather_data: need 64 bins");
  }
  CxVec out(kNumDataSubcarriers);
  for (std::size_t i = 0; i < kNumDataSubcarriers; ++i) {
    out[i] = bins[kDataBins[i]];
  }
  return out;
}

CxVec gather_pilots(std::span<const Cx> bins) {
  if (bins.size() != kFftSize) {
    throw std::invalid_argument("gather_pilots: need 64 bins");
  }
  CxVec out(kNumPilots);
  for (std::size_t i = 0; i < kNumPilots; ++i) out[i] = bins[kPilotBins[i]];
  return out;
}

}  // namespace carpool
