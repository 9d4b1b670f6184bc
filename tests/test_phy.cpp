#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "carpool/compat.hpp"
#include "carpool/rtscts.hpp"
#include "carpool/transceiver.hpp"
#include "channel/fading.hpp"
#include "common/rng.hpp"
#include "phy/constellation.hpp"
#include "phy/equalizer.hpp"
#include "phy/frame.hpp"
#include "phy/mcs.hpp"
#include "phy/ofdm.hpp"
#include "phy/preamble.hpp"
#include "phy/sig.hpp"
#include "phy/sync.hpp"

namespace carpool {
namespace {

Bytes random_psdu(std::size_t n, Rng& rng) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  return out;
}

class ConstellationParam : public ::testing::TestWithParam<Modulation> {};

TEST_P(ConstellationParam, MapDemapRoundTrip) {
  const Constellation& con = constellation(GetParam());
  Rng rng(17);
  for (int t = 0; t < 200; ++t) {
    Bits bits(con.bits_per_point());
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(2));
    EXPECT_EQ(con.demap_hard(con.map(bits)), bits);
  }
}

/// Searches over every constellation point: the references the per-axis
/// demap_soft and the allocation-free demap_hard_label must reproduce bit
/// for bit.
void demap_soft_point_search(const Constellation& con, Cx received,
                             double gain, SoftBits& out) {
  const auto points = con.points();
  for (std::size_t bit = 0; bit < con.bits_per_point(); ++bit) {
    double min0 = std::numeric_limits<double>::infinity();
    double min1 = std::numeric_limits<double>::infinity();
    for (std::size_t label = 0; label < points.size(); ++label) {
      const double d = std::norm(received - points[label]);
      if ((label >> bit) & 1u) {
        min1 = std::min(min1, d);
      } else {
        min0 = std::min(min0, d);
      }
    }
    out.push_back(gain * (min0 - min1));
  }
}

std::size_t demap_hard_point_search(const Constellation& con, Cx received) {
  const auto points = con.points();
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t label = 0; label < points.size(); ++label) {
    const double d = std::norm(received - points[label]);
    if (d < best_dist) {
      best_dist = d;
      best = label;
    }
  }
  return best;
}

TEST_P(ConstellationParam, DemapMatchesPointSearchBitForBit) {
  const Constellation& con = constellation(GetParam());
  std::vector<double> coords;
  // Exact ties: every axis level, every midpoint between two levels
  // (decision boundaries), and signed zeros.
  for (const Cx& p : con.points()) {
    for (const Cx& q : con.points()) {
      coords.push_back(p.real());
      coords.push_back(p.imag());
      coords.push_back((p.real() + q.real()) / 2.0);
      coords.push_back((p.imag() + q.imag()) / 2.0);
    }
  }
  std::sort(coords.begin(), coords.end());
  coords.erase(std::unique(coords.begin(), coords.end()), coords.end());
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v :
       {0.0, -0.0, 1e150, -1e150, 1e155, 1e200, -1e300,
        std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
        std::numeric_limits<double>::denorm_min(), inf, -inf,
        std::numeric_limits<double>::quiet_NaN()}) {
    coords.push_back(v);
  }
  std::vector<Cx> received;
  for (const double re : coords) {
    for (const double im : {0.0, -0.0, 0.3, -1.7, 1e200, inf, -inf,
                            std::numeric_limits<double>::quiet_NaN()}) {
      received.emplace_back(re, im);
      received.emplace_back(im, re);
    }
  }
  Rng rng(31);
  for (int i = 0; i < 4000; ++i) {
    received.emplace_back(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0));
  }
  for (const Cx& r : received) {
    for (const double gain : {1.0, 0.0, 0.37, 1e300, inf}) {
      SoftBits got;
      SoftBits want;
      con.demap_soft(r, gain, got);
      demap_soft_point_search(con, r, gain, want);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(double)),
                0)
          << modulation_name(GetParam()) << " at " << r << " gain " << gain;
    }
    EXPECT_EQ(con.demap_hard_label(r), demap_hard_point_search(con, r))
        << modulation_name(GetParam()) << " at " << r;
  }
}

TEST_P(ConstellationParam, UnitAveragePower) {
  const Constellation& con = constellation(GetParam());
  double power = 0.0;
  for (const Cx& p : con.points()) power += std::norm(p);
  EXPECT_NEAR(power / static_cast<double>(con.size()), 1.0, 1e-12);
}

TEST_P(ConstellationParam, GrayCodingNeighborsDifferByOneBit) {
  // Nearest distinct neighbours of every point differ in exactly one bit.
  const Constellation& con = constellation(GetParam());
  const auto points = con.points();
  for (std::size_t a = 0; a < points.size(); ++a) {
    double min_d = 1e18;
    for (std::size_t b = 0; b < points.size(); ++b) {
      if (a != b) min_d = std::min(min_d, std::abs(points[a] - points[b]));
    }
    for (std::size_t b = 0; b < points.size(); ++b) {
      if (a == b || std::abs(points[a] - points[b]) > min_d * 1.001) continue;
      EXPECT_EQ(std::popcount(a ^ b), 1)
          << modulation_name(GetParam()) << " labels " << a << "," << b;
    }
  }
}

TEST_P(ConstellationParam, SoftDemapSignsMatchHardDecision) {
  const Constellation& con = constellation(GetParam());
  Rng rng(18);
  for (int t = 0; t < 100; ++t) {
    Bits bits(con.bits_per_point());
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(2));
    const Cx point = con.map(bits);
    SoftBits soft;
    con.demap_soft(point, 1.0, soft);
    ASSERT_EQ(soft.size(), bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
      EXPECT_EQ(soft[i] > 0.0, bits[i] == 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModulations, ConstellationParam,
                         ::testing::Values(Modulation::kBpsk, Modulation::kQpsk,
                                           Modulation::kQam16,
                                           Modulation::kQam64));

TEST(Mcs, TableConsistency) {
  for (const Mcs& m : mcs_table()) {
    EXPECT_EQ(m.n_bpsc, bits_per_symbol(m.modulation));
    EXPECT_EQ(m.n_cbps, m.n_bpsc * kNumDataSubcarriers);
    EXPECT_NEAR(static_cast<double>(m.n_dbps),
                static_cast<double>(m.n_cbps) * rate_value(m.code_rate),
                1e-9);
    // data rate = n_dbps / 4us.
    EXPECT_NEAR(m.data_rate_bps, static_cast<double>(m.n_dbps) / 4e-6, 1.0);
  }
}

TEST(Mcs, NumDataSymbols) {
  // 100 bytes at 6M (24 dbps): (16+800+6)/24 = 34.25 -> 35 symbols.
  EXPECT_EQ(num_data_symbols(mcs(0), 100), 35u);
  // 1500 bytes at 54M (216 dbps): (16+12000+6)/216 = 55.7 -> 56.
  EXPECT_EQ(num_data_symbols(mcs(7), 1500), 56u);
}

TEST(Ofdm, SymbolRoundTripCleanChannel) {
  Rng rng(21);
  const Constellation& con = constellation(Modulation::kQam64);
  CxVec data(kNumDataSubcarriers);
  for (Cx& d : data) {
    d = con.points()[rng.uniform_int(con.size())];
  }
  const CxVec symbol = assemble_symbol(data, 3);
  const CxVec bins = extract_symbol(symbol);
  const CxVec got = gather_data(bins);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(got[i].real(), data[i].real(), 1e-9);
    EXPECT_NEAR(got[i].imag(), data[i].imag(), 1e-9);
  }
}

TEST(Ofdm, SymbolHasUnitMeanPower) {
  Rng rng(22);
  const Constellation& con = constellation(Modulation::kQpsk);
  CxVec data(kNumDataSubcarriers);
  for (Cx& d : data) d = con.points()[rng.uniform_int(con.size())];
  const CxVec symbol = assemble_symbol(data, 0);
  EXPECT_NEAR(mean_power(symbol), 1.0, 0.35);
}

TEST(Ofdm, PhaseOffsetRotatesAllSubcarriers) {
  Rng rng(23);
  const Constellation& con = constellation(Modulation::kQpsk);
  CxVec data(kNumDataSubcarriers);
  for (Cx& d : data) d = con.points()[rng.uniform_int(con.size())];
  const double theta = kPi / 3;
  const CxVec plain = extract_symbol(assemble_symbol(data, 2, 0.0));
  const CxVec rotated = extract_symbol(assemble_symbol(data, 2, theta));
  for (const std::size_t bin : data_bins()) {
    EXPECT_NEAR(wrap_angle(std::arg(rotated[bin]) - std::arg(plain[bin])),
                theta, 1e-9);
  }
  for (const std::size_t bin : pilot_bins()) {
    EXPECT_NEAR(wrap_angle(std::arg(rotated[bin]) - std::arg(plain[bin])),
                theta, 1e-9);
  }
}

TEST(Ofdm, PilotPolarityPeriodic) {
  for (std::size_t n = 0; n < 10; ++n) {
    EXPECT_EQ(pilot_polarity(n), pilot_polarity(n + 127));
  }
  // First elements of the Clause 17.3.5.9 sequence: 1 1 1 1 -1 -1 -1 1.
  const double expected[] = {1, 1, 1, 1, -1, -1, -1, 1};
  for (std::size_t n = 0; n < 8; ++n) {
    EXPECT_DOUBLE_EQ(pilot_polarity(n), expected[n]);
  }
}

TEST(Preamble, LtfChannelEstimateIdentityChannel) {
  const CxVec ltf = ltf_waveform();
  const CxVec h = estimate_channel_from_ltf(ltf);
  for (const std::size_t bin : data_bins()) {
    EXPECT_NEAR(std::abs(h[bin]), 1.0, 1e-9);
    EXPECT_NEAR(std::arg(h[bin]), 0.0, 1e-9);
  }
}

TEST(Preamble, CfoEstimationAccuracy) {
  // Apply a known CFO and check both estimators recover it.
  const double cfo = 0.01;  // radians per sample (~31.8 kHz at 20 Msps)
  CxVec pre = preamble_waveform();
  double phase = 0.0;
  for (Cx& s : pre) {
    s *= cx_exp(phase);
    phase += cfo;
  }
  const double coarse =
      estimate_coarse_cfo(std::span<const Cx>(pre).first(kStfLen));
  EXPECT_NEAR(coarse, cfo, 5e-4);
  apply_cfo_correction(pre, coarse);
  const double fine = estimate_fine_cfo(
      std::span<const Cx>(pre).subspan(kStfLen, kLtfLen));
  EXPECT_NEAR(coarse + fine, cfo, 5e-5);
}

TEST(Preamble, WaveformLengths) {
  EXPECT_EQ(stf_waveform().size(), kStfLen);
  EXPECT_EQ(ltf_waveform().size(), kLtfLen);
  EXPECT_EQ(preamble_waveform().size(), kPreambleLen);
}

TEST(Preamble, StfIsPeriodic16) {
  const CxVec stf = stf_waveform();
  for (std::size_t n = 0; n + 16 < stf.size(); ++n) {
    EXPECT_NEAR(std::abs(stf[n] - stf[n + 16]), 0.0, 1e-9);
  }
}

TEST(SymbolReader, BitIdenticalToDerotatingTheWholeCapture) {
  // Reference: derotate the whole capture (coarse pass, then fine pass),
  // then demodulate each symbol.
  Rng rng(404);
  const Bytes psdu = append_fcs(random_psdu(400, rng));
  const CxVec wave = LegacyTransmitter{}.build(psdu, mcs(4));
  FadingConfig cfg;
  cfg.seed = 9;
  cfg.snr_db = 22.0;
  cfg.cfo_hz = 37e3;  // tens of radians of phase over the frame
  FadingChannel channel(cfg);
  const CxVec rx = channel.transmit(wave);

  CxVec corrected = rx;
  const double coarse =
      estimate_coarse_cfo(std::span<const Cx>(corrected).first(kStfLen));
  apply_cfo_correction(corrected, coarse);
  const double fine = estimate_fine_cfo(
      std::span<const Cx>(corrected).subspan(kStfLen, kLtfLen));
  apply_cfo_correction(corrected, fine);
  const std::size_t n_sym = (rx.size() - kPreambleLen) / kSymbolLen;
  ASSERT_GT(n_sym, 20u);
  auto reference = [&](std::size_t sym) {
    return extract_symbol(std::span<const Cx>(corrected).subspan(
        kPreambleLen + sym * kSymbolLen, kSymbolLen));
  };
  auto expect_same = [](const CxVec& got, const CxVec& want) {
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(Cx)),
              0);
  };

  Frontend fe = receive_frontend(rx);
  ASSERT_TRUE(fe.ok());
  EXPECT_EQ(fe.cfo_radians_per_sample, coarse + fine);
  // One symbol, a skipped stretch, a batch, and the last symbol alone.
  expect_same(fe.symbols.read(kPreambleLen), reference(0));
  const CxVec batch = fe.symbols.read(kPreambleLen + 5 * kSymbolLen, 4);
  for (std::size_t s = 0; s < 4; ++s) {
    expect_same(CxVec(batch.begin() + static_cast<long>(s * kFftSize),
                      batch.begin() + static_cast<long>((s + 1) * kFftSize)),
                reference(5 + s));
  }
  const std::size_t last = kPreambleLen + (n_sym - 1) * kSymbolLen;
  expect_same(fe.symbols.read(last), reference(n_sym - 1));

  // Forward only, and never past the end of the capture.
  EXPECT_THROW((void)fe.symbols.read(kPreambleLen), std::logic_error);
  Frontend again = receive_frontend(rx);
  EXPECT_THROW((void)again.symbols.read(last, 2), std::invalid_argument);
  EXPECT_THROW((void)again.symbols.read(rx.size() + 1), std::invalid_argument);
}

TEST(Equalizer, RecoversInjectedPhase) {
  Rng rng(31);
  const Constellation& con = constellation(Modulation::kQpsk);
  CxVec data(kNumDataSubcarriers);
  for (Cx& d : data) d = con.points()[rng.uniform_int(con.size())];
  const double injected = kPi / 4;
  const CxVec bins = extract_symbol(assemble_symbol(data, 5, injected));
  const CxVec h(kFftSize, Cx{1.0, 0.0});
  const SymbolEqualization eq = equalize_symbol(bins, h, 5);
  EXPECT_NEAR(eq.phase_offset, injected, 1e-9);
  // Data fully compensated.
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(eq.data[i].real(), data[i].real(), 1e-9);
    EXPECT_NEAR(eq.data[i].imag(), data[i].imag(), 1e-9);
  }
}

TEST(Sig, EncodeDecodeRoundTrip) {
  for (std::size_t idx = 0; idx < 8; ++idx) {
    for (const std::size_t len : {1u, 100u, 1500u, 4095u}) {
      const SigInfo info{idx, len};
      const CxVec points = encode_sig(info);
      const std::vector<double> gains(48, 1.0);
      const auto decoded = decode_sig(points, gains);
      ASSERT_TRUE(decoded.has_value());
      EXPECT_EQ(decoded->mcs_index, idx);
      EXPECT_EQ(decoded->length_bytes, len);
    }
  }
}

TEST(Sig, RejectsInvalidLength) {
  EXPECT_THROW((void)encode_sig(SigInfo{0, 0}), std::invalid_argument);
  EXPECT_THROW((void)encode_sig(SigInfo{0, 4096}), std::invalid_argument);
  EXPECT_THROW((void)encode_sig(SigInfo{9, 100}), std::invalid_argument);
}

TEST(Fcs, AppendAndCheck) {
  Rng rng(41);
  const Bytes body = random_psdu(64, rng);
  Bytes framed = append_fcs(body);
  EXPECT_EQ(framed.size(), body.size() + 4);
  EXPECT_TRUE(check_fcs(framed));
  framed[10] ^= 0x01;
  EXPECT_FALSE(check_fcs(framed));
  EXPECT_FALSE(check_fcs(Bytes{1, 2, 3}));
}

class LegacyLoopback : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LegacyLoopback, PerfectChannelRoundTrip) {
  Rng rng(GetParam() + 50);
  const Mcs& m = mcs(GetParam());
  const Bytes psdu = append_fcs(random_psdu(300, rng));
  const LegacyTransmitter tx;
  const CxVec wave = tx.build(psdu, m);
  const LegacyReceiver rx;
  const LegacyRxResult result = rx.receive(wave);
  ASSERT_TRUE(result.sig_ok);
  EXPECT_EQ(result.sig.mcs_index, GetParam());
  EXPECT_EQ(result.sig.length_bytes, psdu.size());
  ASSERT_TRUE(result.decoded);
  EXPECT_TRUE(result.fcs_ok);
  EXPECT_EQ(result.psdu, psdu);
}

TEST_P(LegacyLoopback, HighSnrFadingRoundTrip) {
  Rng rng(GetParam() + 60);
  const Mcs& m = mcs(GetParam());
  const Bytes psdu = append_fcs(random_psdu(200, rng));
  const LegacyTransmitter tx;
  const CxVec wave = tx.build(psdu, m);

  FadingConfig cfg;
  cfg.seed = GetParam() + 7;
  cfg.snr_db = 35.0;
  cfg.coherence_time = 50e-3;
  cfg.cfo_hz = 5e3;
  FadingChannel channel(cfg);
  const CxVec rx_wave = channel.transmit(wave);

  const LegacyReceiver rx;
  const LegacyRxResult result = rx.receive(rx_wave);
  ASSERT_TRUE(result.sig_ok);
  ASSERT_TRUE(result.decoded);
  EXPECT_TRUE(result.fcs_ok) << m.name;
}

INSTANTIATE_TEST_SUITE_P(AllMcs, LegacyLoopback,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7));

TEST(LegacyReceiver, LowSnrFailsGracefully) {
  Rng rng(71);
  const Bytes psdu = append_fcs(random_psdu(500, rng));
  const LegacyTransmitter tx;
  const CxVec wave = tx.build(psdu, mcs(7));
  FadingConfig cfg;
  cfg.seed = 3;
  cfg.snr_db = -5.0;
  FadingChannel channel(cfg);
  const LegacyReceiver rx;
  const LegacyRxResult result = rx.receive(channel.transmit(wave));
  // At -5 dB SNR with 64-QAM the frame must not pass the FCS.
  EXPECT_FALSE(result.fcs_ok);
}

TEST(LegacyReceiver, TooShortWaveform) {
  const LegacyReceiver rx;
  const CxVec wave(100, Cx{});
  const LegacyRxResult result = rx.receive(wave);
  EXPECT_FALSE(result.sig_ok);
  EXPECT_FALSE(result.decoded);
}

TEST(Sync, DetectsFrameAtKnownOffset) {
  Rng rng(81);
  const Bytes psdu = append_fcs(random_psdu(64, rng));
  const LegacyTransmitter tx;
  const CxVec wave = tx.build(psdu, mcs(2));

  CxVec padded(500, Cx{});
  add_awgn(padded, 1e-4, rng);
  padded.insert(padded.end(), wave.begin(), wave.end());

  const auto sync = detect_frame(padded);
  ASSERT_TRUE(sync.has_value());
  EXPECT_NEAR(static_cast<double>(sync->frame_start), 500.0, 24.0);
}

TEST(Sync, NoFalseDetectionOnNoise) {
  Rng rng(82);
  CxVec noise(4000, Cx{});
  add_awgn(noise, 1.0, rng);
  EXPECT_FALSE(detect_frame(noise).has_value());
}

TEST(DataPath, BuildDataBitsLengthAndPadding) {
  const Mcs& m = mcs(0);  // 24 dbps
  const Bytes psdu(10, 0xFF);
  const Bits bits = build_data_bits(psdu, m);
  EXPECT_EQ(bits.size(), num_data_symbols(m, 10) * m.n_dbps);
}

TEST(DataPath, CodedStreamIsWholeSymbols) {
  for (const Mcs& m : mcs_table()) {
    const Bytes psdu(57, 0xA5);
    const Bits data = build_data_bits(psdu, m);
    const Bits coded = code_data_bits(data, m);
    EXPECT_EQ(coded.size() % m.n_cbps, 0u) << m.name;
  }
}

TEST(DataPath, HardDemapMatchesTxCodedBits) {
  // demap_symbol_hard must invert modulate_coded exactly (clean points).
  Rng rng(91);
  for (const Mcs& m : mcs_table()) {
    Bits coded(m.n_cbps * 2);
    for (auto& b : coded) b = static_cast<std::uint8_t>(rng.uniform_int(2));
    const auto symbols = modulate_coded(coded, m);
    ASSERT_EQ(symbols.size(), 2u);
    for (std::size_t s = 0; s < 2; ++s) {
      const Bits back = demap_symbol_hard(symbols[s], m);
      const Bits expect(coded.begin() + static_cast<long>(s * m.n_cbps),
                        coded.begin() + static_cast<long>((s + 1) * m.n_cbps));
      EXPECT_EQ(back, expect) << m.name;
    }
  }
}


// ------------------------------------------------------ golden decode digest

/// FNV-1a over every field the receivers return: statuses, PSDUs, hard
/// bits, side-channel bits and verdicts, RTE counts, phase offsets and the
/// bit patterns of the floating-point diagnostics. The receive path is
/// optimised under a bit-identity contract, so the digest is pinned:
/// changing any decoded bit, phase or estimate moves it.
class DecodeDigest {
 public:
  void byte(std::uint8_t b) { h_ = (h_ ^ b) * 0x100000001b3ULL; }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void bits(std::span<const std::uint8_t> b) {
    u64(b.size());
    for (const std::uint8_t x : b) byte(x);
  }

  void legacy(const LegacyRxResult& r) {
    u64(static_cast<std::uint64_t>(r.status));
    u64(r.sig_ok);
    u64(r.sig.mcs_index);
    u64(r.sig.length_bytes);
    u64(r.decoded);
    u64(r.fcs_ok);
    bits(r.psdu);
    u64(r.phase_offsets.size());
    for (const double p : r.phase_offsets) f64(p);
    u64(r.raw_symbol_bits.size());
    for (const Bits& b : r.raw_symbol_bits) bits(b);
  }

  void carpool(const CarpoolRxResult& r) {
    u64(static_cast<std::uint64_t>(r.status));
    f64(r.sync_quality);
    u64(r.ahdr_decoded);
    u64(r.matched.size());
    for (const std::size_t m : r.matched) u64(m);
    u64(r.subframes.size());
    for (const DecodedSubframe& sub : r.subframes) {
      u64(sub.index);
      u64(sub.sig.mcs_index);
      u64(sub.sig.length_bytes);
      u64(static_cast<std::uint64_t>(sub.status));
      u64(sub.decoded);
      u64(sub.fcs_ok);
      bits(sub.psdu);
      u64(sub.raw_symbol_bits.size());
      for (const Bits& b : sub.raw_symbol_bits) bits(b);
      u64(sub.group_verified.size());
      for (const bool v : sub.group_verified) u64(v);
      u64(sub.side_bits.size());
      for (const unsigned v : sub.side_bits) u64(v);
      u64(sub.rte_updates);
    }
    u64(r.subframes_walked);
    u64(r.symbols_full_decoded);
    u64(r.symbols_pilot_only);
    u64(r.rte_freezes);
    u64(r.rte_rollbacks);
    f64(r.rte_estimate_norm);
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

FadingConfig golden_channel(std::uint64_t seed, double snr_db,
                            double cfo_hz) {
  FadingConfig cfg;
  cfg.seed = seed;
  cfg.snr_db = snr_db;
  cfg.cfo_hz = cfo_hz;
  cfg.coherence_time = 2e-3;
  cfg.rician_los = true;
  cfg.rician_k_db = 8.0;
  return cfg;
}

TEST(GoldenDecode, CarpoolLegacyUniversalDigestPinned) {
  Rng rng(2024);
  DecodeDigest digest;
  std::vector<MacAddress> stations;
  for (std::uint32_t id = 1; id <= 5; ++id) {
    stations.push_back(MacAddress::for_station(id));
  }

  // Carpool: two 4-subframe aggregates covering MCS 0-7, each heard by the
  // four owners (SNR from clean to failing) and one station the A-HDR does
  // not name, over persistent Rician channels with CFO. Every receiver
  // decodes its own subframe and walks the others pilot-only.
  std::vector<FadingChannel> channels;
  const double snrs[5] = {32.0, 24.0, 17.0, 11.0, 20.0};
  for (std::size_t r = 0; r < 5; ++r) {
    channels.emplace_back(golden_channel(
        100 + r, snrs[r], 4e3 + 9e3 * static_cast<double>(r)));
  }
  const CarpoolTransmitter tx;
  CxVec last_rx;
  for (std::size_t frame = 0; frame < 4; ++frame) {
    std::vector<SubframeSpec> subframes;
    for (std::size_t i = 0; i < 4; ++i) {
      SubframeSpec spec;
      spec.receiver = stations[i];
      spec.mcs_index = (frame % 2) * 4 + (i + frame) % 4;
      spec.psdu = append_fcs(random_psdu(60 + rng.uniform_int(240), rng));
      subframes.push_back(std::move(spec));
    }
    const CxVec wave = tx.build(subframes);
    for (std::size_t r = 0; r < 5; ++r) {
      CarpoolRxConfig cfg;
      cfg.self = stations[r];
      const CarpoolReceiver rx(cfg);
      const CxVec rx_wave = channels[r].transmit(wave);
      digest.carpool(rx.receive(rx_wave));
      channels[r].idle(50e-6);
      if (r == 3) last_rx = rx_wave;
    }
  }
  // Captures cut inside the receiver's own subframe and inside a subframe
  // it only walks.
  {
    CarpoolRxConfig cfg;
    cfg.self = stations[3];
    const CarpoolReceiver rx(cfg);
    for (const std::size_t keep :
         {last_rx.size() - 3 * kSymbolLen - 17, last_rx.size() / 2}) {
      digest.carpool(rx.receive(std::span<const Cx>(last_rx).first(keep)));
    }
  }

  // Legacy frames at every MCS, one clean channel and one marginal one.
  const LegacyTransmitter legacy_tx;
  const LegacyReceiver legacy_rx;
  FadingChannel good(golden_channel(200, 30.0, 7e3));
  FadingChannel poor(golden_channel(201, 12.0, -11e3));
  for (std::size_t mcs_index = 0; mcs_index < 8; ++mcs_index) {
    const Bytes psdu = append_fcs(random_psdu(40 + rng.uniform_int(160), rng));
    const CxVec wave = legacy_tx.build(psdu, mcs(mcs_index));
    digest.legacy(legacy_rx.receive(good.transmit(wave)));
    digest.legacy(legacy_rx.receive(poor.transmit(wave)));
  }

  // UniversalReceiver: classify and decode a legacy and a Carpool frame.
  CarpoolRxConfig universal_cfg;
  universal_cfg.self = stations[1];
  const UniversalReceiver universal(universal_cfg);
  FadingChannel mixed(golden_channel(300, 26.0, 2e3));
  std::vector<SubframeSpec> pair(2);
  for (std::size_t i = 0; i < 2; ++i) {
    pair[i].receiver = stations[i];
    pair[i].mcs_index = 3 + 2 * i;
    pair[i].psdu = append_fcs(random_psdu(150, rng));
  }
  const CxVec universal_waves[2] = {
      legacy_tx.build(append_fcs(random_psdu(90, rng)), mcs(5)),
      tx.build(pair)};
  for (const CxVec& wave : universal_waves) {
    const UniversalRxResult u = universal.receive(mixed.transmit(wave));
    digest.u64(static_cast<std::uint64_t>(u.kind));
    if (u.legacy) digest.legacy(*u.legacy);
    if (u.carpool) digest.carpool(*u.carpool);
  }

  // Carpool RTS: slots and body as the named station decodes them.
  const RtsInfo info{MacAddress::for_station(77), 1234};
  const CarpoolRtsResult rts =
      receive_carpool_rts(mixed.transmit(build_carpool_rts(pair, info)),
                          stations[1]);
  digest.u64(rts.valid);
  digest.bits(rts.info.transmitter.octets());
  digest.u64(rts.info.duration_us);
  for (const std::size_t slot : rts.my_slots) digest.u64(slot);

  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016llx",
                static_cast<unsigned long long>(digest.value()));
  EXPECT_EQ(digest.value(), 0x1ab67569c3c20bfaULL) << "digest " << hex;
}

}  // namespace
}  // namespace carpool
