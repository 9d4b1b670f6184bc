#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/rng.hpp"
#include "dsp/complex_vec.hpp"
#include "dsp/fft.hpp"

namespace carpool {
namespace {

CxVec random_vec(std::size_t n, Rng& rng) {
  CxVec v(n);
  for (Cx& x : v) x = Cx{rng.gaussian(), rng.gaussian()};
  return v;
}

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, MatchesReferenceDft) {
  Rng rng(GetParam());
  const CxVec input = random_vec(GetParam(), rng);
  const CxVec fast = fft(input);
  const CxVec slow = dft_reference(input);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i].real(), slow[i].real(), 1e-9);
    EXPECT_NEAR(fast[i].imag(), slow[i].imag(), 1e-9);
  }
}

TEST_P(FftSizes, InverseRoundTrip) {
  Rng rng(GetParam() + 100);
  const CxVec input = random_vec(GetParam(), rng);
  const CxVec back = ifft(fft(input));
  for (std::size_t i = 0; i < input.size(); ++i) {
    EXPECT_NEAR(back[i].real(), input[i].real(), 1e-9);
    EXPECT_NEAR(back[i].imag(), input[i].imag(), 1e-9);
  }
}

TEST_P(FftSizes, ParsevalEnergyConservation) {
  Rng rng(GetParam() + 200);
  const CxVec input = random_vec(GetParam(), rng);
  const CxVec spec = fft(input);
  EXPECT_NEAR(energy(spec), energy(input) * static_cast<double>(input.size()),
              1e-6 * energy(input) * static_cast<double>(input.size()));
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizes,
                         ::testing::Values(2, 4, 8, 16, 64, 128, 256));

TEST(Fft, RejectsNonPowerOfTwo) {
  CxVec v(48);
  EXPECT_THROW(fft_inplace(v), std::invalid_argument);
  CxVec empty;
  EXPECT_THROW(fft_inplace(empty), std::invalid_argument);
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  CxVec v(64, Cx{});
  v[0] = Cx{1.0, 0.0};
  const CxVec spec = fft(v);
  for (const Cx& s : spec) {
    EXPECT_NEAR(s.real(), 1.0, 1e-12);
    EXPECT_NEAR(s.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  constexpr std::size_t kN = 64;
  constexpr std::size_t kBin = 5;
  CxVec v(kN);
  for (std::size_t n = 0; n < kN; ++n) {
    v[n] = cx_exp(kTwoPi * kBin * n / static_cast<double>(kN));
  }
  const CxVec spec = fft(v);
  for (std::size_t k = 0; k < kN; ++k) {
    const double expected = (k == kBin) ? static_cast<double>(kN) : 0.0;
    EXPECT_NEAR(std::abs(spec[k]), expected, 1e-9);
  }
}

TEST(ComplexVec, MeanPowerAndEnergy) {
  const CxVec v{Cx{1, 0}, Cx{0, 1}, Cx{1, 1}};
  EXPECT_DOUBLE_EQ(energy(v), 4.0);
  EXPECT_DOUBLE_EQ(mean_power(v), 4.0 / 3.0);
  EXPECT_DOUBLE_EQ(mean_power(CxVec{}), 0.0);
}

TEST(ComplexVec, ScaleAndRotate) {
  CxVec v{Cx{1, 0}, Cx{0, 2}};
  scale(v, 2.0);
  EXPECT_DOUBLE_EQ(v[0].real(), 2.0);
  EXPECT_DOUBLE_EQ(v[1].imag(), 4.0);
  rotate(v, kPi / 2);
  EXPECT_NEAR(v[0].real(), 0.0, 1e-12);
  EXPECT_NEAR(v[0].imag(), 2.0, 1e-12);
}

TEST(ComplexVec, DivideHandlesZeroDenominator) {
  const CxVec a{Cx{1, 0}, Cx{2, 0}};
  const CxVec b{Cx{2, 0}, Cx{0, 0}};
  const CxVec q = divide(a, b);
  EXPECT_DOUBLE_EQ(q[0].real(), 0.5);
  EXPECT_EQ(q[1], Cx{});
}

TEST(ComplexVec, WrapAngle) {
  EXPECT_NEAR(wrap_angle(0.0), 0.0, 1e-12);
  EXPECT_NEAR(wrap_angle(kPi / 2), kPi / 2, 1e-12);
  EXPECT_NEAR(wrap_angle(kTwoPi + 0.1), 0.1, 1e-12);
  EXPECT_NEAR(wrap_angle(-kTwoPi - 0.1), -0.1, 1e-12);
  EXPECT_NEAR(wrap_angle(3 * kPi), kPi, 1e-12);
}

/// The plain fmod formula: the reference wrap_angle's fmod-free fast path
/// must reproduce bit for bit.
double wrap_angle_fmod(double theta) {
  theta = std::fmod(theta + kPi, kTwoPi);
  if (theta <= 0.0) theta += kTwoPi;
  return theta - kPi;
}

TEST(ComplexVec, WrapAngleFastPathMatchesFmodBitForBit) {
  auto same_bits = [](double theta) {
    const double got = wrap_angle(theta);
    const double want = wrap_angle_fmod(theta);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
        << "theta " << theta << " got " << got << " want " << want;
  };
  const double inf = std::numeric_limits<double>::infinity();
  // theta + pi lands on 0, 2pi, 4pi (and -2pi) and their nextafter
  // neighbours: walk a few ulps either side of each target - pi, so the
  // fast-path boundaries are hit from both sides.
  for (const double y : {0.0, kTwoPi, 2.0 * kTwoPi, -kTwoPi}) {
    double below = y - kPi;
    double above = below;
    for (int ulp = 0; ulp < 8; ++ulp) {
      same_bits(below);
      same_bits(above);
      below = std::nextafter(below, -inf);
      above = std::nextafter(above, inf);
    }
  }
  for (const double theta :
       {0.0, -0.0, kPi, -kPi, 3 * kPi, -3 * kPi, -1.0, -7.5, -100.0, 1e300,
        -1e300, 1e-300, inf, -inf, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::denorm_min()}) {
    same_bits(theta);
  }
  // Random angles and a long phase accumulator, the channel's use.
  Rng rng(123);
  for (int i = 0; i < 20000; ++i) same_bits(rng.uniform(-40.0, 40.0));
  double phase = 0.0;
  for (int i = 0; i < 200000; ++i) {
    same_bits(phase + 0.0137);
    phase = wrap_angle_fmod(phase + 0.0137);
  }
}

TEST(ComplexVec, EvmZeroForIdentical) {
  Rng rng(3);
  const CxVec v = random_vec(32, rng);
  EXPECT_DOUBLE_EQ(evm(v, v), 0.0);
}

TEST(ComplexVec, EvmScalesWithError) {
  const CxVec ref{Cx{1, 0}, Cx{-1, 0}};
  const CxVec rx{Cx{1.1, 0}, Cx{-0.9, 0}};
  EXPECT_NEAR(evm(rx, ref), 0.1, 1e-12);
}

TEST(ComplexVec, SizeMismatchThrows) {
  const CxVec a(3), b(4);
  EXPECT_THROW((void)multiply(a, b), std::invalid_argument);
  EXPECT_THROW((void)divide(a, b), std::invalid_argument);
  EXPECT_THROW((void)evm(a, b), std::invalid_argument);
}

}  // namespace
}  // namespace carpool
