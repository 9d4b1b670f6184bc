#include "dsp/complex_vec.hpp"

#include <cmath>
#include <stdexcept>

namespace carpool {

double mean_power(std::span<const Cx> samples) {
  if (samples.empty()) return 0.0;
  return energy(samples) / static_cast<double>(samples.size());
}

double energy(std::span<const Cx> samples) {
  double total = 0.0;
  for (const Cx& s : samples) total += std::norm(s);
  return total;
}

void scale(std::span<Cx> samples, double factor) {
  for (Cx& s : samples) s *= factor;
}

void rotate(std::span<Cx> samples, double theta) {
  const Cx phasor = cx_exp(theta);
  for (Cx& s : samples) s *= phasor;
}

CxVec multiply(std::span<const Cx> a, std::span<const Cx> b) {
  if (a.size() != b.size()) throw std::invalid_argument("multiply: size");
  CxVec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * b[i];
  return out;
}

CxVec divide(std::span<const Cx> a, std::span<const Cx> b) {
  if (a.size() != b.size()) throw std::invalid_argument("divide: size");
  CxVec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = (b[i] == Cx{}) ? Cx{} : a[i] / b[i];
  }
  return out;
}

double wrap_angle(double theta) {
  const double y = theta + kPi;
  // fmod is exact, so its value is known without calling it on the two
  // ranges phase accumulators land in: y itself when |y| < 2pi, and
  // y - 2pi on [2pi, 4pi), where the subtraction is exact (Sterbenz).
  // Everything else (large magnitudes, inf, NaN) takes fmod.
  double r;
  if (std::abs(y) < kTwoPi) {
    r = y;
  } else if (y >= kTwoPi && y < 2.0 * kTwoPi) {
    r = y - kTwoPi;
  } else {
    r = std::fmod(y, kTwoPi);
  }
  if (r <= 0.0) r += kTwoPi;
  return r - kPi;
}

double evm(std::span<const Cx> rx, std::span<const Cx> ref) {
  if (rx.size() != ref.size()) throw std::invalid_argument("evm: size");
  if (rx.empty()) return 0.0;
  double err = 0.0;
  double pow_ref = 0.0;
  for (std::size_t i = 0; i < rx.size(); ++i) {
    err += std::norm(rx[i] - ref[i]);
    pow_ref += std::norm(ref[i]);
  }
  return pow_ref == 0.0 ? 0.0 : std::sqrt(err / pow_ref);
}

}  // namespace carpool
