#include "phy/constellation.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace carpool {
namespace {

// Gray-coded PAM levels per axis, indexed by the axis bits packed with the
// first (earliest) bit as LSB. Values follow IEEE 802.11 Tables 17-(9..11).
constexpr std::array<double, 2> kPam2{-1.0, 1.0};
constexpr std::array<double, 4> kPam4{-3.0, 3.0, -1.0, 1.0};
constexpr std::array<double, 8> kPam8{-7.0, 7.0, -1.0, 1.0,
                                      -5.0, 5.0, -3.0, 3.0};

double pam_level(unsigned packed, std::size_t bits_per_axis) {
  switch (bits_per_axis) {
    case 1:
      return kPam2[packed];
    case 2:
      return kPam4[packed];
    case 3:
      return kPam8[packed];
    default:
      throw std::logic_error("pam_level: unsupported axis width");
  }
}

double normalization(Modulation mod) {
  switch (mod) {
    case Modulation::kBpsk:
      return 1.0;
    case Modulation::kQpsk:
      return 1.0 / std::sqrt(2.0);
    case Modulation::kQam16:
      return 1.0 / std::sqrt(10.0);
    case Modulation::kQam64:
      return 1.0 / std::sqrt(42.0);
  }
  throw std::logic_error("unknown modulation");
}

}  // namespace

std::size_t bits_per_symbol(Modulation mod) noexcept {
  switch (mod) {
    case Modulation::kBpsk:
      return 1;
    case Modulation::kQpsk:
      return 2;
    case Modulation::kQam16:
      return 4;
    case Modulation::kQam64:
      return 6;
  }
  return 1;
}

std::string_view modulation_name(Modulation mod) noexcept {
  switch (mod) {
    case Modulation::kBpsk:
      return "BPSK";
    case Modulation::kQpsk:
      return "QPSK";
    case Modulation::kQam16:
      return "QAM16";
    case Modulation::kQam64:
      return "QAM64";
  }
  return "?";
}

Constellation::Constellation(Modulation mod)
    : mod_(mod), nbits_(bits_per_symbol(mod)) {
  const double norm = normalization(mod);
  const std::size_t count = std::size_t{1} << nbits_;
  points_.resize(count);
  for (std::size_t label = 0; label < count; ++label) {
    if (mod == Modulation::kBpsk) {
      points_[label] = Cx{pam_level(static_cast<unsigned>(label), 1), 0.0};
      continue;
    }
    const std::size_t axis_bits = nbits_ / 2;
    const unsigned mask = (1u << axis_bits) - 1u;
    const unsigned i_packed = static_cast<unsigned>(label) & mask;
    const unsigned q_packed = (static_cast<unsigned>(label) >> axis_bits) & mask;
    points_[label] = norm * Cx{pam_level(i_packed, axis_bits),
                               pam_level(q_packed, axis_bits)};
  }
  i_bits_ = mod == Modulation::kBpsk ? 1 : nbits_ / 2;
  i_count_ = std::size_t{1} << i_bits_;
  q_count_ = count / i_count_;
  for (std::size_t i = 0; i < i_count_; ++i) i_levels_[i] = points_[i].real();
  for (std::size_t q = 0; q < q_count_; ++q) {
    q_levels_[q] = points_[q << i_bits_].imag();
  }
}

Cx Constellation::map(std::span<const std::uint8_t> bits) const {
  if (bits.size() != nbits_) {
    throw std::invalid_argument("Constellation::map: wrong bit count");
  }
  unsigned label = 0;
  for (std::size_t i = 0; i < nbits_; ++i) {
    label |= static_cast<unsigned>(bits[i] & 1u) << i;
  }
  return points_[label];
}

CxVec Constellation::map_all(std::span<const std::uint8_t> bits) const {
  if (bits.size() % nbits_ != 0) {
    throw std::invalid_argument("Constellation::map_all: size mismatch");
  }
  CxVec out;
  out.reserve(bits.size() / nbits_);
  for (std::size_t i = 0; i < bits.size(); i += nbits_) {
    out.push_back(map(bits.subspan(i, nbits_)));
  }
  return out;
}

std::size_t Constellation::demap_hard_label(Cx received) const noexcept {
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t label = 0; label < points_.size(); ++label) {
    const double d = std::norm(received - points_[label]);
    if (d < best_dist) {
      best_dist = d;
      best = label;
    }
  }
  return best;
}

Bits Constellation::demap_hard(Cx received) const {
  const std::size_t best = demap_hard_label(received);
  Bits bits(nbits_);
  for (std::size_t i = 0; i < nbits_; ++i) {
    bits[i] = static_cast<std::uint8_t>((best >> i) & 1u);
  }
  return bits;
}

void Constellation::demap_soft(Cx received, double gain, SoftBits& out) const {
  // Max-log LLR per bit: min distance over points with the bit = 0 minus
  // min distance over points with the bit = 1; positive favours bit 1.
  // The distance to point (i, q) is fl(dx_i^2 + dy_q^2), and IEEE
  // addition is monotone in each operand, so its minimum over the points
  // whose I (or Q) bit is c equals fl(min dx^2 + min dy^2) over the two
  // axis halves: bit-identical to searching every point, with one
  // distance per axis level instead of one per point and bit.
  std::array<double, kMaxAxisLevels> dx2{};
  std::array<double, kMaxAxisLevels> dy2{};
  for (std::size_t i = 0; i < i_count_; ++i) {
    const double dx = received.real() - i_levels_[i];
    dx2[i] = dx * dx;
  }
  for (std::size_t q = 0; q < q_count_; ++q) {
    const double dy = received.imag() - q_levels_[q];
    dy2[q] = dy * dy;
  }
  // Minimum over the levels whose index has bit `bit` equal to `value`
  // (every level when bit == kAll), skipping NaN as the point search does.
  constexpr std::size_t kAll = static_cast<std::size_t>(-1);
  auto half_min = [](const std::array<double, kMaxAxisLevels>& d,
                     std::size_t count, std::size_t bit, std::size_t value) {
    double m = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < count; ++k) {
      if (bit == kAll || ((k >> bit) & 1u) == value) m = std::min(m, d[k]);
    }
    return m;
  };
  const double dx2_min = half_min(dx2, i_count_, kAll, 0);
  const double dy2_min = half_min(dy2, q_count_, kAll, 0);
  for (std::size_t bit = 0; bit < i_bits_; ++bit) {
    const double min0 = half_min(dx2, i_count_, bit, 0) + dy2_min;
    const double min1 = half_min(dx2, i_count_, bit, 1) + dy2_min;
    out.push_back(gain * (min0 - min1));
  }
  for (std::size_t bit = 0; bit + i_bits_ < nbits_; ++bit) {
    const double min0 = dx2_min + half_min(dy2, q_count_, bit, 0);
    const double min1 = dx2_min + half_min(dy2, q_count_, bit, 1);
    out.push_back(gain * (min0 - min1));
  }
}

const Constellation& constellation(Modulation mod) {
  static const Constellation bpsk{Modulation::kBpsk};
  static const Constellation qpsk{Modulation::kQpsk};
  static const Constellation qam16{Modulation::kQam16};
  static const Constellation qam64{Modulation::kQam64};
  switch (mod) {
    case Modulation::kBpsk:
      return bpsk;
    case Modulation::kQpsk:
      return qpsk;
    case Modulation::kQam16:
      return qam16;
    case Modulation::kQam64:
      return qam64;
  }
  throw std::logic_error("unknown modulation");
}

}  // namespace carpool
