#pragma once

// IEEE 802.11a/g/n constellation mappings with standard Gray coding and
// unit-average-power normalisation (Clause 17.3.5.8):
//   BPSK {+-1}, QPSK (+-1 +-j)/sqrt(2), 16-QAM {+-1,+-3}/sqrt(10),
//   64-QAM {+-1,..,+-7}/sqrt(42).

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/bits.hpp"
#include "dsp/complex_vec.hpp"
#include "fec/convolutional.hpp"

namespace carpool {

enum class Modulation { kBpsk, kQpsk, kQam16, kQam64 };

/// Coded bits per subcarrier (N_BPSC): 1, 2, 4, 6.
std::size_t bits_per_symbol(Modulation mod) noexcept;

std::string_view modulation_name(Modulation mod) noexcept;

class Constellation {
 public:
  explicit Constellation(Modulation mod);

  [[nodiscard]] Modulation modulation() const noexcept { return mod_; }
  [[nodiscard]] std::size_t bits_per_point() const noexcept { return nbits_; }
  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }

  /// All constellation points indexed by their bit label (LSB-first).
  [[nodiscard]] std::span<const Cx> points() const noexcept { return points_; }

  /// Map `nbits` bits (LSB-first) to a point.
  [[nodiscard]] Cx map(std::span<const std::uint8_t> bits) const;

  /// Map a full bit stream; size must be a multiple of bits_per_point().
  [[nodiscard]] CxVec map_all(std::span<const std::uint8_t> bits) const;

  /// Hard decision: the bit label (LSB-first) of the nearest point, by a
  /// search over every point in label order (ties go to the lower label).
  [[nodiscard]] std::size_t demap_hard_label(Cx received) const noexcept;

  /// Hard decision: nearest point's bit label.
  [[nodiscard]] Bits demap_hard(Cx received) const;

  /// Max-log soft demapping: one soft value per bit, positive = bit 1.
  /// `gain` scales confidence (use |H_k|^2 so faded subcarriers count
  /// less after zero-forcing equalisation).
  void demap_soft(Cx received, double gain, SoftBits& out) const;

 private:
  static constexpr std::size_t kMaxAxisLevels = 8;  ///< 64-QAM: 8 per axis

  Modulation mod_;
  std::size_t nbits_;
  CxVec points_;
  // The same points as a product of per-axis levels: label bits
  // [0, i_bits_) pick the I level, the rest the Q level (BPSK: one Q
  // level, 0).
  std::size_t i_bits_ = 0;
  std::size_t i_count_ = 0;
  std::size_t q_count_ = 0;
  std::array<double, kMaxAxisLevels> i_levels_{};
  std::array<double, kMaxAxisLevels> q_levels_{};
};

/// Shared immutable instance per modulation.
const Constellation& constellation(Modulation mod);

}  // namespace carpool
