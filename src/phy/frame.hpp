#pragma once

// Legacy PPDU assembly and reception: preamble + SIG + DATA. The DATA path
// helpers are shared with the Carpool transceiver, which inserts an A-HDR
// and per-subframe SIGs and injects side-channel phase offsets.

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/bits.hpp"
#include "dsp/complex_vec.hpp"
#include "phy/equalizer.hpp"
#include "phy/mcs.hpp"
#include "phy/ofdm.hpp"
#include "phy/preamble.hpp"
#include "phy/sig.hpp"

namespace carpool {

/// Fixed scrambler seed used by both ends (a real receiver recovers the
/// seed from the SERVICE field; fixing it keeps simulations deterministic
/// without changing any error behaviour).
inline constexpr std::uint8_t kScramblerSeed = 0x5D;

/// Structured decode outcome for the reception paths. Real captures are
/// truncated, jammed, and corrupted; receivers report what went wrong
/// instead of throwing, so one bad (sub)frame never takes down a decode
/// loop (see docs/ROBUSTNESS.md).
enum class DecodeStatus : std::uint8_t {
  kOk = 0,
  kTruncated,      ///< waveform shorter than the span a field required
  kSyncLost,       ///< preamble unusable (no LTF periodicity to lock to)
  kSigCorrupt,     ///< a SIG failed parity/rate checks; cannot walk past it
  kAhdrMiss,       ///< A-HDR decoded but no Bloom match for this receiver
  kFcsFail,        ///< payload demodulated but its FCS (or Viterbi) failed
  kBadConfig,      ///< receiver configuration invalid (see config_error())
  kInternalError,  ///< unexpected exception contained by the decode path
};

[[nodiscard]] std::string_view to_string(DecodeStatus status) noexcept;

/// MAC-level FCS helpers (CRC-32 appended little-endian).
Bytes append_fcs(std::span<const std::uint8_t> body);
bool check_fcs(std::span<const std::uint8_t> frame_with_fcs);

/// --- TX data path (shared with Carpool) ---

/// SERVICE + PSDU + tail + pad, scrambled, tail bits re-zeroed; output
/// length is num_data_symbols(mcs, psdu.size()) * n_dbps.
Bits build_data_bits(std::span<const std::uint8_t> psdu, const Mcs& m);

/// Convolutional-encode (unterminated) and puncture; output length is a
/// multiple of n_cbps.
Bits code_data_bits(std::span<const std::uint8_t> data_bits, const Mcs& m);

/// Per-symbol constellation points: interleave + map each n_cbps block.
/// Returns one 48-point vector per OFDM symbol.
std::vector<CxVec> modulate_coded(std::span<const std::uint8_t> coded,
                                  const Mcs& m);

/// --- RX data path (shared with Carpool) ---

/// Inverse of modulate_coded for one symbol: soft demap (weighted by
/// per-subcarrier gain) + deinterleave. Appends n_cbps soft values to `out`.
void demap_symbol_soft(std::span<const Cx> points,
                       std::span<const double> gains, const Mcs& m,
                       SoftBits& out);

/// Hard demap + deinterleave one symbol (n_cbps bits): the bits a
/// symbol-level CRC covers.
Bits demap_symbol_hard(std::span<const Cx> points, const Mcs& m);

/// Viterbi-decode a soft coded stream and descramble; returns the PSDU
/// (length from SIG). Returns nullopt if the stream is too short.
std::optional<Bytes> decode_data_bits(std::span<const double> soft,
                                      const Mcs& m, std::size_t psdu_len);

/// --- Full legacy transceiver ---

class LegacyTransmitter {
 public:
  /// Build a complete PPDU waveform for one PSDU at the given MCS.
  [[nodiscard]] CxVec build(std::span<const std::uint8_t> psdu,
                            const Mcs& m) const;
};

/// Forward-only reader of a received frame's OFDM symbols, derotating the
/// frame's CFO on the fly. The estimate is applied as two corrections —
/// coarse, then fine — each a phase accumulator that starts at 0 on
/// sample 0 and grows by one step per sample. Only the 64 FFT-window
/// samples of the symbols a caller reads are rotated; the accumulators
/// still take one `+=` per sample in between, so every bin is
/// bit-identical to derotating the whole capture and demodulating it.
/// A receiver pays for the symbols it reads, not for the capture: the
/// cyclic prefixes and a skipped subframe's symbols cost one addition per
/// sample each. Refers to the caller's waveform, which must outlive it.
class SymbolReader {
 public:
  SymbolReader() = default;
  SymbolReader(std::span<const Cx> waveform, double coarse_cfo,
               double fine_cfo) noexcept
      : wave_(waveform), coarse_step_(coarse_cfo), fine_step_(fine_cfo) {}

  /// Samples in the capture.
  [[nodiscard]] std::size_t size() const noexcept { return wave_.size(); }

  /// Frequency bins of `count` back-to-back 80-sample symbols starting at
  /// sample `start`: count * kFftSize bins, symbol s at s * kFftSize.
  /// Throws std::invalid_argument if the capture ends first and
  /// std::logic_error if `start` precedes the end of an earlier read.
  [[nodiscard]] CxVec read(std::size_t start, std::size_t count = 1);

 private:
  /// Advance both accumulators to sample `n` without rotating anything.
  void skip_to(std::size_t n) noexcept;

  std::span<const Cx> wave_;
  double coarse_step_ = 0.0;
  double fine_step_ = 0.0;
  double coarse_phase_ = 0.0;
  double fine_phase_ = 0.0;
  std::size_t next_ = 0;  ///< sample the accumulators have reached
};

/// Result of the shared preamble front end.
struct Frontend {
  CxVec h;          ///< initial channel estimate (64 bins)
  double cfo_radians_per_sample = 0.0;
  std::size_t data_start = kPreambleLen;  ///< index of the first symbol
  DecodeStatus status = DecodeStatus::kOk;
  /// Normalised correlation of the two LTF repeats (1 = textbook
  /// preamble, ~0 = noise). Diagnostic behind the kSyncLost verdict.
  double sync_quality = 0.0;
  /// CFO-derotating reader over the waveform handed to receive_frontend
  /// (meaningful when ok()); every receiver reads its symbols through it.
  SymbolReader symbols;

  [[nodiscard]] bool ok() const noexcept {
    return status == DecodeStatus::kOk;
  }
};

/// Run STF/LTF processing on a received waveform that starts at sample 0.
/// Only the 320-sample preamble is derotated here; the symbols after it
/// are read through Frontend::symbols, which refers to `waveform`.
/// Never throws on malformed input: a waveform shorter than the preamble
/// comes back as kTruncated (with empty estimates) and a destroyed
/// preamble as kSyncLost; callers check Frontend::ok() before using the
/// estimates.
Frontend receive_frontend(std::span<const Cx> waveform);

struct LegacyRxResult {
  DecodeStatus status = DecodeStatus::kOk;
  bool sig_ok = false;
  SigInfo sig;
  bool decoded = false;  ///< PSDU extracted (correctness judged by FCS)
  bool fcs_ok = false;
  Bytes psdu;
  std::vector<double> phase_offsets;   ///< measured common phase per symbol
  std::vector<Bits> raw_symbol_bits;   ///< hard coded bits per data symbol
};

class LegacyReceiver {
 public:
  /// Decode a waveform (frame assumed to start at sample 0, as the MAC
  /// simulator provides exact timing; see phy/sync.hpp for detection).
  [[nodiscard]] LegacyRxResult receive(std::span<const Cx> waveform) const;
};

}  // namespace carpool
