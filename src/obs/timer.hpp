#pragma once

// carpool::obs — RAII latency profiling hooks.
//
// OBS_SCOPED_TIMER("phy.equalize") records the enclosing scope's wall time
// (nanoseconds, steady clock) into a canonical latency histogram in the
// *current* registry (obs::Registry::current()): the thread's shard-local
// metric scope when the parallel sweep engine installed one, the global
// registry otherwise. The handle is resolved on scope entry — one
// mutex-guarded map lookup, uncontended for shard-local registries — which
// is cheap against the stages these timers wrap (Viterbi, FFT,
// equalization), but do not wrap single-digit-nanosecond code.

#include <chrono>

#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace carpool::obs {

/// Records elapsed nanoseconds into `hist` on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& hist) noexcept
      : hist_(hist), start_(std::chrono::steady_clock::now()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    hist_.record(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
  }

 private:
  Histogram& hist_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace carpool::obs

#define OBS_CONCAT_INNER(a, b) a##b
#define OBS_CONCAT(a, b) OBS_CONCAT_INNER(a, b)

#define OBS_SCOPED_TIMER(name)                                           \
  const ::carpool::obs::ScopedTimer OBS_CONCAT(obs_scoped_timer_,        \
                                               __LINE__)(               \
      ::carpool::obs::Registry::current().latency_histogram(name))

/// Scoped timer plus a leaf span: the stage's wall time lands in its
/// latency histogram as before, and — when a SpanCollector is installed —
/// the same interval attaches to the innermost open span (e.g.
/// fec.viterbi_decode under carpool.rx_subframe) so per-stage time is
/// visible inside one frame's Perfetto timeline, not just as an aggregate
/// histogram. With no collector the Span half costs one thread-local
/// lookup and a null check.
#define OBS_TIMED_SPAN(name)       \
  OBS_SCOPED_TIMER(name);          \
  const ::carpool::obs::Span OBS_CONCAT(obs_timed_span_, __LINE__)(name)
