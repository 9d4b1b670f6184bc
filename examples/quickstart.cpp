// Quickstart: aggregate frames for three stations into one Carpool
// transmission, push it through an indoor fading channel, and decode at
// every station — the end-to-end flow of paper Fig. 2.
//
//   AP ──[preamble | A-HDR | SIG₀ data₀ | SIG₁ data₁ | SIG₂ data₂]──> air
//   STA k: check A-HDR -> locate subframe k -> decode only that part.

#include <cstdio>
#include <string>

#include "carpool/transceiver.hpp"
#include "channel/fading.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"

using namespace carpool;

int main(int argc, char** argv) {
  cli::parse_flags(argc, argv, {});
  // 1. Three stations, each with its own payload and MCS.
  const std::string messages[3] = {
      "Hello STA A — this rode in subframe 0",
      "Hi STA B — subframe 1 here, QAM16",
      "Hey STA C — 64-QAM subframe 2",
  };
  const std::size_t mcs_per_sta[3] = {2, 4, 7};  // QPSK, QAM16, QAM64

  std::vector<SubframeSpec> subframes;
  for (int i = 0; i < 3; ++i) {
    Bytes payload(messages[i].begin(), messages[i].end());
    subframes.push_back(SubframeSpec{
        MacAddress::for_station(static_cast<std::uint32_t>(i + 1)),
        append_fcs(payload), mcs_per_sta[i]});
  }

  // 2. Build the aggregate waveform (A-HDR Bloom filter + per-subframe
  //    SIG + phase-offset side channel, all on by default).
  const CarpoolTransmitter tx;
  const CxVec waveform = tx.build(subframes);
  std::printf("Carpool frame: %zu subframes, %zu samples, %.1f us airtime\n",
              subframes.size(), waveform.size(),
              CarpoolTransmitter::frame_airtime(subframes) * 1e6);

  // 3. One shared channel realisation — every station hears the same air.
  FadingConfig channel_cfg;
  channel_cfg.snr_db = 28.0;
  channel_cfg.coherence_time = 10e-3;
  channel_cfg.cfo_hz = 5e3;
  channel_cfg.seed = 7;
  FadingChannel channel(channel_cfg);
  const CxVec rx_waveform = channel.transmit(waveform);

  // 4. Each station decodes: A-HDR match -> skip foreign subframes ->
  //    decode its own (with real-time channel estimation).
  for (int i = 0; i < 3; ++i) {
    CarpoolRxConfig rx_cfg;
    rx_cfg.self = subframes[static_cast<std::size_t>(i)].receiver;
    const CarpoolReceiver rx(rx_cfg);
    const CarpoolRxResult result = rx.receive(rx_waveform);

    std::printf("\nSTA %c: A-HDR matched subframes {", 'A' + i);
    for (const std::size_t m : result.matched) std::printf(" %zu", m);
    std::printf(" }, %zu symbols decoded, %zu pilot-only\n",
                result.symbols_full_decoded, result.symbols_pilot_only);
    for (const DecodedSubframe& sub : result.subframes) {
      if (sub.index != static_cast<std::size_t>(i)) continue;
      if (!sub.fcs_ok) {
        std::printf("  subframe %zu: FCS FAILED\n", sub.index);
        continue;
      }
      const std::string text(sub.psdu.begin(), sub.psdu.end() - 4);
      std::printf("  subframe %zu OK (%zu RTE updates): \"%s\"\n", sub.index,
                  sub.rte_updates, text.c_str());
    }
  }

  // 5. A bystander station drops the frame after the A-HDR alone.
  CarpoolRxConfig bystander_cfg;
  bystander_cfg.self = MacAddress::for_station(1000);
  const CarpoolReceiver bystander(bystander_cfg);
  const CarpoolRxResult result = bystander.receive(rx_waveform);
  std::printf("\nBystander: %s (decoded %zu payload symbols)\n",
              result.matched.empty() ? "dropped frame at A-HDR"
                                     : "Bloom false positive",
              result.symbols_full_decoded);
  return 0;
}
