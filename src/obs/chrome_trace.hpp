#pragma once

// carpool::obs — Chrome trace-event export for frame-lifecycle spans.
//
// Converts a SpanCollector's records into the Chrome trace-event JSON
// format (the `{"traceEvents":[...]}` flavor), which loads directly in
// Perfetto (https://ui.perfetto.dev) and chrome://tracing. Two tracks:
//
//   tid 1  "MAC (sim time)"    — spans on the simulated timeline
//                                (mac.txop / mac.frame / mac.subframe),
//                                1 sim second = 1 trace second
//   tid 2  "PHY decode (wall)" — wall-clock decode spans
//                                (carpool.rx_frame and below)
//
// Wall-clock roots are re-based onto a sequential cursor (each root
// placed after the previous one) so shard-interleaved soak output still
// renders as cleanly nested, non-overlapping decode pyramids; children
// keep their true offset within their root. A flow arrow links each
// wall-clock root back to the sim-time span that caused it, so clicking
// a TXOP walks straight into its decode.
//
// Span ids, frame-lifecycle coordinates, outcomes and each record's own
// args ride along in each event's `args`, so Perfetto's query engine can
// slice by STA, subframe, DecodeStatus or an instant's payload. Instants
// (zero-duration records) render as zero-length slices.

#include <string>
#include <string_view>
#include <vector>

#include "obs/span.hpp"

namespace carpool::obs {

/// Append `s` to `out` with JSON string escaping (no surrounding quotes).
/// The one escaper every obs exporter uses.
void append_json_escaped(std::string& out, std::string_view s);

class ChromeTraceWriter {
 public:
  /// Render `records` as a complete Chrome trace-event JSON document.
  [[nodiscard]] static std::string to_json(
      const std::vector<SpanRecord>& records);

  /// to_json() to a file; returns false if the file cannot be written.
  static bool write(const std::string& path,
                    const std::vector<SpanRecord>& records);
};

/// Write `spans` as a Chrome trace-event file to `chrome_path` and as
/// span JSONL to `jsonl_path`; an empty path skips that file. Each file
/// written is named on stdout with its record count. Returns false, with
/// the reason on stderr, when a file cannot be written fully or when the
/// collector dropped records at its cap: the files then hold only the
/// head of the run.
bool export_spans(const SpanCollector& spans, const std::string& chrome_path,
                  const std::string& jsonl_path);

}  // namespace carpool::obs
