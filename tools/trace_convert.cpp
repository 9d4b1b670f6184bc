// trace_convert — span JSONL -> Chrome trace-event JSON.
//
//   trace_convert SPANS_JSONL OUT_JSON
//
// Reads the `"type":"span"` JSONL stream written by
// obs::SpanCollector::write_jsonl (e.g. soak --span-jsonl) — spans and
// instant records alike, each with its `args` — and converts it to a
// Chrome trace-event file via obs::ChromeTraceWriter, loadable in
// https://ui.perfetto.dev or chrome://tracing. Lines whose `type` is not
// "span" are skipped.
//
// Every number is validated before it is cast: `id`, `parent`,
// `wall_start_ns` and `wall_ns` must be integral in [0, 2^53]; `txop`,
// `frame`, `subframe` and `sta` integral in [-1, 2^53]. A line that
// breaks this is reported with its line number.
//
// Exit codes: 0 = written, 1 = no span records found, 2 = usage/IO/parse
// error.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/span.hpp"

namespace {

using carpool::JsonValue;
using carpool::json_parse;
using carpool::json_to_u64;
using carpool::obs::SpanRecord;

constexpr double kMaxExact = 9007199254740992.0;  // 2^53

double num_or(const JsonValue& obj, const char* key, double fallback) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

/// Optional unsigned field: absent keeps `out`; present must pass
/// json_to_u64.
bool read_u64(const JsonValue& obj, const char* key, std::uint64_t& out) {
  const JsonValue* v = obj.find(key);
  return v == nullptr || json_to_u64(v, out);
}

/// Optional frame-lifecycle coordinate: integral in [-1, 2^53].
bool read_coordinate(const JsonValue& obj, const char* key,
                     std::int64_t& out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return true;
  const double d = v->is_number() ? v->as_number() : std::nan("");
  if (!(d >= -1.0 && d <= kMaxExact && d == std::floor(d))) return false;
  out = static_cast<std::int64_t>(d);
  return true;
}

/// Re-render an `args` object into SpanRecord::args. The writer emits
/// only scalars (`null` for a non-finite double), so a nested value marks
/// a malformed line.
bool read_args(const JsonValue& obj, std::string& out) {
  const JsonValue* args = obj.find("args");
  if (args == nullptr) return true;
  if (!args->is_object()) return false;
  for (const auto& [key, v] : args->as_object()) {
    if (v.is_bool()) {
      carpool::obs::append_arg(out, key, v.as_bool());
    } else if (v.is_string()) {
      carpool::obs::append_arg(out, key, v.as_string());
    } else if (v.is_number() || v.is_null()) {
      const double d = v.is_null() ? std::nan("") : v.as_number();
      if (std::fabs(d) <= kMaxExact && d == std::floor(d)) {
        carpool::obs::append_arg(out, key, static_cast<std::int64_t>(d));
      } else {
        carpool::obs::append_arg(out, key, d);
      }
    } else {
      return false;
    }
  }
  return true;
}

/// Parse one JSONL line; true (and fills `out`) iff it is a span record.
/// A malformed line is diagnosed on stderr and sets `parse_error`.
bool parse_span_line(const std::string& line, std::size_t line_no,
                     SpanRecord& out, bool& parse_error) {
  const auto parsed = json_parse(line);
  if (!parsed.ok()) {
    std::fprintf(stderr, "trace_convert: line %zu: %s\n", line_no,
                 parsed.error.to_string().c_str());
    parse_error = true;
    return false;
  }
  const JsonValue& obj = *parsed.value;
  const JsonValue* type = obj.find("type");
  if (type == nullptr || !type->is_string() || type->as_string() != "span") {
    return false;
  }
  out = SpanRecord{};
  const std::pair<const char*, std::uint64_t*> counts[] = {
      {"id", &out.id},
      {"parent", &out.parent},
      {"wall_start_ns", &out.wall_start_ns},
      {"wall_ns", &out.wall_ns}};
  const std::pair<const char*, std::int64_t*> coordinates[] = {
      {"txop", &out.ids.txop},
      {"frame", &out.ids.frame},
      {"subframe", &out.ids.subframe},
      {"sta", &out.ids.sta}};
  const char* bad = nullptr;
  for (const auto& [key, field] : counts) {
    if (bad == nullptr && !read_u64(obj, key, *field)) bad = key;
  }
  for (const auto& [key, field] : coordinates) {
    if (bad == nullptr && !read_coordinate(obj, key, *field)) bad = key;
  }
  if (bad == nullptr && !read_args(obj, out.args)) bad = "args";
  if (bad != nullptr) {
    std::fprintf(stderr, "trace_convert: line %zu: invalid \"%s\"\n",
                 line_no, bad);
    parse_error = true;
    return false;
  }
  if (const JsonValue* name = obj.find("name");
      name != nullptr && name->is_string()) {
    out.name = name->as_string();
  }
  out.sim_start = num_or(obj, "sim_start", -1.0);
  out.sim_duration = num_or(obj, "sim_duration", 0.0);
  if (const JsonValue* outcome = obj.find("outcome");
      outcome != nullptr && outcome->is_string()) {
    out.outcome = outcome->as_string();
  }
  return out.id != 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string in_path;
  std::string out_path;
  carpool::cli::parse_flags(argc, argv,
                            {carpool::cli::positional("SPANS_JSONL", in_path),
                             carpool::cli::positional("OUT_JSON", out_path)});
  std::ifstream in(in_path);
  if (!in) {
    std::fprintf(stderr, "trace_convert: cannot read %s\n", in_path.c_str());
    return 2;
  }

  std::vector<SpanRecord> records;
  std::string line;
  std::size_t line_no = 0;
  std::size_t skipped = 0;
  bool parse_error = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    SpanRecord record;
    if (parse_span_line(line, line_no, record, parse_error)) {
      records.push_back(std::move(record));
    } else if (!parse_error) {
      ++skipped;
    }
    if (parse_error) return 2;
  }
  if (records.empty()) {
    std::fprintf(stderr,
                 "trace_convert: no span records in %s (%zu non-span "
                 "line(s) skipped)\n",
                 in_path.c_str(), skipped);
    return 1;
  }
  if (!carpool::obs::ChromeTraceWriter::write(out_path, records)) {
    std::fprintf(stderr, "trace_convert: cannot write %s\n",
                 out_path.c_str());
    return 2;
  }
  std::printf("trace_convert: %s (%zu span(s), %zu non-span line(s) "
              "skipped)\n",
              out_path.c_str(), records.size(), skipped);
  return 0;
}
