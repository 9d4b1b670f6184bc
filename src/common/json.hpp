#pragma once

// Minimal JSON reader/writer for scenario files, repro bundles and state
// files (docs/SOAK.md), span JSONL (trace_convert) and BENCH_*.json
// metric exports (bench_diff, bench_report).
//
// Strict subset of RFC 8259 sufficient for our schemas: objects, arrays,
// strings (with \uXXXX escapes decoded to UTF-8), numbers, booleans,
// null. Parsing never throws: malformed input yields a structured
// JsonError carrying the 1-based line/column and a message, so a bad
// scenario file becomes a diagnostic rather than a crash — one of the
// repro-bundle robustness requirements the chaos tests pin down.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace carpool {

class JsonValue;

using JsonArray = std::vector<JsonValue>;
/// Ordered map: scenario files diff cleanly when keys keep their order.
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;

/// A parsed JSON document node (immutable after parse).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  explicit JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit JsonValue(double n) : kind_(Kind::kNumber), number_(n) {}
  explicit JsonValue(std::string s)
      : kind_(Kind::kString), string_(std::move(s)) {}
  explicit JsonValue(JsonArray a)
      : kind_(Kind::kArray), array_(std::move(a)) {}
  explicit JsonValue(JsonObject o)
      : kind_(Kind::kObject), object_(std::move(o)) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept {
    return kind_ == Kind::kNull;
  }
  [[nodiscard]] bool is_bool() const noexcept {
    return kind_ == Kind::kBool;
  }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == Kind::kString;
  }
  [[nodiscard]] bool is_array() const noexcept {
    return kind_ == Kind::kArray;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::kObject;
  }

  [[nodiscard]] bool as_bool() const noexcept { return bool_; }
  [[nodiscard]] double as_number() const noexcept { return number_; }
  [[nodiscard]] const std::string& as_string() const noexcept {
    return string_;
  }
  [[nodiscard]] const JsonArray& as_array() const noexcept { return array_; }
  [[nodiscard]] const JsonObject& as_object() const noexcept {
    return object_;
  }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  JsonArray array_;
  JsonObject object_;
};

/// Where and why parsing failed. `line`/`column` are 1-based positions in
/// the input text.
struct JsonError {
  std::string message;
  std::size_t line = 0;
  std::size_t column = 0;

  [[nodiscard]] std::string to_string() const;
};

struct JsonParseResult {
  std::optional<JsonValue> value;  ///< engaged iff parsing succeeded
  JsonError error;                 ///< meaningful iff !value

  [[nodiscard]] bool ok() const noexcept { return value.has_value(); }
};

/// Parse a complete JSON document (trailing garbage is an error).
[[nodiscard]] JsonParseResult json_parse(std::string_view text);

/// Serialize with 2-space indentation and `\n` line ends. Numbers that
/// hold integral values print without a decimal point so frame indices
/// and seeds round-trip textually.
[[nodiscard]] std::string json_dump(const JsonValue& value);

/// Validated number -> u64 for the double-backed state-file schemas:
/// true iff `v` is a finite, integral JSON number within [0, 2^53] (the
/// precision bound the format already assumes). Guards the static_cast
/// in never-throwing parsers — converting NaN, an infinity, or an
/// out-of-range double to an integer is undefined behaviour, and a
/// corrupted or hand-edited file must become a diagnostic, not UB.
[[nodiscard]] bool json_to_u64(const JsonValue* v,
                               std::uint64_t& out) noexcept;

// ------------------------------------------------- building convenience

/// Append a member to an object under construction.
inline void json_set(JsonObject& obj, std::string key, JsonValue v) {
  obj.emplace_back(std::move(key), std::move(v));
}

}  // namespace carpool
