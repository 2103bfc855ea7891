// Minimal deterministic JSON support for the observability layer.
//
// The writer side backs the metrics/run-report/Chrome-trace exporters: object
// keys are kept in sorted order (std::map) and doubles are printed with a
// fixed shortest-round-trip format, so serialising the same value twice
// yields byte-identical output — a prerequisite for the golden-export tests
// and tools/determinism_lint.sh.
//
// The parser side is used by tests to SCHEMA-CHECK what the exporters emit
// (valid Chrome trace_event JSON, reconcilable run reports) without taking a
// third-party dependency the container does not have.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace nlft::obs {

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, control characters; no surrounding quotes).
[[nodiscard]] std::string jsonEscape(const std::string& raw);

/// A JSON value. Numbers are stored as double plus an integer flag so that
/// counters round-trip exactly (no 1e+06 formatting for event counts).
class JsonValue {
 public:
  enum class Kind : std::uint8_t { Null, Bool, Int, Double, String, Array, Object };

  JsonValue() = default;
  static JsonValue null() { return JsonValue{}; }
  static JsonValue boolean(bool b);
  static JsonValue integer(std::int64_t i);
  static JsonValue number(double d);
  static JsonValue string(std::string s);
  static JsonValue array();
  static JsonValue object();

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool isNull() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool isNumber() const { return kind_ == Kind::Int || kind_ == Kind::Double; }

  [[nodiscard]] std::int64_t asInt() const;
  [[nodiscard]] double asDouble() const;
  [[nodiscard]] const std::string& asString() const;

  /// Array access. push() appends; size()/at() read.
  void push(JsonValue value);
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const JsonValue& at(std::size_t index) const;

  /// Object access. set() inserts/overwrites; has()/get() read (get throws
  /// std::out_of_range for missing keys).
  void set(const std::string& key, JsonValue value);
  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] const JsonValue& get(const std::string& key) const;
  [[nodiscard]] const std::map<std::string, JsonValue>& members() const;

  /// Serialises deterministically (sorted object keys, fixed number format).
  /// `indent` > 0 pretty-prints with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = 0) const;

 private:
  void dumpTo(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Deepest nesting of arrays and objects parseJson accepts.
inline constexpr std::size_t kJsonMaxDepth = 256;

/// Parses a JSON document; throws std::runtime_error with a byte offset on
/// malformed input or nesting deeper than kJsonMaxDepth. Accepts exactly one
/// top-level value.
[[nodiscard]] JsonValue parseJson(const std::string& text);

}  // namespace nlft::obs
