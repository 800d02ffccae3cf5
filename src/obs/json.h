// Minimal JSON reader/writer shared by the obs exporters, the perf ledger
// and the DSE evaluation journal: objects, arrays, strings, numbers,
// booleans and null. Writing helpers render numbers in the shortest form
// that round-trips a double and escape strings; parsing throws
// MalformedInput with an offset so a truncated or hand-edited file fails
// loudly instead of silently dropping fields.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace s2fa::obs::json {

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  // null is represented as a quiet NaN number, matching what the writers
  // emit for non-finite values.
  std::variant<double, bool, std::string, JsonObject, JsonArray> data;

  bool is_number() const { return std::holds_alternative<double>(data); }
  bool is_bool() const { return std::holds_alternative<bool>(data); }
  bool is_string() const {
    return std::holds_alternative<std::string>(data);
  }
  bool is_object() const { return std::holds_alternative<JsonObject>(data); }
  bool is_array() const { return std::holds_alternative<JsonArray>(data); }

  // Accessors throw MalformedInput on kind mismatch, except that number()
  // reads a boolean as 0 or 1.
  double number() const;
  bool boolean() const;
  const std::string& string() const;
  const JsonObject& object() const;
  const JsonArray& array() const;
};

// Parses one complete JSON document; trailing content throws.
JsonValue Parse(std::string_view text);

// Shortest representation that round-trips a double exactly; non-finite
// values render as null.
std::string JsonNumber(double value);
std::string JsonString(const std::string& text);

}  // namespace s2fa::obs::json
