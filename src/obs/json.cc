#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "support/error.h"

namespace s2fa::obs::json {

double JsonValue::number() const {
  if (is_bool()) return std::get<bool>(data) ? 1.0 : 0.0;
  if (!is_number()) throw MalformedInput("obs: JSON value is not a number");
  return std::get<double>(data);
}

bool JsonValue::boolean() const {
  if (!is_bool()) throw MalformedInput("obs: JSON value is not a boolean");
  return std::get<bool>(data);
}

const std::string& JsonValue::string() const {
  if (!is_string()) throw MalformedInput("obs: JSON value is not a string");
  return std::get<std::string>(data);
}

const JsonObject& JsonValue::object() const {
  if (!is_object()) throw MalformedInput("obs: JSON value is not an object");
  return std::get<JsonObject>(data);
}

const JsonArray& JsonValue::array() const {
  if (!is_array()) throw MalformedInput("obs: JSON value is not an array");
  return std::get<JsonArray>(data);
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue Parse() {
    JsonValue value = ParseValue();
    SkipWhitespace();
    if (pos_ != text_.size()) {
      throw MalformedInput("obs: trailing JSON content at offset " +
                           std::to_string(pos_));
    }
    return value;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() {
    SkipWhitespace();
    if (pos_ >= text_.size()) throw MalformedInput("obs: truncated JSON");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) {
      throw MalformedInput(std::string("obs: expected '") + c +
                           "' at offset " + std::to_string(pos_));
    }
    ++pos_;
  }

  JsonValue ParseValue() {
    char c = Peek();
    if (c == '{') return JsonValue{ParseObject()};
    if (c == '[') return JsonValue{ParseArray()};
    if (c == '"') return JsonValue{ParseString()};
    if (c == 'n') {
      if (text_.substr(pos_, 4) != "null") {
        throw MalformedInput("obs: bad JSON literal");
      }
      pos_ += 4;
      return JsonValue{std::numeric_limits<double>::quiet_NaN()};
    }
    if (c == 't' || c == 'f') {
      const std::string_view word = c == 't' ? "true" : "false";
      if (text_.substr(pos_, word.size()) != word) {
        throw MalformedInput("obs: bad JSON literal");
      }
      pos_ += word.size();
      return JsonValue{c == 't'};
    }
    return JsonValue{ParseNumber()};
  }

  JsonObject ParseObject() {
    Expect('{');
    JsonObject object;
    if (Peek() == '}') {
      ++pos_;
      return object;
    }
    while (true) {
      std::string key = ParseString();
      Expect(':');
      object.emplace(std::move(key), ParseValue());
      char c = Peek();
      ++pos_;
      if (c == '}') return object;
      if (c != ',') {
        throw MalformedInput("obs: expected ',' or '}' at offset " +
                             std::to_string(pos_ - 1));
      }
    }
  }

  JsonArray ParseArray() {
    Expect('[');
    JsonArray array;
    if (Peek() == ']') {
      ++pos_;
      return array;
    }
    while (true) {
      array.push_back(ParseValue());
      char c = Peek();
      ++pos_;
      if (c == ']') return array;
      if (c != ',') {
        throw MalformedInput("obs: expected ',' or ']' at offset " +
                             std::to_string(pos_ - 1));
      }
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char esc = text_[pos_++];
        switch (esc) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              throw MalformedInput("obs: truncated \\u escape");
            }
            const int code = Convert(
                [&] { return std::stoi(std::string(text_.substr(pos_, 4)),
                                       nullptr, 16); });
            pos_ += 4;
            out += static_cast<char>(code);
            break;
          }
          default: out += esc;
        }
      } else {
        out += c;
      }
    }
    if (pos_ >= text_.size()) throw MalformedInput("obs: unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  double ParseNumber() {
    SkipWhitespace();
    std::size_t end = pos_;
    while (end < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[end])) ||
            text_[end] == '-' || text_[end] == '+' || text_[end] == '.' ||
            text_[end] == 'e' || text_[end] == 'E')) {
      ++end;
    }
    if (end == pos_) {
      throw MalformedInput("obs: expected JSON number at offset " +
                           std::to_string(pos_));
    }
    const double value = Convert(
        [&] { return std::stod(std::string(text_.substr(pos_, end - pos_))); });
    pos_ = end;
    return value;
  }

  // std::stoi and std::stod report bad text (a line torn after a '-', say)
  // as std::invalid_argument or std::out_of_range; readers that skip a
  // malformed document catch MalformedInput.
  template <typename F>
  std::invoke_result_t<F> Convert(F convert) {
    try {
      return convert();
    } catch (const std::logic_error&) {
      throw MalformedInput("obs: bad JSON number or escape at offset " +
                           std::to_string(pos_));
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue Parse(std::string_view text) { return JsonParser(text).Parse(); }

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", value);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += "\"";
  return out;
}

}  // namespace s2fa::obs::json
