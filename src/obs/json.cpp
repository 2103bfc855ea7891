#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace nlft::obs {

namespace {
std::string formatDouble(double d);
}  // namespace

std::string jsonEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind_ = Kind::Bool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::integer(std::int64_t i) {
  JsonValue v;
  v.kind_ = Kind::Int;
  v.int_ = i;
  return v;
}

JsonValue JsonValue::number(double d) {
  JsonValue v;
  v.kind_ = Kind::Double;
  v.double_ = d;
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::String;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::Array;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::Object;
  return v;
}

std::int64_t JsonValue::asInt() const {
  if (kind_ == Kind::Int) return int_;
  if (kind_ == Kind::Double) {
    // Converting a fraction would drop it silently, and converting a value
    // outside [-2^63, 2^63) is undefined behaviour.
    if (std::trunc(double_) == double_ && double_ >= -0x1p63 && double_ < 0x1p63) {
      return static_cast<std::int64_t>(double_);
    }
    throw std::logic_error("JsonValue: " + formatDouble(double_) +
                           " is not a whole number in the int64 range");
  }
  throw std::logic_error("JsonValue: not a number");
}

double JsonValue::asDouble() const {
  if (kind_ == Kind::Int) return static_cast<double>(int_);
  if (kind_ == Kind::Double) return double_;
  throw std::logic_error("JsonValue: not a number");
}

const std::string& JsonValue::asString() const {
  if (kind_ != Kind::String) throw std::logic_error("JsonValue: not a string");
  return string_;
}

void JsonValue::push(JsonValue value) {
  if (kind_ != Kind::Array) throw std::logic_error("JsonValue: push on non-array");
  array_.push_back(std::move(value));
}

std::size_t JsonValue::size() const {
  if (kind_ == Kind::Array) return array_.size();
  if (kind_ == Kind::Object) return object_.size();
  throw std::logic_error("JsonValue: size of non-container");
}

const JsonValue& JsonValue::at(std::size_t index) const {
  if (kind_ != Kind::Array) throw std::logic_error("JsonValue: at on non-array");
  return array_.at(index);
}

void JsonValue::set(const std::string& key, JsonValue value) {
  if (kind_ != Kind::Object) throw std::logic_error("JsonValue: set on non-object");
  object_[key] = std::move(value);
}

bool JsonValue::has(const std::string& key) const {
  return kind_ == Kind::Object && object_.count(key) != 0;
}

const JsonValue& JsonValue::get(const std::string& key) const {
  if (kind_ != Kind::Object) throw std::logic_error("JsonValue: get on non-object");
  return object_.at(key);
}

const std::map<std::string, JsonValue>& JsonValue::members() const {
  if (kind_ != Kind::Object) throw std::logic_error("JsonValue: members of non-object");
  return object_;
}

namespace {

/// Shortest representation of `d` that round-trips through strtod; falls
/// back to %.17g. Fixed algorithm => byte-stable output across runs.
std::string formatDouble(double d) {
  if (!std::isfinite(d)) return "null";  // JSON has no inf/nan
  char buffer[32];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof buffer, "%.*g", precision, d);
    if (std::strtod(buffer, nullptr) == d) break;
  }
  return buffer;
}

void appendIndent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth), ' ');
}

}  // namespace

void JsonValue::dumpTo(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::Null: out += "null"; return;
    case Kind::Bool: out += bool_ ? "true" : "false"; return;
    case Kind::Int: out += std::to_string(int_); return;
    case Kind::Double: out += formatDouble(double_); return;
    case Kind::String:
      out += '"';
      out += jsonEscape(string_);
      out += '"';
      return;
    case Kind::Array: {
      out += '[';
      bool first = true;
      for (const JsonValue& v : array_) {
        if (!first) out += ',';
        first = false;
        appendIndent(out, indent, depth + 1);
        v.dumpTo(out, indent, depth + 1);
      }
      if (!array_.empty()) appendIndent(out, indent, depth);
      out += ']';
      return;
    }
    case Kind::Object: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out += ',';
        first = false;
        appendIndent(out, indent, depth + 1);
        out += '"';
        out += jsonEscape(key);
        out += "\": ";
        value.dumpTo(out, indent, depth + 1);
      }
      if (!object_.empty()) appendIndent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dumpTo(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_{text} {}

  JsonValue parse() {
    JsonValue value = parseValue();
    skipWhitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON parse error at byte " + std::to_string(pos_) + ": " + what);
  }

  void skipWhitespace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string{"expected '"} + c + "'");
    ++pos_;
  }

  bool consumeLiteral(const char* literal) {
    const std::size_t n = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parseValue() {
    skipWhitespace();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // The parser recurses per level: bound it before hostile input can
        // exhaust the stack.
        if (++depth_ > kJsonMaxDepth) {
          fail("nesting deeper than " + std::to_string(kJsonMaxDepth) + " levels");
        }
        JsonValue nested = c == '{' ? parseObject() : parseArray();
        --depth_;
        return nested;
      }
      case '"': return JsonValue::string(parseString());
      case 't':
        if (!consumeLiteral("true")) fail("bad literal");
        return JsonValue::boolean(true);
      case 'f':
        if (!consumeLiteral("false")) fail("bad literal");
        return JsonValue::boolean(false);
      case 'n':
        if (!consumeLiteral("null")) fail("bad literal");
        return JsonValue::null();
      default: return parseNumber();
    }
  }

  JsonValue parseObject() {
    expect('{');
    JsonValue object = JsonValue::object();
    skipWhitespace();
    if (peek() == '}') {
      ++pos_;
      return object;
    }
    while (true) {
      skipWhitespace();
      std::string key = parseString();
      skipWhitespace();
      expect(':');
      object.set(key, parseValue());
      skipWhitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return object;
    }
  }

  JsonValue parseArray() {
    expect('[');
    JsonValue array = JsonValue::array();
    skipWhitespace();
    if (peek() == ']') {
      ++pos_;
      return array;
    }
    while (true) {
      array.push(parseValue());
      skipWhitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return array;
    }
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // Encode as UTF-8 (surrogate pairs not needed for our exporters).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  /// Consumes one or more digits; fails when none are present.
  void consumeDigits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (pos_ == start) fail("bad number");
  }

  JsonValue parseNumber() {
    // Full JSON number grammar: -?int(.frac)?([eE][+-]?exp)? — anything
    // looser (doubled signs, bare dots, "1e") would rely on strtod's
    // undefined leniency and parse garbage as 0.
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    consumeDigits();
    bool isInteger = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      isInteger = false;
      ++pos_;
      consumeDigits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      isInteger = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      consumeDigits();
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (isInteger) {
      try {
        return JsonValue::integer(std::stoll(token));
      } catch (const std::out_of_range&) {
        return JsonValue::number(std::strtod(token.c_str(), nullptr));
      }
    }
    return JsonValue::number(std::strtod(token.c_str(), nullptr));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< arrays and objects open at pos_
};

}  // namespace

JsonValue parseJson(const std::string& text) { return Parser{text}.parse(); }

}  // namespace nlft::obs
