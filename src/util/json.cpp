#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace pf::util {

void JsonWriter::newline_indent() {
  if (indent_ <= 0) return;
  out_ += '\n';
  out_.append(stack_.size() * static_cast<std::size_t>(indent_), ' ');
}

void JsonWriter::before_value() {
  if (stack_.empty()) {
    if (wrote_value_) {
      throw std::logic_error("JsonWriter: multiple top-level values");
    }
    return;
  }
  Frame& top = stack_.back();
  if (top.kind == '{' && !top.keyed) {
    throw std::logic_error("JsonWriter: object value without key()");
  }
  if (top.kind == '[' || !top.keyed) {
    if (top.count > 0) out_ += ',';
    newline_indent();
  }
  top.keyed = false;
  ++top.count;
}

JsonWriter& JsonWriter::key(const std::string& name) {
  if (stack_.empty() || stack_.back().kind != '{') {
    throw std::logic_error("JsonWriter: key() outside an object");
  }
  Frame& top = stack_.back();
  if (top.keyed) throw std::logic_error("JsonWriter: key() after key()");
  if (top.count > 0) out_ += ',';
  newline_indent();
  out_ += '"';
  out_ += escape(name);
  out_ += indent_ > 0 ? "\": " : "\":";
  top.keyed = true;
  return *this;
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  out_ += '{';
  stack_.push_back({'{', 0, false});
  wrote_value_ = true;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (stack_.empty() || stack_.back().kind != '{' || stack_.back().keyed) {
    throw std::logic_error("JsonWriter: unbalanced end_object()");
  }
  const bool had_values = stack_.back().count > 0;
  stack_.pop_back();
  if (had_values) newline_indent();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  out_ += '[';
  stack_.push_back({'[', 0, false});
  wrote_value_ = true;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (stack_.empty() || stack_.back().kind != '[') {
    throw std::logic_error("JsonWriter: unbalanced end_array()");
  }
  const bool had_values = stack_.back().count > 0;
  stack_.pop_back();
  if (had_values) newline_indent();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& s) {
  before_value();
  out_ += '"';
  out_ += escape(s);
  out_ += '"';
  wrote_value_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double d) {
  before_value();
  if (!std::isfinite(d)) {
    out_ += "null";
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    out_ += buf;
  }
  wrote_value_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t i) {
  before_value();
  out_ += std::to_string(i);
  wrote_value_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t u) {
  before_value();
  out_ += std::to_string(u);
  wrote_value_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  before_value();
  out_ += b ? "true" : "false";
  wrote_value_ = true;
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  out_ += "null";
  wrote_value_ = true;
  return *this;
}

JsonWriter& JsonWriter::raw(const std::string& json) {
  before_value();
  out_ += json;
  wrote_value_ = true;
  return *this;
}

std::string JsonWriter::escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream file(path, std::ios::binary);
  if (!file) return false;
  file << content;
  return static_cast<bool>(file);
}

bool read_text_file(const std::string& path, std::string& out) {
  // One buffer sized from the file. file_size fails on anything but a
  // regular file (a directory opens fine and only fails to read).
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) return false;
  std::ifstream file(path, std::ios::binary);
  if (!file) return false;
  out.resize(static_cast<std::size_t>(size));
  file.read(out.data(), static_cast<std::streamsize>(size));
  return file.gcount() == static_cast<std::streamsize>(size);
}

// ---- reader --------------------------------------------------------------

std::string JsonValue::describe() const {
  switch (kind_) {
    case Kind::Null: return "null";
    case Kind::Bool: return "bool";
    case Kind::Number: return "number";
    case Kind::String: return "string";
    case Kind::Array: return "array";
    case Kind::Object: return "object";
  }
  return "?";
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::Bool) {
    throw JsonError("expected bool, got " + describe());
  }
  return bool_;
}

double JsonValue::as_double() const {
  if (kind_ != Kind::Number) {
    throw JsonError("expected number, got " + describe());
  }
  return num_;
}

std::int64_t JsonValue::as_int() const {
  if (kind_ != Kind::Number || !is_integral_ || is_unsigned_) {
    throw JsonError("expected integer, got " +
                    (kind_ == Kind::Number ? "non-integral number"
                                           : describe()));
  }
  return int_;
}

std::uint64_t JsonValue::as_uint() const {
  if (kind_ != Kind::Number || !is_integral_ ||
      (!is_unsigned_ && int_ < 0)) {
    throw JsonError("expected unsigned integer, got " +
                    (kind_ == Kind::Number ? "non-integral or negative number"
                                           : describe()));
  }
  return static_cast<std::uint64_t>(int_);
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::String) {
    throw JsonError("expected string, got " + describe());
  }
  return str_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (kind_ != Kind::Array) {
    throw JsonError("expected array, got " + describe());
  }
  return items_;
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  if (kind_ != Kind::Object) {
    throw JsonError("expected object, got " + describe());
  }
  return members_;
}

std::size_t JsonValue::size() const {
  if (kind_ == Kind::Array) return items_.size();
  if (kind_ == Kind::Object) return members_.size();
  throw JsonError("expected array or object, got " + describe());
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* value = find(key);
  if (value == nullptr) {
    throw JsonError(kind_ == Kind::Object
                        ? "missing key '" + key + "'"
                        : "key '" + key + "' lookup on " + describe());
  }
  return *value;
}

void JsonValue::write(JsonWriter& out) const {
  switch (kind_) {
    case Kind::Null: out.null(); break;
    case Kind::Bool: out.value(bool_); break;
    case Kind::Number:
      if (is_integral_) {
        if (is_unsigned_) out.value(static_cast<std::uint64_t>(int_));
        else out.value(int_);
      } else {
        out.value(num_);
      }
      break;
    case Kind::String: out.value(str_); break;
    case Kind::Array:
      out.begin_array();
      for (const auto& item : items_) item.write(out);
      out.end_array();
      break;
    case Kind::Object:
      out.begin_object();
      for (const auto& [name, value] : members_) {
        out.key(name);
        value.write(out);
      }
      out.end_object();
      break;
  }
}

/// Recursive-descent JSON parser with line/column error reporting and a
/// nesting-depth cap (malformed/hostile inputs fail with JsonError, never
/// by overflowing the stack).
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content after JSON document");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 96;

  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1, column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw JsonError("JSON parse error at line " + std::to_string(line) +
                    " column " + std::to_string(column) + ": " + message);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
    }
    ++pos_;
  }

  bool consume_if(char c) {
    skip_whitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting deeper than 96 levels");
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return parse_string_value();
      case 't': return parse_literal("true", JsonValue::Kind::Bool, true);
      case 'f': return parse_literal("false", JsonValue::Kind::Bool, false);
      case 'n': return parse_literal("null", JsonValue::Kind::Null, false);
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        fail(std::string("unexpected character '") + c + "'");
    }
  }

  JsonValue parse_literal(const char* word, JsonValue::Kind kind, bool b) {
    for (const char* w = word; *w != '\0'; ++w, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *w) {
        fail(std::string("invalid literal (expected '") + word + "')");
      }
    }
    JsonValue value;
    value.kind_ = kind;
    value.bool_ = b;
    return value;
  }

  JsonValue parse_object(int depth) {
    expect('{');
    JsonValue value;
    value.kind_ = JsonValue::Kind::Object;
    if (consume_if('}')) return value;
    while (true) {
      if (peek() != '"') fail("object keys must be strings");
      std::string key = parse_string_token();
      expect(':');
      value.members_.emplace_back(std::move(key), parse_value(depth + 1));
      if (consume_if('}')) return value;
      expect(',');
    }
  }

  JsonValue parse_array(int depth) {
    expect('[');
    JsonValue value;
    value.kind_ = JsonValue::Kind::Array;
    if (consume_if(']')) return value;
    while (true) {
      value.items_.push_back(parse_value(depth + 1));
      if (consume_if(']')) return value;
      expect(',');
    }
  }

  JsonValue parse_string_value() {
    JsonValue value;
    value.kind_ = JsonValue::Kind::String;
    value.str_ = parse_string_token();
    return value;
  }

  std::string parse_string_token() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("unescaped control character in string");
      }
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
        case 'u': append_unicode_escape(out); break;
        default:
          pos_ -= 1;
          fail(std::string("invalid escape '\\") + e + "'");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail("truncated \\u escape");
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else {
        --pos_;
        fail("non-hex digit in \\u escape");
      }
    }
    return code;
  }

  void append_unicode_escape(std::string& out) {
    unsigned code = parse_hex4();
    if (code >= 0xd800 && code <= 0xdbff) {
      // High surrogate: require the paired low surrogate.
      if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u') {
        fail("unpaired UTF-16 surrogate");
      }
      pos_ += 2;
      const unsigned low = parse_hex4();
      if (low < 0xdc00 || low > 0xdfff) fail("invalid low surrogate");
      code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
    } else if (code >= 0xdc00 && code <= 0xdfff) {
      fail("unpaired UTF-16 surrogate");
    }
    // UTF-8 encode.
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xc0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xe0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() ||
        !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
      fail("malformed number");
    }
    // Leading zero may not be followed by more digits (JSON grammar).
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        text_[pos_ + 1] >= '0' && text_[pos_ + 1] <= '9') {
      fail("numbers may not have leading zeros");
    }
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() ||
          !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
        fail("malformed number (digits required after '.')");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
        fail("malformed number (digits required in exponent)");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const std::string token = text_.substr(start, pos_ - start);
    JsonValue value;
    value.kind_ = JsonValue::Kind::Number;
    try {
      value.num_ = std::stod(token);
    } catch (const std::out_of_range&) {
      // Magnitude overflow degrades to +-inf like most readers; accessors
      // on it still work as a double.
      value.num_ = token[0] == '-' ? -HUGE_VAL : HUGE_VAL;
    }
    if (integral) {
      try {
        value.int_ = std::stoll(token);
        value.is_integral_ = true;
      } catch (const std::out_of_range&) {
        if (token[0] != '-') {
          try {
            value.int_ = static_cast<std::int64_t>(std::stoull(token));
            value.is_integral_ = true;
            value.is_unsigned_ = true;
          } catch (const std::out_of_range&) {
            // Too big even for uint64: number stays double-only.
          }
        }
      }
    }
    return value;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

JsonValue json_parse(const std::string& text) {
  JsonParser parser(text);
  return parser.parse_document();
}

}  // namespace pf::util
