#include "onex/json/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "onex/common/string_utils.h"

namespace onex::json {
namespace {

const Value& SharedNull() {
  static const Value* const kNull = new Value();
  return *kNull;
}

constexpr int kMaxDepth = 64;

/// Recursive-descent parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> Run() {
    SkipWhitespace();
    Value v;
    Status s = ParseValue(&v, 0);
    if (!s.ok()) return s;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Err("trailing characters after JSON value");
    }
    return v;
  }

 private:
  Status Err(const std::string& what) const {
    return Status::ParseError(
        StrFormat("%s at offset %zu", what.c_str(), pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(Value* out, int depth) {
    if (depth > kMaxDepth) return Err("nesting too deep");
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        ONEX_RETURN_IF_ERROR(ParseString(&s));
        *out = Value(std::move(s));
        return Status::OK();
      }
      case 't':
        return ParseLiteral("true", Value(true), out);
      case 'f':
        return ParseLiteral("false", Value(false), out);
      case 'n':
        return ParseLiteral("null", Value(nullptr), out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseLiteral(std::string_view lit, Value v, Value* out) {
    if (text_.substr(pos_, lit.size()) != lit) return Err("invalid literal");
    pos_ += lit.size();
    *out = std::move(v);
    return Status::OK();
  }

  Status ParseNumber(Value* out) {
    const std::size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    std::string_view token = text_.substr(start, pos_ - start);
    // The scan above admits strtod's leading '+', which this parser has
    // always accepted.
    if (token.size() > 1 && token[0] == '+' && token[1] != '-') {
      token.remove_prefix(1);
    }
    // from_chars reads every finite double, subnormals included, and
    // reports overflow (1e999) and underflow to zero as out of range.
    double d = 0.0;
    const std::from_chars_result r =
        std::from_chars(token.data(), token.data() + token.size(), d);
    if (r.ec != std::errc() || r.ptr != token.data() + token.size()) {
      return Err("invalid number");
    }
    *out = Value(d);
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Err("expected '\"'");
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return Err("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c == '\\') {
        if (pos_ >= text_.size()) return Err("dangling escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Err("short \\u escape");
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return Err("invalid \\u escape");
            }
            // Encode as UTF-8 (basic multilingual plane only; surrogate
            // pairs are passed through as two 3-byte sequences).
            if (code < 0x80) {
              *out += static_cast<char>(code);
            } else if (code < 0x800) {
              *out += static_cast<char>(0xC0 | (code >> 6));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              *out += static_cast<char>(0xE0 | (code >> 12));
              *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Err("invalid escape character");
        }
      } else {
        *out += c;
      }
    }
  }

  Status ParseArray(Value* out, int depth) {
    Consume('[');
    Value::Array arr;
    SkipWhitespace();
    if (Consume(']')) {
      *out = Value(std::move(arr));
      return Status::OK();
    }
    while (true) {
      Value elem;
      SkipWhitespace();
      ONEX_RETURN_IF_ERROR(ParseValue(&elem, depth + 1));
      arr.push_back(std::move(elem));
      SkipWhitespace();
      if (Consume(']')) break;
      if (!Consume(',')) return Err("expected ',' or ']'");
    }
    *out = Value(std::move(arr));
    return Status::OK();
  }

  Status ParseObject(Value* out, int depth) {
    Consume('{');
    Value::Object obj;
    SkipWhitespace();
    if (Consume('}')) {
      *out = Value(std::move(obj));
      return Status::OK();
    }
    while (true) {
      SkipWhitespace();
      std::string key;
      ONEX_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Err("expected ':'");
      SkipWhitespace();
      Value v;
      ONEX_RETURN_IF_ERROR(ParseValue(&v, depth + 1));
      obj[std::move(key)] = std::move(v);
      SkipWhitespace();
      if (Consume('}')) break;
      if (!Consume(',')) return Err("expected ',' or '}'");
    }
    *out = Value(std::move(obj));
    return Status::OK();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value Value::NumberArray(const std::vector<double>& xs) {
  Array arr;
  arr.reserve(xs.size());
  for (double x : xs) arr.emplace_back(x);
  return Value(std::move(arr));
}

const Value& Value::operator[](const std::string& key) const {
  if (!is_object()) return SharedNull();
  const auto it = object_.find(key);
  return it == object_.end() ? SharedNull() : it->second;
}

const Value& Value::operator[](std::size_t index) const {
  if (!is_array() || index >= array_.size()) return SharedNull();
  return array_[index];
}

namespace {

/// Appends `s` JSON-escaped, copying runs of plain bytes whole. Control
/// bytes without a short form become lowercase \u00xx; bytes >= 0x7f,
/// UTF-8 included, pass through unchanged.
void AppendEscaped(std::string* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out->append("\\\"", 2); break;
      case '\\': out->append("\\\\", 2); break;
      case '\b': out->append("\\b", 2); break;
      case '\f': out->append("\\f", 2); break;
      case '\n': out->append("\\n", 2); break;
      case '\r': out->append("\\r", 2); break;
      case '\t': out->append("\\t", 2); break;
      default: {
        const char u[6] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out->append(u, sizeof(u));
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
}

/// Appends a finite double as printf's %g (six significant digits) when
/// that text reads back to the same value, else as %.17g, which always
/// does. std::to_chars in general format is specified as exactly those
/// printf conversions. A subnormal always takes 17 digits: the rule
/// predates this parser accepting subnormals, and the bytes stay as they
/// were. An integer below 10^6, such as a warping-path index, is %g's own
/// text and reads back exactly, so it skips the check.
void AppendNumber(std::string* out, double x) {
  char buf[32];
  char* const end = buf + sizeof(buf);
  if (x == std::trunc(x) && std::fabs(x) < 1e6) {
    if (x == 0.0) {
      out->append(std::signbit(x) ? "-0" : "0");
    } else {
      out->append(buf, std::to_chars(buf, end, static_cast<long>(x)).ptr);
    }
    return;
  }
  std::to_chars_result r =
      std::to_chars(buf, end, x, std::chars_format::general, 6);
  double back = 0.0;
  const std::from_chars_result p = std::from_chars(buf, r.ptr, back);
  if (p.ec != std::errc() || back != x ||
      std::fpclassify(x) == FP_SUBNORMAL) {
    r = std::to_chars(buf, end, x, std::chars_format::general, 17);
  }
  out->append(buf, r.ptr);
}

/// Newline plus `indent * depth` spaces; nothing when compact.
void AppendPad(std::string* out, int indent, int depth) {
  if (indent <= 0) return;
  out->push_back('\n');
  out->append(
      static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth), ' ');
}

}  // namespace

std::string EscapeString(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  AppendEscaped(&out, s);
  return out;
}

void Value::DumpTo(std::string* out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      out->append("null");
      break;
    case Type::kBool:
      out->append(bool_ ? "true" : "false");
      break;
    case Type::kNumber:
      if (std::isfinite(number_)) {
        AppendNumber(out, number_);
      } else {
        out->append("null");  // JSON has no Inf/NaN; emit null like most encoders
      }
      break;
    case Type::kString:
      out->push_back('"');
      AppendEscaped(out, string_);
      out->push_back('"');
      break;
    case Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Value& v : array_) {
        if (!first) out->push_back(',');
        first = false;
        AppendPad(out, indent, depth + 1);
        v.DumpTo(out, indent, depth + 1);
      }
      if (!array_.empty()) AppendPad(out, indent, depth);
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) out->push_back(',');
        first = false;
        AppendPad(out, indent, depth + 1);
        out->push_back('"');
        AppendEscaped(out, k);
        out->append(indent > 0 ? "\": " : "\":");
        v.DumpTo(out, indent, depth + 1);
      }
      if (!object_.empty()) AppendPad(out, indent, depth);
      out->push_back('}');
      break;
    }
  }
}

std::string Value::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

bool Value::operator==(const Value& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kNumber:
      return number_ == other.number_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return array_ == other.array_;
    case Type::kObject:
      return object_ == other.object_;
  }
  return false;
}

Result<Value> Parse(std::string_view text) { return Parser(text).Run(); }

}  // namespace onex::json
