#include "onex/json/json.h"

#include <bit>
#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace onex::json {
namespace {

// ---------------------------------------------------------------------------
// Reference formatter: the original printf/strtod number rule and escape
// loop, kept verbatim as the oracle Dump must match byte for byte.
// ---------------------------------------------------------------------------

std::string RefNumber(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  std::string num = buf;
  std::snprintf(buf, sizeof(buf), "%g", x);
  errno = 0;
  char* end = nullptr;
  const double back = std::strtod(buf, &end);
  if (*end == '\0' && errno != ERANGE && back == x) num = buf;
  return num;
}

std::string RefEscape(std::string_view s) {
  std::string out;
  for (char c : s) {
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
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void RefDump(const Value& v, int indent, int depth, std::string* out) {
  std::string pad;
  std::string close_pad;
  if (indent > 0) {
    pad = "\n" + std::string(static_cast<std::size_t>(indent * (depth + 1)), ' ');
    close_pad = "\n" + std::string(static_cast<std::size_t>(indent * depth), ' ');
  }
  switch (v.type()) {
    case Value::Type::kNull: *out += "null"; break;
    case Value::Type::kBool: *out += v.as_bool() ? "true" : "false"; break;
    case Value::Type::kNumber:
      *out += std::isfinite(v.as_number()) ? RefNumber(v.as_number()) : "null";
      break;
    case Value::Type::kString:
      *out += '"' + RefEscape(v.as_string()) + '"';
      break;
    case Value::Type::kArray: {
      *out += '[';
      bool first = true;
      for (const Value& e : v.as_array()) {
        if (!first) *out += ',';
        first = false;
        *out += pad;
        RefDump(e, indent, depth + 1, out);
      }
      if (!v.as_array().empty()) *out += close_pad;
      *out += ']';
      break;
    }
    case Value::Type::kObject: {
      *out += '{';
      bool first = true;
      for (const auto& [k, e] : v.as_object()) {
        if (!first) *out += ',';
        first = false;
        *out += pad + '"' + RefEscape(k) + "\":";
        if (indent > 0) *out += ' ';
        RefDump(e, indent, depth + 1, out);
      }
      if (!v.as_object().empty()) *out += close_pad;
      *out += '}';
      break;
    }
  }
}

std::string RefDump(const Value& v, int indent) {
  std::string out;
  RefDump(v, indent, 0, &out);
  return out;
}

/// Finite doubles that stress the shortest-text rule: the subnormal and
/// overflow edges with their neighbours, ±0, integers up to 2^63 and around
/// 10^6, a power-of-two sweep over the whole exponent range, powers of ten,
/// the doubles within a few steps of random six-digit decimals (where the
/// six-digit text only just does or does not read back), and ≥1M random
/// bit patterns.
std::vector<double> MakeEdgeAndRandomDoubles() {
  std::vector<double> xs = {0.0,    -0.0,     5e-324, 1e-310, -1e-320,
                            1e-300, 1e300,    0.1,    1.0 / 3, 1e6,
                            1e16,   123456.0, 1e-5,   1e-4,   0.5,
                            2.2250738585072009e-308};
  for (const double edge : {DBL_MIN, DBL_TRUE_MIN, DBL_MAX}) {
    for (const double e : {edge, std::nextafter(edge, 0.0),
                           std::nextafter(edge, 1.0), std::nextafter(edge, 2.0 * edge)}) {
      if (std::isfinite(e)) {
        xs.push_back(e);
        xs.push_back(-e);
      }
    }
  }
  for (int i = 0; i <= 63; ++i) {
    const double p = std::ldexp(1.0, i);
    for (const double v : {p, p - 1.0, p + 1.0, -p}) xs.push_back(v);
  }
  for (int e = -1074; e <= 1023; ++e) {
    for (const double m : {1.0, 1.5, 1.9999999999999998}) {
      const double v = std::ldexp(m, e);
      if (std::isfinite(v) && v != 0.0) xs.push_back(v);
    }
  }
  for (int e = -323; e <= 308; ++e) xs.push_back(std::pow(10.0, e));
  for (double v = 999'000.0; v <= 1'001'000.0; v += 0.5) xs.push_back(v);
  std::mt19937_64 rng(20170514);
  for (int i = 0; i < 20000; ++i) {
    char text[32];
    std::snprintf(text, sizeof(text), "%06de%d",
                  static_cast<int>(rng() % 1'000'000),
                  static_cast<int>(rng() % 60) - 30);
    const double d = std::strtod(text, nullptr);
    double lo = d;
    for (int k = 0; k < 4; ++k) lo = std::nextafter(lo, -1e300);
    for (int k = 0; k < 9; ++k, lo = std::nextafter(lo, 1e300)) {
      xs.push_back(lo);
      xs.push_back(-lo);
    }
  }
  for (int i = 0; i < (1 << 20); ++i) {
    const double v = std::bit_cast<double>(rng());
    if (std::isfinite(v)) xs.push_back(v);
  }
  return xs;
}

const std::vector<double>& EdgeAndRandomDoubles() {
  static const std::vector<double>* const kDoubles =
      new std::vector<double>(MakeEdgeAndRandomDoubles());
  return *kDoubles;
}

/// A random string over the bytes JSON escaping cares about: quotes,
/// backslashes, every control byte, DEL, plain ASCII and multi-byte UTF-8.
std::string RandomString(std::mt19937_64* rng) {
  static constexpr std::string_view kPieces[] = {
      "\"", "\\", "\x7f", "a", "Z", " ", "/", "\xc3\xa9", "\xe2\x82\xac",
      "\xf0\x9f\x93\x88", "key"};
  std::string s;
  const int n = static_cast<int>((*rng)() % 12);
  for (int i = 0; i < n; ++i) {
    const std::uint64_t r = (*rng)();
    if (r % 3 == 0) {
      s += static_cast<char>((r >> 8) % 0x20);  // 0x00-0x1f
    } else {
      s += kPieces[(r >> 8) % std::size(kPieces)];
    }
  }
  return s;
}

Value RandomTree(std::mt19937_64* rng, const std::vector<double>& numbers,
                 int depth) {
  const std::uint64_t pick = (*rng)() % (depth >= 4 ? 4 : 6);
  switch (pick) {
    case 0: return Value();
    case 1: return Value((*rng)() % 2 == 0);
    case 2: return Value(numbers[(*rng)() % numbers.size()]);
    case 3: return Value(RandomString(rng));
    case 4: {
      Value a = Value::MakeArray();
      const int n = static_cast<int>((*rng)() % 5);
      for (int i = 0; i < n; ++i) a.Append(RandomTree(rng, numbers, depth + 1));
      return a;
    }
    default: {
      Value o = Value::MakeObject();
      const int n = static_cast<int>((*rng)() % 5);
      for (int i = 0; i < n; ++i) {
        o.Set(RandomString(rng), RandomTree(rng, numbers, depth + 1));
      }
      return o;
    }
  }
}

TEST(JsonValueTest, TypePredicates) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(3.5).is_number());
  EXPECT_TRUE(Value(7).is_number());
  EXPECT_TRUE(Value("s").is_string());
  EXPECT_TRUE(Value::MakeArray().is_array());
  EXPECT_TRUE(Value::MakeObject().is_object());
}

TEST(JsonValueTest, AccessorsWithDefinedFallbacks) {
  EXPECT_FALSE(Value(3.0).as_bool());
  EXPECT_DOUBLE_EQ(Value("x").as_number(), 0.0);
  EXPECT_TRUE(Value(1.0).as_string().empty());
}

TEST(JsonValueTest, ObjectSetAndIndex) {
  Value obj = Value::MakeObject();
  obj.Set("a", 1.5);
  obj.Set("b", "text");
  EXPECT_DOUBLE_EQ(obj["a"].as_number(), 1.5);
  EXPECT_EQ(obj["b"].as_string(), "text");
  EXPECT_TRUE(obj["missing"].is_null());
  EXPECT_TRUE(Value(1.0)["key"].is_null());  // non-object index
}

TEST(JsonValueTest, ArrayAppendAndIndex) {
  Value arr = Value::MakeArray();
  arr.Append(1);
  arr.Append("two");
  EXPECT_DOUBLE_EQ(arr[0].as_number(), 1.0);
  EXPECT_EQ(arr[1].as_string(), "two");
  EXPECT_TRUE(arr[5].is_null());
}

TEST(JsonValueTest, NumberArrayHelper) {
  const Value arr = Value::NumberArray({1.0, 2.5, -3.0});
  ASSERT_TRUE(arr.is_array());
  ASSERT_EQ(arr.as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(arr[2].as_number(), -3.0);
}

TEST(JsonDumpTest, Scalars) {
  EXPECT_EQ(Value().Dump(), "null");
  EXPECT_EQ(Value(true).Dump(), "true");
  EXPECT_EQ(Value(false).Dump(), "false");
  EXPECT_EQ(Value(3.5).Dump(), "3.5");
  EXPECT_EQ(Value(42).Dump(), "42");
  EXPECT_EQ(Value("hi").Dump(), "\"hi\"");
}

TEST(JsonDumpTest, EscapesSpecialCharacters) {
  EXPECT_EQ(Value("a\"b").Dump(), "\"a\\\"b\"");
  EXPECT_EQ(Value("line\nbreak\t").Dump(), "\"line\\nbreak\\t\"");
  EXPECT_EQ(Value(std::string(1, '\x01')).Dump(), "\"\\u0001\"");
  EXPECT_EQ(Value("back\\slash").Dump(), "\"back\\\\slash\"");
}

TEST(JsonDumpTest, NonFiniteNumbersBecomeNull) {
  EXPECT_EQ(Value(std::numeric_limits<double>::infinity()).Dump(), "null");
  EXPECT_EQ(Value(std::nan("")).Dump(), "null");
}

TEST(JsonDumpTest, CompactObjectIsSortedAndTight) {
  Value obj = Value::MakeObject();
  obj.Set("b", 2);
  obj.Set("a", 1);
  EXPECT_EQ(obj.Dump(), "{\"a\":1,\"b\":2}");
}

TEST(JsonDumpTest, PrettyPrint) {
  Value obj = Value::MakeObject();
  obj.Set("k", Value::NumberArray({1.0}));
  EXPECT_EQ(obj.Dump(2), "{\n  \"k\": [\n    1\n  ]\n}");
}

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(Parse("null")->is_null());
  EXPECT_TRUE(Parse("true")->as_bool());
  EXPECT_FALSE(Parse("false")->as_bool());
  EXPECT_DOUBLE_EQ(Parse("3.25")->as_number(), 3.25);
  EXPECT_DOUBLE_EQ(Parse("-1e3")->as_number(), -1000.0);
  EXPECT_EQ(Parse("\"str\"")->as_string(), "str");
}

TEST(JsonParseTest, NestedStructures) {
  Result<Value> v = Parse(R"({"a":[1,2,{"b":null}],"c":{"d":true}})");
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ((*v)["a"][1].as_number(), 2.0);
  EXPECT_TRUE((*v)["a"][2]["b"].is_null());
  EXPECT_TRUE((*v)["c"]["d"].as_bool());
}

TEST(JsonParseTest, WhitespaceTolerant) {
  Result<Value> v = Parse("  { \"a\" :\n[ 1 , 2 ]\t} ");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ((*v)["a"].as_array().size(), 2u);
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ(Parse(R"("a\"b")")->as_string(), "a\"b");
  EXPECT_EQ(Parse(R"("tab\there")")->as_string(), "tab\there");
  EXPECT_EQ(Parse(R"("A")")->as_string(), "A");
  EXPECT_EQ(Parse(R"("é")")->as_string(), "\xc3\xa9");  // é in UTF-8
}

TEST(JsonParseTest, EmptyContainers) {
  EXPECT_TRUE(Parse("[]")->as_array().empty());
  EXPECT_TRUE(Parse("{}")->as_object().empty());
}

TEST(JsonParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("{").ok());
  EXPECT_FALSE(Parse("[1,]").ok());
  EXPECT_FALSE(Parse("{\"a\":}").ok());
  EXPECT_FALSE(Parse("{'a':1}").ok());
  EXPECT_FALSE(Parse("tru").ok());
  EXPECT_FALSE(Parse("1.2.3").ok());
  EXPECT_FALSE(Parse("\"unterminated").ok());
  EXPECT_FALSE(Parse("\"bad\\escape\"").ok());
  EXPECT_FALSE(Parse("\"short\\u12\"").ok());
}

TEST(JsonParseTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(Parse("1 2").ok());
  EXPECT_FALSE(Parse("{} extra").ok());
  EXPECT_FALSE(Parse("[1] ]").ok());
}

TEST(JsonParseTest, DepthLimitStopsRunawayNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  Result<Value> v = Parse(deep);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kParseError);
}

TEST(JsonRoundTripTest, DumpThenParsePreservesValue) {
  Value obj = Value::MakeObject();
  obj.Set("name", "onex");
  obj.Set("pi", 3.14159265358979);
  obj.Set("flags", [] {
    Value a = Value::MakeArray();
    a.Append(true);
    a.Append(Value());
    a.Append(-0.125);
    return a;
  }());
  Value inner = Value::MakeObject();
  inner.Set("deep", "value with \"quotes\" and \n newline");
  obj.Set("inner", std::move(inner));

  Result<Value> back = Parse(obj.Dump());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, obj);
  // Pretty-printed form round-trips too.
  Result<Value> pretty = Parse(obj.Dump(2));
  ASSERT_TRUE(pretty.ok());
  EXPECT_EQ(*pretty, obj);
}

TEST(JsonRoundTripTest, DoublesSurviveExactly) {
  for (const double v : {0.1, 1e-300, 1e300, -2.5e-7, 123456789.123456789}) {
    Result<Value> back = Parse(Value(v).Dump());
    ASSERT_TRUE(back.ok());
    EXPECT_DOUBLE_EQ(back->as_number(), v);
  }
}

TEST(JsonRoundTripTest, EveryFiniteDoubleSurvivesBitForBit) {
  // Subnormals included: Dump prints them with 17 digits, and Parse must
  // read back exactly what Dump wrote.
  for (const double x : EdgeAndRandomDoubles()) {
    const std::string text = Value(x).Dump();
    Result<Value> back = Parse(text);
    ASSERT_TRUE(back.ok()) << text << ": " << back.status().ToString();
    ASSERT_EQ(std::bit_cast<std::uint64_t>(back->as_number()),
              std::bit_cast<std::uint64_t>(x))
        << text;
  }
}

TEST(JsonParseTest, RejectsOutOfRangeNumbers) {
  EXPECT_FALSE(Parse("1e999").ok());
  EXPECT_FALSE(Parse("-1e999").ok());
  EXPECT_FALSE(Parse("1e-400").ok());  // underflows to zero
  EXPECT_EQ(Parse("+1.5")->as_number(), 1.5);  // strtod's grammar, as before
  EXPECT_FALSE(Parse("+-1").ok());
  EXPECT_FALSE(Parse("-+1").ok());
}

TEST(JsonDumpDifferentialTest, NumbersMatchThePrintfRule) {
  for (const double x : EdgeAndRandomDoubles()) {
    ASSERT_EQ(Value(x).Dump(), RefNumber(x))
        << std::bit_cast<std::uint64_t>(x);
  }
}

TEST(JsonDumpDifferentialTest, RandomTreesMatchTheReference) {
  std::vector<double> numbers = EdgeAndRandomDoubles();
  numbers.push_back(std::numeric_limits<double>::infinity());
  numbers.push_back(std::nan(""));
  std::mt19937_64 rng(7);
  for (int i = 0; i < 3000; ++i) {
    const Value tree = RandomTree(&rng, numbers, 0);
    ASSERT_EQ(tree.Dump(), RefDump(tree, 0));
    ASSERT_EQ(tree.Dump(2), RefDump(tree, 2));
  }
  for (int c = 0; c < 256; ++c) {
    const std::string s(1, static_cast<char>(c));
    ASSERT_EQ(EscapeString(s), RefEscape(s)) << c;
  }
}

TEST(JsonEscapeTest, EscapeString) {
  EXPECT_EQ(EscapeString("plain"), "plain");
  EXPECT_EQ(EscapeString("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(EscapeString("\r\n"), "\\r\\n");
}

}  // namespace
}  // namespace onex::json
