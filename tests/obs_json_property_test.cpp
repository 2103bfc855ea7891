// Property tests of the obs::JsonValue <-> obs::parseJson round-trip.
//
// The fuzzer's corpus case files (tests/corpus/*.json), the run reports and
// the verifier's --json output all rest on this pair, so the contract is
// pinned property-style over randomized documents:
//
//   * dump -> parse -> dump is BYTE-IDENTICAL (dump() emits a normal form
//     and parsing it is the identity on that form), for compact and
//     pretty-printed output alike;
//   * numeric values survive exactly: int64 round-trips as integers,
//     finite doubles reparse to the bit-identical double (shortest
//     round-trip formatting), non-finite doubles serialise as null;
//   * strings survive arbitrary escapes and control characters;
//   * malformed input is REJECTED with std::runtime_error, never parsed
//     into something plausible;
//   * nesting deeper than kJsonMaxDepth is rejected the same way, however
//     deep, instead of exhausting the parser's stack;
//   * the run-report writers (obs/run_report.hpp) emit documents that parse
//     back, and appendToJsonArrayFile refuses, byte for byte untouched, a
//     history file that does not hold a JSON array.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/run_report.hpp"
#include "util/rng.hpp"

namespace nlft::obs {
namespace {

std::string randomString(util::Rng& rng) {
  static const std::vector<std::string> atoms = {
      "\"", "\\", "/", "\b", "\f", "\n", "\r", "\t", "\x01", "\x1f",
      "plain", "käse", "日本", "\xf0\x9f\x9a\x97", "a b", "{", "}", "[", "]",
      ":", ",", "0", "null", "\\u0041", "end\\",
  };
  std::string s;
  const std::size_t pieces = rng.uniformInt(6);
  for (std::size_t i = 0; i < pieces; ++i) s += atoms[rng.uniformInt(atoms.size())];
  return s;
}

double randomDouble(util::Rng& rng) {
  switch (rng.uniformInt(8)) {
    case 0: return 0.0;
    case 1: return rng.uniform(-1.0, 1.0);
    case 2: return rng.uniform(-1e18, 1e18);
    case 3: return std::ldexp(rng.uniform(0.5, 1.0), -1040);  // subnormal range
    case 4: return std::ldexp(rng.uniform(0.5, 1.0), 1020);   // huge magnitude
    case 5: return std::numeric_limits<double>::min();
    case 6: return std::numeric_limits<double>::denorm_min();
    default: return std::numeric_limits<double>::max();
  }
}

std::int64_t randomInt(util::Rng& rng) {
  switch (rng.uniformInt(4)) {
    case 0: return static_cast<std::int64_t>(rng.uniformInt(100));
    case 1: return -static_cast<std::int64_t>(rng.uniformInt(1'000'000'000));
    case 2: return std::numeric_limits<std::int64_t>::max();
    default: return std::numeric_limits<std::int64_t>::min();
  }
}

JsonValue randomValue(util::Rng& rng, int depth) {
  const std::uint64_t pick = rng.uniformInt(depth > 0 ? 7 : 5);
  switch (pick) {
    case 0: return JsonValue::null();
    case 1: return JsonValue::boolean(rng.bernoulli(0.5));
    case 2: return JsonValue::integer(randomInt(rng));
    case 3: {
      // Exclude -0.0: it serialises as "-0", which reparses as integer 0 —
      // normal-form edge pinned separately below.
      const double d = randomDouble(rng);
      return JsonValue::number(std::signbit(d) && d == 0.0 ? 0.0 : d);
    }
    case 4: return JsonValue::string(randomString(rng));
    case 5: {
      JsonValue array = JsonValue::array();
      const std::size_t n = rng.uniformInt(4);
      for (std::size_t i = 0; i < n; ++i) array.push(randomValue(rng, depth - 1));
      return array;
    }
    default: {
      JsonValue object = JsonValue::object();
      const std::size_t n = rng.uniformInt(4);
      for (std::size_t i = 0; i < n; ++i) {
        object.set(randomString(rng), randomValue(rng, depth - 1));
      }
      return object;
    }
  }
}

TEST(ObsJsonProperty, DumpParseDumpIsByteIdentical) {
  util::Rng rng{20260808};
  for (int i = 0; i < 2000; ++i) {
    const JsonValue value = randomValue(rng, 4);
    const std::string compact = value.dump();
    const JsonValue reparsed = parseJson(compact);
    EXPECT_EQ(reparsed.dump(), compact) << compact;
    // Pretty-printing changes only whitespace.
    EXPECT_EQ(parseJson(value.dump(2)).dump(), compact) << compact;
  }
}

TEST(ObsJsonProperty, NumericValuesSurviveExactly) {
  util::Rng rng{77};
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t integer = randomInt(rng);
    const JsonValue intBack = parseJson(JsonValue::integer(integer).dump());
    EXPECT_EQ(intBack.kind(), JsonValue::Kind::Int);
    EXPECT_EQ(intBack.asInt(), integer);

    const double d = randomDouble(rng);
    const JsonValue doubleBack = parseJson(JsonValue::number(d).dump());
    ASSERT_TRUE(doubleBack.isNumber()) << d;
    // Bit-exact: shortest-round-trip formatting guarantees strtod returns
    // the identical double (integral doubles come back as Kind::Int with
    // the same numeric value).
    EXPECT_EQ(doubleBack.asDouble(), d) << d;
  }
}

TEST(ObsJsonProperty, NumberEdgeCasesHavePinnedNormalForms) {
  EXPECT_EQ(JsonValue::number(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(JsonValue::number(-std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(JsonValue::number(std::nan("")).dump(), "null");
  // -0.0 dumps as "-0" and normalises to integer 0 after one parse; the
  // parse of the normal form is then a fixed point.
  const std::string minusZero = JsonValue::number(-0.0).dump();
  EXPECT_EQ(minusZero, "-0");
  EXPECT_EQ(parseJson(minusZero).dump(), "0");
  EXPECT_EQ(parseJson("0").dump(), "0");
  // int64 extremes parse back as integers, one past the range falls back
  // to double without throwing.
  EXPECT_EQ(parseJson("-9223372036854775808").kind(), JsonValue::Kind::Int);
  EXPECT_EQ(parseJson("9223372036854775808").kind(), JsonValue::Kind::Double);
}

TEST(ObsJsonProperty, EscapedStringsRoundTrip) {
  util::Rng rng{123};
  for (int i = 0; i < 2000; ++i) {
    const std::string raw = randomString(rng);
    const JsonValue back = parseJson(JsonValue::string(raw).dump());
    ASSERT_EQ(back.kind(), JsonValue::Kind::String);
    EXPECT_EQ(back.asString(), raw);
  }
  // Every control character individually.
  for (int c = 1; c < 0x20; ++c) {
    const std::string raw(1, static_cast<char>(c));
    EXPECT_EQ(parseJson(JsonValue::string(raw).dump()).asString(), raw) << c;
  }
}

TEST(ObsJsonProperty, MalformedInputIsRejected) {
  const std::vector<std::string> malformed = {
      "",
      "   ",
      "{",
      "}",
      "[1,",
      "[1 2]",
      "{\"a\":}",
      "{\"a\" 1}",
      "{a:1}",
      "\"unterminated",
      "\"bad\\escape\"",
      "\"bad\\u12\"",
      "tru",
      "nul",
      "NaN",
      "Infinity",
      "-",
      "--1",
      "+1",
      "1.",
      ".5",
      "1e",
      "1e+",
      "1..2",
      "1-2",
      "{} trailing",
      "[1] [2]",
      "'single'",
  };
  for (const std::string& text : malformed) {
    EXPECT_THROW((void)parseJson(text), std::runtime_error) << "'" << text << "'";
  }
}

TEST(ObsJsonProperty, DeepNestingRoundTrips) {
  JsonValue value = JsonValue::integer(7);
  for (int depth = 0; depth < 64; ++depth) {
    JsonValue wrap = depth % 2 == 0 ? JsonValue::array() : JsonValue::object();
    if (depth % 2 == 0) {
      wrap.push(std::move(value));
    } else {
      wrap.set("k", std::move(value));
    }
    value = std::move(wrap);
  }
  const std::string compact = value.dump();
  EXPECT_EQ(parseJson(compact).dump(), compact);
}

/// The openings of `depth` nested arrays (or single-key objects), in the
/// normal form dump() writes.
std::string opening(std::size_t depth, bool objects) {
  std::string text;
  for (std::size_t i = 0; i < depth; ++i) text += objects ? "{\"k\": " : "[";
  return text;
}

/// `depth` levels of nested arrays (or single-key objects) around 7.
std::string nested(std::size_t depth, bool objects) {
  return opening(depth, objects) + "7" + std::string(depth, objects ? '}' : ']');
}

TEST(ObsJsonProperty, NestingAtTheLimitRoundTrips) {
  for (const bool objects : {false, true}) {
    const std::string atLimit = nested(kJsonMaxDepth, objects);
    EXPECT_EQ(parseJson(atLimit).dump(), atLimit);
    EXPECT_THROW((void)parseJson(nested(kJsonMaxDepth + 1, objects)), std::runtime_error);
  }
}

TEST(ObsJsonProperty, HostileNestingIsRejected) {
  // 100 000 levels used to overflow the recursive-descent parser's stack.
  for (const bool objects : {false, true}) {
    EXPECT_THROW((void)parseJson(nested(100000, objects)), std::runtime_error);
    // Unterminated, as a truncated file would be.
    EXPECT_THROW((void)parseJson(opening(100000, objects)), std::runtime_error);
  }
}

std::string readFile(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void writeFile(const std::string& path, const std::string& content) {
  std::ofstream{path, std::ios::binary | std::ios::trunc} << content;
}

/// A fresh path under the test's temporary directory (removed first, so a
/// rerun starts from a missing file).
std::string tempPath(const std::string& name) {
  const std::string path = testing::TempDir() + "obs_run_report_" + name;
  std::remove(path.c_str());
  return path;
}

JsonValue entryNumbered(std::int64_t n) {
  JsonValue entry = JsonValue::object();
  entry.set("bench", JsonValue::string("scaling"));
  entry.set("threads", JsonValue::integer(n));
  return entry;
}

TEST(RunReportFile, AppendToMissingFileCreatesOneElementArray) {
  const std::string path = tempPath("missing.json");
  appendToJsonArrayFile(entryNumbered(1), path);
  const JsonValue history = parseJson(readFile(path));
  ASSERT_EQ(history.kind(), JsonValue::Kind::Array);
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history.at(0).dump(), entryNumbered(1).dump());
}

TEST(RunReportFile, SecondAppendKeepsTheFirstEntry) {
  const std::string path = tempPath("twice.json");
  appendToJsonArrayFile(entryNumbered(1), path);
  appendToJsonArrayFile(entryNumbered(2), path);
  const JsonValue history = parseJson(readFile(path));
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history.at(0).dump(), entryNumbered(1).dump());
  EXPECT_EQ(history.at(1).dump(), entryNumbered(2).dump());
}

TEST(RunReportFile, AppendAfterANestedArrayAddsATopLevelElement) {
  const std::string path = tempPath("nested.json");
  writeFile(path, "[[1]]\n");
  appendToJsonArrayFile(entryNumbered(2), path);
  const JsonValue history = parseJson(readFile(path));
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history.at(0).dump(), "[1]");
  EXPECT_EQ(history.at(1).dump(), entryNumbered(2).dump());
}

TEST(RunReportFile, AppendRefusesAnythingButAnArrayAndLeavesItUntouched) {
  // An object whose member is an array, and text that is not JSON at all:
  // neither may gain an entry or be replaced by a fresh array.
  for (const std::string& content : {std::string{"{\"a\": [1]}\n"},
                                     std::string{"not json, no bracket\n"}}) {
    SCOPED_TRACE(content);
    const std::string path = tempPath("refused.json");
    writeFile(path, content);
    EXPECT_THROW(appendToJsonArrayFile(entryNumbered(1), path), std::runtime_error);
    EXPECT_EQ(readFile(path), content);
  }
}

TEST(RunReportFile, WrittenReportParsesBack) {
  const std::string path = tempPath("report.json");
  JsonValue report = JsonValue::object();
  report.set("experiments", JsonValue::integer(1000));
  report.set("coverage", JsonValue::number(0.987654321));
  JsonValue nested = JsonValue::array();
  nested.push(entryNumbered(3));
  nested.push(JsonValue::string("quote \" and newline \n"));
  report.set("rows", std::move(nested));
  writeRunReportFile(report, path);
  EXPECT_EQ(parseJson(readFile(path)).dump(), report.dump());
}

}  // namespace
}  // namespace nlft::obs
