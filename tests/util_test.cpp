// Tests for src/util: rng determinism, CLI parsing, table rendering,
// units, histogram, JSON writer/parser.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>
#include <vector>

#include "util/cli.hpp"
#include "util/histogram.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace eta::util {
namespace {

TEST(SplitMix64, Deterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_EQ(same, 0);
}

TEST(SplitMix64, BoundedStaysInRange) {
  SplitMix64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(SplitMix64, BoundedCoversRange) {
  SplitMix64 rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(SplitMix64, DoubleInUnitInterval) {
  SplitMix64 rng(11);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(SplitMix64, StreamsAreIndependent) {
  auto s0 = SplitMix64::Stream(5, 0);
  auto s1 = SplitMix64::Stream(5, 1);
  EXPECT_NE(s0.Next(), s1.Next());
}

TEST(Mix64, PairHashOrderSensitive) {
  EXPECT_NE(MixPair(1, 2), MixPair(2, 1));
}

TEST(CommandLine, ParsesAllForms) {
  const char* argv[] = {"prog", "pos", "--alpha=3", "--beta", "4", "--flag"};
  std::string error;
  auto cl = CommandLine::Parse(6, argv, &error);
  ASSERT_TRUE(cl.has_value());
  EXPECT_EQ(cl->GetInt("alpha", 0), 3);
  EXPECT_EQ(cl->GetInt("beta", 0), 4);
  EXPECT_TRUE(cl->GetBool("flag", false));
  ASSERT_EQ(cl->Positional().size(), 1u);
  EXPECT_EQ(cl->Positional()[0], "pos");
}

TEST(CommandLine, DefaultsApply) {
  const char* argv[] = {"prog"};
  std::string error;
  auto cl = CommandLine::Parse(1, argv, &error);
  ASSERT_TRUE(cl.has_value());
  EXPECT_EQ(cl->GetString("missing", "d"), "d");
  EXPECT_DOUBLE_EQ(cl->GetDouble("missing", 1.5), 1.5);
  EXPECT_FALSE(cl->GetBool("missing", false));
}

TEST(CommandLine, TracksUnusedFlags) {
  const char* argv[] = {"prog", "--used=1", "--typo=2"};
  std::string error;
  auto cl = CommandLine::Parse(3, argv, &error);
  ASSERT_TRUE(cl.has_value());
  cl->GetInt("used", 0);
  auto unused = cl->UnusedFlags();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Table, RendersAllRows) {
  Table t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRule();
  t.AddRow({"b", "22"});
  std::string s = t.Render("title");
  EXPECT_NE(s.find("title"), std::string::npos);
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(FormatDouble, TrimsZeros) {
  EXPECT_EQ(FormatDouble(1.50, 2), "1.5");
  EXPECT_EQ(FormatDouble(2.00, 2), "2");
  EXPECT_EQ(FormatDouble(0.25, 2), "0.25");
}

TEST(FormatMs, PicksUnits) {
  EXPECT_EQ(FormatMs(2500), "2.5 s");
  EXPECT_EQ(FormatMs(12.34), "12.3 ms");
  EXPECT_EQ(FormatMs(0.5), "500 us");
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2 * kMiB), "2.00 MB");
}

TEST(Histogram, BasicStats) {
  Histogram h;
  h.Add(4);
  h.Add(8);
  h.Add(12);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.Sum(), 24u);
  EXPECT_EQ(h.Min(), 4u);
  EXPECT_EQ(h.Max(), 12u);
  EXPECT_DOUBLE_EQ(h.Mean(), 8.0);
  EXPECT_EQ(h.Percentile(0.5), 8u);
}

TEST(Histogram, EmptyIsSafe) {
  Histogram h;
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

// --- JSON (the one writer/validator behind every JSON emitter) --------------

/// One string value as JsonWriter renders it, quotes included.
std::string Quoted(std::string_view s) { return JsonWriter().String(s).Take(); }

TEST(Json, EscapePassesPlainTextThrough) {
  EXPECT_EQ(Quoted("traverse_full"), "\"traverse_full\"");
  EXPECT_EQ(Quoted(""), "\"\"");
  EXPECT_EQ(Quoted("ünïcode → ok"), "\"ünïcode → ok\"");  // UTF-8 untouched
}

TEST(Json, EscapeHandlesQuotesBackslashesAndControls) {
  EXPECT_EQ(Quoted("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(Quoted("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(Quoted("a\nb\tc\rd"), "\"a\\nb\\tc\\rd\"");
  EXPECT_EQ(Quoted("a\bb\fc"), "\"a\\bb\\fc\"");
  EXPECT_EQ(Quoted(std::string("a\x01z\x1f", 4)), "\"a\\u0001z\\u001f\"");
}

TEST(Json, ParseAcceptsRoundTrippedEscapes) {
  const std::string original = "kernel \"x\"\\path\nline\x01!";
  auto doc = JsonParse("{\"k\":" + Quoted(original) + "}");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->IsObject());
  ASSERT_NE(doc->Find("k"), nullptr);
  EXPECT_EQ(doc->Find("k")->string, original);
}

TEST(Json, ParseHandlesScalarsArraysAndNesting) {
  auto doc = JsonParse(
      "{\"a\":1.5,\"b\":[true,false,null,-2e3],\"c\":{\"d\":\"e\"}}");
  ASSERT_TRUE(doc.has_value());
  EXPECT_DOUBLE_EQ(doc->Find("a")->number, 1.5);
  const JsonValue* b = doc->Find("b");
  ASSERT_TRUE(b->IsArray());
  ASSERT_EQ(b->array.size(), 4u);
  EXPECT_TRUE(b->array[0].boolean);
  EXPECT_EQ(b->array[2].kind, JsonValue::Kind::kNull);
  EXPECT_DOUBLE_EQ(b->array[3].number, -2000.0);
  EXPECT_EQ(doc->Find("c")->Find("d")->string, "e");
}

TEST(Json, ParseRejectsMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(JsonParse("{", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(JsonParse("{\"a\":1,}").has_value());     // trailing comma
  EXPECT_FALSE(JsonParse("{\"a\":01}").has_value());     // leading zero
  EXPECT_FALSE(JsonParse("{\"a\":1} x").has_value());    // trailing garbage
  EXPECT_FALSE(JsonParse("{\"a\":\"\n\"}").has_value()); // raw control char
  EXPECT_FALSE(JsonParse("nul").has_value());
  EXPECT_FALSE(JsonParse("").has_value());
}

/// Parses a writer's document; fails the test when it is not strict JSON.
JsonValue MustParse(const std::string& doc) {
  std::string error;
  std::optional<JsonValue> value = JsonParse(doc, &error);
  EXPECT_TRUE(value.has_value()) << error << " in " << doc;
  return value.value_or(JsonValue());
}

TEST(JsonWriter, PlacesCommasInNestedContainers) {
  JsonWriter w;
  w.BeginObject().Key("a").Uint(1).Key("obj").BeginObject().EndObject();
  w.Key("arr").BeginArray().EndArray().Key("list").BeginArray().Int(-2);
  w.BeginObject().Key("x").Bool(true).Key("y").Raw("null").EndObject();
  w.BeginArray().EndArray().String("s").BeginArray().Uint(3).Uint(4).EndArray();
  const std::string doc = w.EndArray().EndObject().Take();
  EXPECT_EQ(doc, R"({"a":1,"obj":{},"arr":[],"list":[-2,{"x":true,"y":null},[],"s",[3,4]]})");
  const JsonValue value = MustParse(doc);
  ASSERT_EQ(value.object.size(), 4u);
  EXPECT_EQ(value.Find("list")->array.size(), 5u);
  EXPECT_EQ(MustParse(JsonWriter().BeginArray().EndArray().Take()).array.size(), 0u);
}

TEST(JsonWriter, EscapesKeysAndValues) {
  const std::string key = "k\"ey\\";
  const std::string value = std::string("v\n\t\x01\"end", 8);
  const std::string doc = JsonWriter().BeginObject().Key(key).String(value).EndObject().Take();
  EXPECT_EQ(doc, "{\"k\\\"ey\\\\\":\"v\\n\\t\\u0001\\\"end\"}");
  const JsonValue parsed = MustParse(doc);
  ASSERT_NE(parsed.Find(key), nullptr);
  EXPECT_EQ(parsed.Find(key)->string, value);
}

TEST(JsonWriter, FixedPrecisionMatchesPrintf) {
  const double values[] = {0.0,     -0.0,     1.0 / 3,  0.125,    2.5,    -2.5,
                           123.4567, -1e-7,    0.00005,  1e15 + 1, 1e300,  -1e300,
                           4.35,     1234.5678};
  for (double v : values) {
    for (int precision : {0, 1, 3, 4, 6}) {
      std::vector<char> expected(400);
      std::snprintf(expected.data(), expected.size(), "%.*f", precision, v);
      const std::string doc = JsonWriter().Double(v, precision).Take();
      EXPECT_EQ(doc, expected.data()) << v << " at precision " << precision;
      EXPECT_EQ(MustParse(doc).number, std::strtod(expected.data(), nullptr));
    }
  }
  EXPECT_EQ(JsonWriter().Double(-0.0, 4).Take(), "-0.0000");
}

TEST(JsonWriter, LongStringComesOutWhole) {
  const std::string long_value(700, 'x');
  const std::string doc =
      JsonWriter().BeginObject().Key(long_value).String(long_value).EndObject().Take();
  EXPECT_EQ(doc, "{\"" + long_value + "\":\"" + long_value + "\"}");
  EXPECT_EQ(MustParse(doc).Find(long_value)->string, long_value);
}

TEST(JsonWriter, NewlinePutsOneRecordPerLine) {
  JsonWriter w;
  w.BeginObject().Key("traces").BeginArray();
  for (uint64_t id : {1, 2}) {
    w.Newline().BeginObject().Key("id").Uint(id).Key("events").BeginArray();
    w.Newline().Raw("{}").Newline().Raw("{}").EndArray().EndObject();
  }
  const std::string doc = w.Newline().EndArray().EndObject().Newline().Take();
  EXPECT_EQ(doc,
            "{\"traces\":[\n {\"id\":1,\"events\":[\n  {},\n  {}]},"
            "\n {\"id\":2,\"events\":[\n  {},\n  {}]}\n]}\n");
  EXPECT_EQ(MustParse(doc).Find("traces")->array.size(), 2u);
  EXPECT_EQ(JsonWriter().BeginArray().Newline().EndArray().Take(), "[\n]");
}

}  // namespace
}  // namespace eta::util
