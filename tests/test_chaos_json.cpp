// common/json error-path coverage: the parser's contract is that it
// NEVER throws and never crashes — every malformed input becomes a
// structured JsonError with a 1-based line/column. These tests pin that
// contract on the inputs most likely to slip through a hand-rolled
// parser: malformed numbers, truncated documents, duplicate keys, and
// pathological nesting depth.

#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "chaos/scenario.hpp"

namespace carpool::chaos {
namespace {

JsonParseResult parse_nothrow(const std::string& text) {
  JsonParseResult out;
  EXPECT_NO_THROW(out = json_parse(text)) << "input: " << text;
  return out;
}

// ------------------------------------------------------ malformed numbers

TEST(ChaosJsonNumbers, BareMinusSignIsAnError) {
  const JsonParseResult r = parse_nothrow("-");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error.line, 1u);
  EXPECT_FALSE(r.error.message.empty());
}

TEST(ChaosJsonNumbers, ExponentWithoutDigitsIsAnError) {
  EXPECT_FALSE(parse_nothrow("1e").ok());
  EXPECT_FALSE(parse_nothrow("1e+").ok());
  EXPECT_FALSE(parse_nothrow("[1, 2e]").ok());
}

TEST(ChaosJsonNumbers, LeadingPlusIsAnError) {
  EXPECT_FALSE(parse_nothrow("+1").ok());
}

TEST(ChaosJsonNumbers, HexLiteralIsAnError) {
  // "0x10" parses "0" then leaves "x10" as trailing garbage.
  EXPECT_FALSE(parse_nothrow("0x10").ok());
}

TEST(ChaosJsonNumbers, DoubleDecimalPointIsAnError) {
  EXPECT_FALSE(parse_nothrow("1.2.3").ok());
  EXPECT_FALSE(parse_nothrow("{\"v\": 1..5}").ok());
}

TEST(ChaosJsonNumbers, ValidEdgeNumbersStillParse) {
  EXPECT_TRUE(parse_nothrow("-0.5").ok());
  EXPECT_TRUE(parse_nothrow("1e3").ok());
  EXPECT_TRUE(parse_nothrow("2.5E-4").ok());
}

// ----------------------------------------------------- truncated documents

TEST(ChaosJsonTruncation, LoneOpenBraceReportsError) {
  const JsonParseResult r = parse_nothrow("{");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.to_string().find("line 1"), std::string::npos);
}

TEST(ChaosJsonTruncation, ArrayCutAfterCommaReportsError) {
  EXPECT_FALSE(parse_nothrow("[1,").ok());
}

TEST(ChaosJsonTruncation, UnterminatedStringReportsError) {
  const JsonParseResult r = parse_nothrow("\"abc");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.message.find("unterminated"), std::string::npos);
}

TEST(ChaosJsonTruncation, ObjectCutMidValueReportsError) {
  EXPECT_FALSE(parse_nothrow("{\"k\":").ok());
  EXPECT_FALSE(parse_nothrow("{\"k\": 1,").ok());
  EXPECT_FALSE(parse_nothrow("{\"k\": \"v").ok());
}

TEST(ChaosJsonTruncation, TruncatedEscapesReportError) {
  EXPECT_FALSE(parse_nothrow("\"a\\").ok());
  EXPECT_FALSE(parse_nothrow("\"a\\u12").ok());
}

TEST(ChaosJsonTruncation, EmptyInputReportsError) {
  const JsonParseResult r = parse_nothrow("");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.message.find("end of input"), std::string::npos);
}

// --------------------------------------------------------- duplicate keys

TEST(ChaosJsonDuplicates, FirstKeyWins) {
  // The ordered-object representation keeps both members; find() returns
  // the first. Schema readers therefore see the first occurrence — the
  // behaviour scenario_from_json relies on, pinned here so a change to
  // the lookup order cannot slip in silently.
  const JsonParseResult r = parse_nothrow("{\"a\": 1, \"a\": 2}");
  ASSERT_TRUE(r.ok());
  const JsonValue* a = r.value->find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->as_number(), 1.0);
  EXPECT_EQ(r.value->as_object().size(), 2u);  // both retained
}

// ----------------------------------------------------------- depth limit

TEST(ChaosJsonDepth, PathologicalNestingFailsGracefully) {
  // A megabyte of '[' used to be a stack overflow (a crash, not an
  // error). The parser bounds container nesting instead.
  const std::string bombs[] = {
      std::string(100000, '['),
      std::string(300, '[') + "1" + std::string(300, ']'),
      [] {
        std::string s;
        for (int i = 0; i < 5000; ++i) s += "{\"k\":";
        return s;
      }(),
  };
  for (const std::string& bomb : bombs) {
    const JsonParseResult r = parse_nothrow(bomb);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.message.find("nesting"), std::string::npos);
  }
}

TEST(ChaosJsonDepth, DeepButBoundedNestingStillParses) {
  // 200 levels is comfortably inside the 256 cap.
  std::string doc = std::string(200, '[') + "42" + std::string(200, ']');
  const JsonParseResult r = parse_nothrow(doc);
  ASSERT_TRUE(r.ok());
}

// ---------------------------------------------------------- misc garbage

TEST(ChaosJsonGarbage, NeverThrowsOnAssortedInvalidInputs) {
  const char* inputs[] = {
      "tru",          "nul",   "[1 2]",      "{\"k\" 1}",
      "{k: 1}",       "[,]",   "{,}",        "\x01",
      "[1]]",         "1 2",   "\"\\x41\"",  "{\"k\": }",
  };
  for (const char* text : inputs) {
    EXPECT_FALSE(parse_nothrow(text).ok()) << "input: " << text;
  }
}

// ------------------------------------------------- topology schema

TEST(TopologySchema, RoundTripsEveryField) {
  Scenario s;
  s.name = "campus";
  s.duration = 2.0;
  s.num_stas = 8;
  sim::TopologySpec topo;
  topo.ap_count = 16;
  topo.ap_spacing = 25.0;
  topo.channel_count = 4;
  topo.roam_hysteresis_db = 2.5;
  topo.roam_interval = 0.125;
  topo.activity_factor = 0.75;
  topo.cell_size = 12.0;
  s.topology = topo;

  const ScenarioParseResult r = scenario_from_json(scenario_to_json(s));
  ASSERT_TRUE(r.ok()) << r.error.to_string();
  ASSERT_TRUE(r.scenario->topology.has_value());
  const sim::TopologySpec& p = *r.scenario->topology;
  EXPECT_EQ(p.ap_count, 16u);
  EXPECT_DOUBLE_EQ(p.ap_spacing, 25.0);
  EXPECT_EQ(p.channel_count, 4u);
  EXPECT_DOUBLE_EQ(p.roam_hysteresis_db, 2.5);
  EXPECT_DOUBLE_EQ(p.roam_interval, 0.125);
  EXPECT_DOUBLE_EQ(p.activity_factor, 0.75);
  EXPECT_DOUBLE_EQ(p.cell_size, 12.0);
  EXPECT_EQ(scenario_to_json(*r.scenario), scenario_to_json(s));
}

TEST(TopologySchema, AbsentSectionStaysDisengaged) {
  const ScenarioParseResult r =
      scenario_from_json(R"({"name": "x", "duration": 1})");
  ASSERT_TRUE(r.ok()) << r.error.to_string();
  EXPECT_FALSE(r.scenario->topology.has_value());
  // And the emitter must not invent one.
  EXPECT_EQ(scenario_to_json(*r.scenario).find("topology"),
            std::string::npos);
}

TEST(TopologySchema, OmittedKeysKeepSpecDefaults) {
  const ScenarioParseResult r = scenario_from_json(
      R"({"name": "x", "duration": 1, "topology": {"ap_count": 4}})");
  ASSERT_TRUE(r.ok()) << r.error.to_string();
  ASSERT_TRUE(r.scenario->topology.has_value());
  const sim::TopologySpec defaults;
  EXPECT_EQ(r.scenario->topology->ap_count, 4u);
  EXPECT_DOUBLE_EQ(r.scenario->topology->ap_spacing, defaults.ap_spacing);
  EXPECT_EQ(r.scenario->topology->channel_count, defaults.channel_count);
  EXPECT_DOUBLE_EQ(r.scenario->topology->roam_interval,
                   defaults.roam_interval);
}

TEST(TopologySchema, ViolationsReportDottedPaths) {
  struct Case {
    const char* json;
    const char* path_fragment;
  };
  const Case cases[] = {
      {R"({"name": "x", "duration": 1, "topology": 3})", "topology"},
      {R"({"name": "x", "duration": 1, "topology": {"ap_count": 0}})",
       "topology.ap_count"},
      {R"({"name": "x", "duration": 1, "topology": {"ap_count": 2000}})",
       "topology.ap_count"},
      {R"({"name": "x", "duration": 1,
           "topology": {"ap_count": 1.5}})",
       "topology.ap_count"},
      {R"({"name": "x", "duration": 1,
           "topology": {"ap_spacing": -2.0}})",
       "topology.ap_spacing"},
      {R"({"name": "x", "duration": 1,
           "topology": {"channel_count": 0}})",
       "topology.channel_count"},
      {R"({"name": "x", "duration": 1,
           "topology": {"roam_hysteresis_db": -1}})",
       "topology.roam_hysteresis_db"},
      {R"({"name": "x", "duration": 1,
           "topology": {"roam_interval": 0}})",
       "topology.roam_interval"},
      {R"({"name": "x", "duration": 1,
           "topology": {"activity_factor": 1.25}})",
       "topology.activity_factor"},
      {R"({"name": "x", "duration": 1,
           "topology": {"cell_size": 0}})",
       "topology.cell_size"},
  };
  for (const Case& c : cases) {
    ScenarioParseResult r;
    EXPECT_NO_THROW(r = scenario_from_json(c.json)) << c.json;
    ASSERT_FALSE(r.ok()) << c.json;
    EXPECT_NE(r.error.path.find(c.path_fragment), std::string::npos)
        << "error path '" << r.error.path << "' for " << c.json;
    EXPECT_FALSE(r.error.message.empty());
  }
}

// ---------------------------------------------------------- json_to_u64

TEST(ChaosJsonToU64, AcceptsExactIntegersOnly) {
  std::uint64_t out = 0;
  const JsonValue zero(0.0);
  EXPECT_TRUE(json_to_u64(&zero, out));
  EXPECT_EQ(out, 0u);
  const JsonValue big(9007199254740992.0);  // 2^53, the last exact one
  EXPECT_TRUE(json_to_u64(&big, out));
  EXPECT_EQ(out, 9007199254740992ull);
}

TEST(ChaosJsonToU64, RejectsEverythingTheCastCannotRepresent) {
  // Each of these would be an undefined static_cast<uint64_t> if it
  // reached the conversion: NaN passes a naive `< 0` check, 1e300 and
  // infinity overflow, and fractions silently truncate.
  std::uint64_t out = 0;
  const JsonValue negative(-1.0);
  const JsonValue fractional(1.5);
  const JsonValue huge(1e300);
  const JsonValue inf(std::numeric_limits<double>::infinity());
  const JsonValue nan(std::numeric_limits<double>::quiet_NaN());
  const JsonValue text(std::string("7"));
  EXPECT_FALSE(json_to_u64(&negative, out));
  EXPECT_FALSE(json_to_u64(&fractional, out));
  EXPECT_FALSE(json_to_u64(&huge, out));
  EXPECT_FALSE(json_to_u64(&inf, out));
  EXPECT_FALSE(json_to_u64(&nan, out));
  EXPECT_FALSE(json_to_u64(&text, out));
  EXPECT_FALSE(json_to_u64(nullptr, out));
}

}  // namespace
}  // namespace carpool::chaos
