// Tests for the JSON writer (src/obs/json) every artifact renders
// through: sorted keys, escaping, number notation, the two layouts and
// nested rendered documents.

#include "src/obs/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

namespace xfair {
namespace {

using obs::Json;
constexpr Json::Layout kCompact = Json::Layout::kCompact;

TEST(Json, KeysComeOutSortedWhateverTheInsertionOrder) {
  Json a;
  a["zeta"] = 1;
  a["alpha"] = 2;
  a["mid"] = 3;
  Json b;
  b["mid"] = 3;
  b["zeta"] = 1;
  b["alpha"] = 2;
  EXPECT_EQ(a.Dump(kCompact), "{\"alpha\":2,\"mid\":3,\"zeta\":1}");
  EXPECT_EQ(a.Dump(), b.Dump());
  const Json literal = {{"zeta", 1}, {"alpha", 2}, {"mid", 3}};
  EXPECT_EQ(literal.Dump(), a.Dump());
}

TEST(Json, EscapesQuotesBackslashesAndControlCharacters) {
  const Json doc = {{"k\"ey\\", "a\"b\\c\nd\re\tf\x01g"}};
  EXPECT_EQ(doc.Dump(kCompact),
            "{\"k\\\"ey\\\\\":\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\"}");
}

TEST(Json, NonFiniteDoublesDumpAsNull) {
  const double inf = std::numeric_limits<double>::infinity();
  const Json doc = {{"nan", Json::Number(std::nan(""))},
                    {"neg_inf", Json::Fixed(-inf, 3)},
                    {"pos_inf", Json::Number(inf)}};
  EXPECT_EQ(doc.Dump(kCompact),
            "{\"nan\":null,\"neg_inf\":null,\"pos_inf\":null}");
}

TEST(Json, EmptyContainersInBothLayouts) {
  const Json doc = {{"array", std::vector<Json>{}}, {"object", Json()}};
  EXPECT_EQ(doc.Dump(kCompact), "{\"array\":[],\"object\":{}}");
  EXPECT_EQ(doc.Dump(), "{\n  \"array\": [],\n  \"object\": {}\n}");
  EXPECT_EQ(Json().Dump(), "{}");
  EXPECT_EQ(Json(std::vector<Json>{}).Dump(), "[]");
}

TEST(Json, PrettyLayoutPutsOneMemberPerLine) {
  const Json doc = {{"list", std::vector<Json>{1, "two"}},
                    {"nested", {{"flag", true}}}};
  EXPECT_EQ(doc.Dump(),
            "{\n"
            "  \"list\": [\n"
            "    1,\n"
            "    \"two\"\n"
            "  ],\n"
            "  \"nested\": {\n"
            "    \"flag\": true\n"
            "  }\n"
            "}");
}

TEST(Json, NestedRenderedDocumentIsReindented) {
  const Json inner = {{"a", 1}, {"b", {{"c", 2}}}};
  const Json outer = {{"doc", Json::Raw(inner.Dump())}, {"z", 0}};
  const Json expected = {{"doc", inner}, {"z", 0}};
  EXPECT_EQ(outer.Dump(), expected.Dump());
  EXPECT_EQ(outer.Dump(),
            "{\n"
            "  \"doc\": {\n"
            "    \"a\": 1,\n"
            "    \"b\": {\n"
            "      \"c\": 2\n"
            "    }\n"
            "  },\n"
            "  \"z\": 0\n"
            "}");
  // Compact output stays on one line.
  EXPECT_EQ(outer.Dump(kCompact).find('\n'), std::string::npos);
}

TEST(Json, NumbersKeepTheirNotationsDigits) {
  const Json doc = {{"big", uint64_t{18446744073709551615u}},
                    {"neg", -42},
                    {"ms", Json::Fixed(1.0 / 3.0, 3)},
                    {"pct", Json::Fixed(-0.75, 1)},
                    {"rate", Json::Number(1.0 / 3.0)},
                    {"whole", Json::Number(4.0)},
                    {"wide", Json::Fixed(180468.14, 1)}};
  EXPECT_EQ(doc.Dump(kCompact),
            "{\"big\":18446744073709551615,\"ms\":0.333,\"neg\":-42,"
            "\"pct\":-0.8,\"rate\":0.333333333333,\"whole\":4,"
            "\"wide\":180468.1}");
}

TEST(Json, CompactEventMatchesTheEventLogBytes) {
  // Members added out of order, as EventsToJsonl's callers might; the
  // bytes are EventLog.JsonlIsByteExactWithSortedKeysAndSeq's first line.
  Json event;
  event["severity"] = "info";
  event["seq"] = uint64_t{0};
  event["fields"] = {{"rows", "1200"}, {"model", "logistic_regression"}};
  event["event"] = "fit";
  event["component"] = "model";
  EXPECT_EQ(event.Dump(kCompact),
            "{\"component\":\"model\",\"event\":\"fit\",\"fields\":"
            "{\"model\":\"logistic_regression\",\"rows\":\"1200\"},"
            "\"seq\":0,\"severity\":\"info\"}");
}

}  // namespace
}  // namespace xfair
