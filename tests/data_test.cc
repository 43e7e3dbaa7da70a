// Tests for src/data: schema semantics, dataset operations, scaling,
// generators' planted bias, CSV round-trip.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string_view>

#include "src/data/csv.h"
#include "src/data/generators.h"
#include "src/data/scaler.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace xfair {
namespace {

Schema TinySchema() {
  std::vector<FeatureSpec> f;
  f.push_back({"s", FeatureKind::kBinary, 0, Actionability::kImmutable, 0, 1});
  f.push_back({"a", FeatureKind::kNumeric, 0, Actionability::kIncreaseOnly,
               -10, 10});
  f.push_back({"b", FeatureKind::kNumeric, 0, Actionability::kDecreaseOnly,
               -10, 10});
  return Schema(std::move(f), 0);
}

Dataset TinyData() {
  Matrix x = Matrix::FromRows({{1, 0.5, 2.0},
                               {0, 1.5, -1.0},
                               {1, -0.5, 0.0},
                               {0, 2.5, 1.0}});
  return Dataset(TinySchema(), std::move(x), {1, 0, 0, 1}, {1, 0, 1, 0});
}

TEST(Schema, IndexOfFindsAndFails) {
  Schema s = TinySchema();
  auto idx = s.IndexOf("b");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 2u);
  EXPECT_FALSE(s.IndexOf("nope").ok());
}

TEST(Schema, MoveAllowedRespectsActionability) {
  Schema s = TinySchema();
  EXPECT_FALSE(s.MoveAllowed(0, 1.0));   // immutable
  EXPECT_TRUE(s.MoveAllowed(0, 0.0));    // no-op always allowed
  EXPECT_TRUE(s.MoveAllowed(1, 1.0));    // increase-only up
  EXPECT_FALSE(s.MoveAllowed(1, -1.0));  // increase-only down
  EXPECT_TRUE(s.MoveAllowed(2, -1.0));
  EXPECT_FALSE(s.MoveAllowed(2, 1.0));
}

TEST(Schema, WithoutFeatureRemapsSensitiveIndex) {
  Schema s = TinySchema();
  Schema dropped = s.WithoutFeature(0);
  EXPECT_EQ(dropped.num_features(), 2u);
  EXPECT_EQ(dropped.sensitive_index(), -1);
  Schema dropped_b = s.WithoutFeature(2);
  EXPECT_EQ(dropped_b.sensitive_index(), 0);
  Schema mid = Schema(
      {FeatureSpec{"x"}, FeatureSpec{"s", FeatureKind::kBinary},
       FeatureSpec{"y"}},
      1);
  EXPECT_EQ(mid.WithoutFeature(0).sensitive_index(), 0);
}

TEST(Dataset, BasicAccessors) {
  Dataset d = TinyData();
  EXPECT_EQ(d.size(), 4u);
  EXPECT_EQ(d.num_features(), 3u);
  EXPECT_EQ(d.label(0), 1);
  EXPECT_EQ(d.group(1), 0);
  EXPECT_EQ(d.instance(2), Vector({1, -0.5, 0.0}));
}

TEST(Dataset, GroupIndicesAndBaseRate) {
  Dataset d = TinyData();
  EXPECT_EQ(d.GroupIndices(1), (std::vector<size_t>{0, 2}));
  EXPECT_EQ(d.GroupIndices(0), (std::vector<size_t>{1, 3}));
  EXPECT_DOUBLE_EQ(d.BaseRate(1), 0.5);  // labels 1, 0
  EXPECT_DOUBLE_EQ(d.BaseRate(0), 0.5);  // labels 0, 1
}

TEST(Dataset, SubsetPreservesRows) {
  Dataset d = TinyData();
  Dataset s = d.Subset({3, 0});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.instance(0), d.instance(3));
  EXPECT_EQ(s.label(1), d.label(0));
  EXPECT_EQ(s.group(0), d.group(3));
}

TEST(Dataset, WithoutFeatureDropsColumn) {
  Dataset d = TinyData();
  Dataset w = d.WithoutFeature(1);
  EXPECT_EQ(w.num_features(), 2u);
  EXPECT_EQ(w.instance(0), Vector({1, 2.0}));
  // Group membership survives dropping any column.
  EXPECT_EQ(w.groups(), d.groups());
}

TEST(Dataset, SplitPartitionsAllRows) {
  CreditGen gen;
  Dataset d = gen.Generate(200, 42);
  Rng rng(1);
  auto [train, test] = d.Split(0.75, &rng);
  EXPECT_EQ(train.size() + test.size(), d.size());
  EXPECT_NEAR(static_cast<double>(train.size()), 150.0, 1.0);
}

TEST(Scaler, TransformStandardizesNumericOnly) {
  CreditGen gen;
  Dataset d = gen.Generate(500, 7);
  StandardScaler scaler;
  scaler.Fit(d);
  Dataset t = scaler.Transform(d);
  // Numeric column "income" (index 2) becomes ~N(0,1).
  Vector col = t.x().Col(2);
  EXPECT_NEAR(Mean(col), 0.0, 1e-9);
  EXPECT_NEAR(Stddev(col), 1.0, 1e-9);
  // Binary sensitive column (index 0) is untouched.
  EXPECT_EQ(t.x().Col(0), d.x().Col(0));
}

TEST(Scaler, InverseRoundTrip) {
  CreditGen gen;
  Dataset d = gen.Generate(100, 3);
  StandardScaler scaler;
  scaler.Fit(d);
  Vector x = d.instance(17);
  Vector back = scaler.InverseInstance(scaler.TransformInstance(x));
  for (size_t c = 0; c < x.size(); ++c) EXPECT_NEAR(back[c], x[c], 1e-9);
}

// --- generator properties, parameterized over the three generators ---

using GenFn = Dataset (*)(const BiasConfig&, size_t, uint64_t);

Dataset MakeCredit(const BiasConfig& c, size_t n, uint64_t s) {
  return CreditGen(c).Generate(n, s);
}
Dataset MakeRecidivism(const BiasConfig& c, size_t n, uint64_t s) {
  return RecidivismGen(c).Generate(n, s);
}
Dataset MakeIncome(const BiasConfig& c, size_t n, uint64_t s) {
  return IncomeGen(c).Generate(n, s);
}

class GeneratorTest : public ::testing::TestWithParam<GenFn> {};

TEST_P(GeneratorTest, DeterministicForSeed) {
  BiasConfig cfg;
  Dataset a = GetParam()(cfg, 50, 99);
  Dataset b = GetParam()(cfg, 50, 99);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.instance(i), b.instance(i));
    EXPECT_EQ(a.label(i), b.label(i));
    EXPECT_EQ(a.group(i), b.group(i));
  }
}

TEST_P(GeneratorTest, RespectsBounds) {
  BiasConfig cfg;
  Dataset d = GetParam()(cfg, 400, 5);
  for (size_t i = 0; i < d.size(); ++i) {
    for (size_t c = 0; c < d.num_features(); ++c) {
      const auto& spec = d.schema().feature(c);
      EXPECT_GE(d.x().At(i, c), spec.lower) << spec.name;
      EXPECT_LE(d.x().At(i, c), spec.upper) << spec.name;
    }
  }
}

TEST_P(GeneratorTest, PlantedBiasCreatesBaseRateGap) {
  BiasConfig biased;
  biased.score_shift = 1.2;
  biased.label_bias = 0.15;
  Dataset d = GetParam()(biased, 4000, 11);
  EXPECT_GT(d.BaseRate(0) - d.BaseRate(1), 0.1);
}

TEST_P(GeneratorTest, UnbiasedConfigHasSmallGap) {
  BiasConfig fair;
  fair.score_shift = 0.0;
  fair.label_bias = 0.0;
  fair.proxy_strength = 0.0;
  fair.qualification_gap = 0.0;
  Dataset d = GetParam()(fair, 6000, 13);
  EXPECT_LT(std::abs(d.BaseRate(0) - d.BaseRate(1)), 0.06);
}

TEST_P(GeneratorTest, ProtectedFractionMatches) {
  BiasConfig cfg;
  cfg.protected_fraction = 0.25;
  Dataset d = GetParam()(cfg, 4000, 17);
  EXPECT_NEAR(static_cast<double>(d.GroupIndices(1).size()) /
                  static_cast<double>(d.size()),
              0.25, 0.03);
}

TEST_P(GeneratorTest, SensitiveColumnMatchesGroups) {
  BiasConfig cfg;
  Dataset d = GetParam()(cfg, 200, 19);
  const int s = d.schema().sensitive_index();
  ASSERT_GE(s, 0);
  for (size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(static_cast<int>(d.x().At(i, static_cast<size_t>(s))),
              d.group(i));
  }
}

INSTANTIATE_TEST_SUITE_P(AllGenerators, GeneratorTest,
                         ::testing::Values(&MakeCredit, &MakeRecidivism,
                                           &MakeIncome));

TEST(Generators, ProxyCorrelatesWithGroup) {
  BiasConfig cfg;
  cfg.proxy_strength = 0.9;
  Dataset d = CreditGen(cfg).Generate(2000, 23);
  Vector zip = d.x().Col(7);
  Vector grp(d.size());
  for (size_t i = 0; i < d.size(); ++i) grp[i] = d.group(i);
  EXPECT_GT(PearsonCorrelation(zip, grp), 0.6);

  cfg.proxy_strength = 0.0;
  Dataset d0 = CreditGen(cfg).Generate(2000, 23);
  Vector zip0 = d0.x().Col(7);
  Vector grp0(d0.size());
  for (size_t i = 0; i < d0.size(); ++i) grp0[i] = d0.group(i);
  EXPECT_LT(std::abs(PearsonCorrelation(zip0, grp0)), 0.1);
}

TEST(Csv, RoundTrip) {
  CreditGen gen;
  Dataset d = gen.Generate(60, 31);
  const std::string path = "/tmp/xfair_csv_test.csv";
  ASSERT_TRUE(WriteCsv(d, path).ok());
  auto r = ReadCsv(d.schema(), path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), d.size());
  for (size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(r->label(i), d.label(i));
    EXPECT_EQ(r->group(i), d.group(i));
    for (size_t c = 0; c < d.num_features(); ++c)
      EXPECT_NEAR(r->x().At(i, c), d.x().At(i, c), 1e-4);
  }
  std::remove(path.c_str());
  // A full disk: the buffered rows fail only when the stream is flushed.
  if (std::filesystem::exists("/dev/full")) {
    EXPECT_FALSE(WriteCsv(d, "/dev/full").ok());
  }
}

TEST(Csv, MissingFileFails) {
  auto r = ReadCsv(TinySchema(), "/tmp/definitely_not_here_xfair.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Csv, MalformedRowFails) {
  const std::string path = "/tmp/xfair_csv_bad.csv";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("s,a,b,label,group\n1,2,notanumber,1,0\n", f);
    fclose(f);
  }
  auto r = ReadCsv(TinySchema(), path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

namespace {

void WriteFile(const std::string& path, const char* contents) {
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs(contents, f);
  fclose(f);
}

}  // namespace

// Cells that are not finite doubles, and labels or groups that are not
// 0/1, fail in both calls, and the message names the line and the column.
TEST(Csv, NonFiniteCellsFailNamingLineAndColumn) {
  const std::string path = "/tmp/xfair_csv_nonfinite.csv";
  struct Case {
    std::string row;
    std::string column;
    std::string text;
  };
  const std::vector<Case> cases = {
      {"0,1,nan,0,1", "column 'b'", "non-finite value 'nan'"},
      {"0,inf,1,0,1", "column 'a'", "non-finite value 'inf'"},
      {"0,1,-inf,0,1", "column 'b'", "non-finite value '-inf'"},
      {"0,1,2,nan,1", "column 'label'", "non-finite value 'nan'"},
      {"0,1,2,2,1", "column 'label'", "value '2' must be 0/1"},
      {"0,1,2,yes,1", "column 'label'", "cannot parse 'yes'"},
      {"0,1,2,1,0.5", "column 'group'", "value '0.5' must be 0/1"},
      {"0,1,notanumber,0,1", "column 'b'", "cannot parse 'notanumber'"}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.row);
    WriteFile(path, ("s,a,b,label,group\n1,2,3,1,0\n" + c.row + "\n").c_str());
    for (const Status& st : {ReadCsv(TinySchema(), path).status(),
                             InferSchemaFromCsv(path).status()}) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(st.message().find(c.text), std::string::npos) << st.message();
      EXPECT_NE(st.message().find("at line 3, " + c.column),
                std::string::npos)
          << st.message();
    }
  }
  std::remove(path.c_str());
}

// The cell grammar: strtod's decimal text (leading whitespace, one '+',
// ".5", "5.", signed zero, exponents, subnormals), whole cells only, finite
// values only. Accepted cells must match the expected double bit for bit.
TEST(Csv, CellGrammar) {
  const std::string path = "/tmp/xfair_csv_grammar.csv";
  struct Case {
    std::string cell;
    double value;       // Expected when `error` is empty.
    const char* error;  // Expected message substring otherwise.
  };
  const std::vector<Case> cases = {
      {" \t\v\f\r1.5", 1.5, ""},
      {"+5", 5.0, ""},
      {" +2.25", 2.25, ""},
      {".5", 0.5, ""},
      {"5.", 5.0, ""},
      {"-0", -0.0, ""},
      {"1e5", 1e5, ""},
      {"-2.5E-3", -2.5e-3, ""},
      {"0.1000000000000000055511151231257827", 0.1, ""},
      {"1e-310", 1e-310, ""},
      {"4.9406564584124654e-324", 4.9406564584124654e-324, ""},
      {"1.7976931348623157e308", 1.7976931348623157e308, ""},
      {"+-5", 0, "cannot parse '+-5'"},
      {"++5", 0, "cannot parse '++5'"},
      {"1.5 ", 0, "cannot parse '1.5 '"},
      {"", 0, "cannot parse ''"},
      {" ", 0, "cannot parse ' '"},
      {"1e", 0, "cannot parse '1e'"},
      {"1e309", 0, "cannot parse '1e309'"},
      {"1e-400", 0, "cannot parse '1e-400'"},
      {std::string("1.5\0junk", 8), 0, "cannot parse '1.5"},
      {"0x1p3", 0, "cannot parse '0x1p3'"},
      {"nan", 0, "non-finite value 'nan'"},
      {"inf", 0, "non-finite value 'inf'"},
      {"-inf", 0, "non-finite value '-inf'"},
      {"Infinity", 0, "non-finite value 'Infinity'"}};
  for (const Case& c : cases) {
    SCOPED_TRACE("cell '" + c.cell + "'");
    {
      std::ofstream out(path, std::ios::binary);
      out << "s,a,b,label,group\n1," << c.cell << ",3,1,0\n";
    }
    const Result<Dataset> read = ReadCsv(TinySchema(), path);
    const Status inferred = InferSchemaFromCsv(path).status();
    EXPECT_EQ(inferred.ok(), read.ok()) << inferred.message();
    if (*c.error == '\0') {
      EXPECT_TRUE(read.ok()) << read.status().message();
      if (read.ok()) {
        EXPECT_EQ(std::bit_cast<uint64_t>(read->x().At(0, 1)),
                  std::bit_cast<uint64_t>(c.value));
      }
      continue;
    }
    for (const Status& st : {read.status(), inferred}) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(st.message().find(c.error), std::string::npos) << st.message();
      EXPECT_NE(st.message().find("at line 2, column 'a'"), std::string::npos)
          << st.message();
    }
  }
  std::remove(path.c_str());
}

/// One seeded mutant of `csv`: one to three byte flips, inserts or deletes
/// drawn from the bytes CSV numbers and separators are made of, or
/// duplicated or deleted lines.
std::string MutateCsv(std::string csv, Rng* rng) {
  static constexpr char kBytes[] = "0123456789.-+ex,\"\r\n\0 ";
  for (uint64_t edits = 1 + rng->Below(3); edits > 0; --edits) {
    const size_t at = rng->Below(csv.size());
    const char byte = kBytes[rng->Below(sizeof(kBytes) - 1)];
    const uint64_t kind = rng->Below(5);
    if (kind == 0) csv[at] = byte;
    if (kind == 1) csv.insert(at, 1, byte);
    if (kind == 2) csv.erase(at, 1);
    if (kind >= 3) {  // The line holding byte `at`, with its newline.
      const size_t begin = at == 0 ? 0 : csv.rfind('\n', at - 1) + 1;
      const size_t end = std::min(csv.find('\n', at), csv.size() - 1) + 1;
      const std::string line = csv.substr(begin, end - begin);
      if (kind == 3) csv.insert(begin, line);
      if (kind == 4) csv.erase(begin, end - begin);
    }
  }
  return csv;
}

// Seeded mutants of a 100-row CreditGen CSV with a quoted header name: each
// call returns OK or an InvalidArgument naming a line of the file, both
// calls accept the same files, an inferred schema always reads the file
// back with one row per non-blank data line, and every accepted value is
// finite.
TEST(Csv, MutatedFilesFailCleanly) {
  const Dataset generated = CreditGen().Generate(100, 41);
  std::vector<FeatureSpec> features = generated.schema().features();
  features[2].name = "income, \"net\"";
  const Schema schema(features, generated.schema().sensitive_index());
  const std::string path = "/tmp/xfair_csv_mutant.csv";
  ASSERT_TRUE(WriteCsv(Dataset(schema, generated.x(), generated.labels(),
                               generated.groups()),
                       path)
                  .ok());
  std::string base;
  {
    std::ifstream in(path, std::ios::binary);
    base.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_NE(base.find("\"income, \"\"net\"\"\""), std::string::npos);
  Rng rng(2024);
  size_t accepted = 0;
  for (int m = 0; m < 1000; ++m) {
    const std::string text = MutateCsv(base, &rng);
    SCOPED_TRACE("mutant " + std::to_string(m));
    {
      std::ofstream out(path, std::ios::binary);
      out << text;
    }
    size_t lines = 0, data_lines = 0;
    for (size_t b = 0; b < text.size(); ++lines) {
      const size_t e = std::min(text.find('\n', b), text.size());
      const std::string_view line(text.data() + b, e - b);
      if (lines > 0 && line != "" && line != "\r") ++data_lines;
      b = e + 1;
    }
    const Result<Schema> inferred = InferSchemaFromCsv(path);
    const Result<Dataset> read = ReadCsv(inferred.ok() ? *inferred : schema,
                                         path);
    for (const Status& st : {inferred.status(), read.status()}) {
      if (st.ok()) continue;
      ASSERT_EQ(st.code(), StatusCode::kInvalidArgument) << st.message();
      const size_t at = st.message().rfind("at line ");
      ASSERT_NE(at, std::string::npos) << st.message();
      const size_t line = std::stoul(st.message().substr(at + 8));
      EXPECT_TRUE(line >= 1 && line <= lines) << st.message();
    }
    ASSERT_EQ(read.ok(), inferred.ok()) << read.status().message();
    if (!read.ok()) continue;
    ++accepted;
    EXPECT_EQ(read->size(), data_lines);
    for (size_t c = 0; c < inferred->num_features(); ++c) {
      EXPECT_TRUE(std::isfinite(inferred->feature(c).lower));
      EXPECT_TRUE(std::isfinite(inferred->feature(c).upper));
      for (size_t r = 0; r < read->size(); ++r)
        ASSERT_TRUE(std::isfinite(read->x().At(r, c)));
    }
  }
  // Both outcomes must be common, or the loop checked little.
  EXPECT_GT(accepted, 100u);
  EXPECT_LT(accepted, 900u);
  std::remove(path.c_str());
}

TEST(Csv, QuotedFieldsWithCommasAndEscapedQuotes) {
  // Header names containing commas and quotes must be quotable per
  // RFC 4180; quoted numeric cells unquote before parsing.
  const std::string path = "/tmp/xfair_csv_quoted.csv";
  WriteFile(path,
            "s,\"age, years\",\"said \"\"hi\"\"\",label,group\n"
            "1,\"2.5\",3,1,0\n"
            "0,4.5,\"-1\",0,1\n");
  auto schema = InferSchemaFromCsv(path);
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  EXPECT_EQ(schema->feature(1).name, "age, years");
  EXPECT_EQ(schema->feature(2).name, "said \"hi\"");
  auto r = ReadCsv(*schema, path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 2u);
  EXPECT_DOUBLE_EQ(r->x().At(0, 1), 2.5);
  EXPECT_DOUBLE_EQ(r->x().At(1, 2), -1.0);
  std::remove(path.c_str());
}

TEST(Csv, CrlfLineEndingsAccepted) {
  const std::string path = "/tmp/xfair_csv_crlf.csv";
  WriteFile(path, "s,a,b,label,group\r\n1,2,3,1,0\r\n0,4,5,0,1\r\n");
  auto r = ReadCsv(TinySchema(), path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 2u);
  EXPECT_DOUBLE_EQ(r->x().At(1, 2), 5.0);
  std::remove(path.c_str());
}

TEST(Csv, UnterminatedQuoteFailsWithLineNumber) {
  const std::string path = "/tmp/xfair_csv_unterminated.csv";
  WriteFile(path, "s,a,b,label,group\n1,\"2,3,1,0\n");
  auto r = ReadCsv(TinySchema(), path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos)
      << r.status().message();
  std::remove(path.c_str());
}

// A stray quote fails in both calls, naming the line and the cell's column.
TEST(Csv, QuoteInsideUnquotedFieldFails) {
  const std::string path = "/tmp/xfair_csv_strayquote.csv";
  for (const char* row : {"1,2\"bad\",3,1,0", "1,\"2\"x,3,1,0"}) {
    SCOPED_TRACE(row);
    WriteFile(path, ("s,a,b,label,group\n" + std::string(row) + "\n").c_str());
    for (const Status& st : {ReadCsv(TinySchema(), path).status(),
                             InferSchemaFromCsv(path).status()}) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(st.message().find("at line 2, column 'a'"), std::string::npos)
          << st.message();
    }
  }
  std::remove(path.c_str());
}

TEST(Csv, WriteQuotesSpecialFeatureNamesAndRoundTrips) {
  std::vector<FeatureSpec> f;
  f.push_back({"s", FeatureKind::kBinary, 0, Actionability::kImmutable, 0, 1});
  f.push_back({"income, monthly", FeatureKind::kNumeric, 0,
               Actionability::kAny, -10, 10});
  f.push_back({"b", FeatureKind::kNumeric, 0, Actionability::kAny, -10, 10});
  Schema schema(std::move(f), 0);
  Matrix x = Matrix::FromRows({{1, 0.5, 2.0}, {0, 1.5, -1.0}});
  Dataset d(schema, std::move(x), {1, 0}, {1, 0});
  const std::string path = "/tmp/xfair_csv_quoted_names.csv";
  ASSERT_TRUE(WriteCsv(d, path).ok());
  auto inferred = InferSchemaFromCsv(path);
  ASSERT_TRUE(inferred.ok()) << inferred.status().ToString();
  EXPECT_EQ(inferred->feature(1).name, "income, monthly");
  auto r = ReadCsv(schema, path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 2u);
  EXPECT_NEAR(r->x().At(1, 1), 1.5, 1e-9);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace xfair
