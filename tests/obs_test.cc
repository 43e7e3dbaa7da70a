// Tests for src/obs: counter/histogram semantics, span recording and
// deterministic flush order, Chrome-trace/JSON export, stage aggregation,
// the bit-identity guarantee (tracing on vs off), and RunReport audit
// records.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/registry.h"
#include "src/core/report.h"
#include "src/data/csv.h"
#include "src/data/generators.h"
#include "src/model/logistic_regression.h"
#include "src/obs/obs.h"
#include "src/obs/run_report.h"
#include "src/unfair/facts.h"
#include "src/unfair/fairness_shap.h"
#include "src/util/parallel.h"

namespace xfair {
namespace {

using obs::AggregateStages;
using obs::FlushSpans;
using obs::GetCounter;
using obs::GetHistogram;
using obs::SetTracingEnabled;
using obs::Span;
using obs::SpanRecord;
using obs::StageStat;

/// Restores the disabled-tracing default and drains leftover spans when a
/// test exits, so span tests cannot leak state into each other.
struct TracingGuard {
  TracingGuard() {
    SetTracingEnabled(false);
    FlushSpans();
  }
  ~TracingGuard() {
    SetTracingEnabled(false);
    FlushSpans();
  }
};

TEST(Counters, InternedByNameAndMonotonic) {
  obs::Counter& a = GetCounter("obs_test/interned");
  obs::Counter& b = GetCounter("obs_test/interned");
  EXPECT_EQ(&a, &b);
  const uint64_t before = a.value();
  a.Add();
  a.Add(41);
  EXPECT_EQ(b.value(), before + 42);
}

TEST(Counters, ConcurrentIncrementsAllLand) {
  obs::Counter& c = GetCounter("obs_test/concurrent");
  c.Reset();
  ParallelFor(0, size_t{1000}, [&](size_t) { c.Add(3); });
  EXPECT_EQ(c.value(), 3000u);
}

TEST(Counters, MacroCompilesAndCounts) {
  obs::Counter& c = GetCounter("obs_test/macro");
  const uint64_t before = c.value();
  for (int i = 0; i < 5; ++i) {
    XFAIR_COUNTER_ADD("obs_test/macro", 2);
  }
#ifdef XFAIR_OBS_DISABLED
  EXPECT_EQ(c.value(), before);
#else
  EXPECT_EQ(c.value(), before + 10);
#endif
}

TEST(Histograms, LogLinearBucketMath) {
  using obs::Histogram;
  // Values below 128 are exact: one bucket per value (index == value up
  // to 127, the zero-shift octave included).
  for (uint64_t v : {0ull, 1ull, 63ull, 64ull, 100ull, 127ull}) {
    const size_t b = Histogram::BucketIndex(v);
    EXPECT_EQ(b, static_cast<size_t>(v));
    EXPECT_EQ(Histogram::BucketLow(b), v);
    EXPECT_EQ(Histogram::BucketWidth(b), 1u);
  }
  // First lossy octave: [128, 256) in width-2 buckets.
  EXPECT_EQ(Histogram::BucketIndex(128), Histogram::BucketIndex(129));
  EXPECT_NE(Histogram::BucketIndex(129), Histogram::BucketIndex(130));
  EXPECT_EQ(Histogram::BucketLow(Histogram::BucketIndex(128)), 128u);
  EXPECT_EQ(Histogram::BucketWidth(Histogram::BucketIndex(128)), 2u);
  // Every value lands inside its bucket, and the bucket width never
  // exceeds low/64 — the ~1.6% relative-error guarantee.
  for (uint64_t v : {uint64_t{200}, uint64_t{1} << 20,
                     (uint64_t{1} << 33) + 12345, uint64_t{1} << 40,
                     ~uint64_t{0}}) {
    const size_t b = Histogram::BucketIndex(v);
    ASSERT_LT(b, Histogram::kBuckets) << v;
    EXPECT_LE(Histogram::BucketLow(b), v) << v;
    EXPECT_LE(v - Histogram::BucketLow(b), Histogram::BucketWidth(b) - 1)
        << v;
    EXPECT_LE(Histogram::BucketWidth(b) * 64, Histogram::BucketLow(b)) << v;
  }
}

TEST(Histograms, LogLinearObserve) {
  obs::Histogram& h = GetHistogram("obs_test/hist");
  h.Reset();
  h.Observe(0);
  h.Observe(1);
  h.Observe(7);
  h.Observe(8);
  h.Observe(200);  // Lossy range: bucket [200, 202).
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 216u);
  EXPECT_DOUBLE_EQ(h.mean(), 43.2);
  const auto buckets = h.BucketCounts();
  ASSERT_EQ(buckets.size(), obs::Histogram::kBuckets);
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[7], 1u);
  EXPECT_EQ(buckets[8], 1u);
  EXPECT_EQ(buckets[2], 0u);
  EXPECT_EQ(buckets[obs::Histogram::BucketIndex(200)], 1u);
}

TEST(Histograms, QuantilesExactBelow128AndInterpolatedAbove) {
  obs::Histogram& h = GetHistogram("obs_test/quantiles");
  h.Reset();
  // Empty histogram: sentinel 0.
  {
    const auto snaps = obs::SnapshotHistograms();
    for (const auto& s : snaps) {
      if (s.name != "obs_test/quantiles") continue;
      EXPECT_EQ(obs::HistogramQuantile(s, 0.5), 0.0);
    }
  }
  // 100 observations of 1 and 100 of 12: both exact buckets, so the
  // quantiles return the recorded values themselves (the old
  // power-of-two layout could only bracket 12 inside [8, 16)).
  for (int i = 0; i < 100; ++i) h.Observe(1);
  for (int i = 0; i < 100; ++i) h.Observe(12);
  for (const auto& s : obs::SnapshotHistograms()) {
    if (s.name != "obs_test/quantiles") continue;
    EXPECT_DOUBLE_EQ(obs::HistogramQuantile(s, 0.25), 1.0);
    EXPECT_DOUBLE_EQ(obs::HistogramQuantile(s, 0.5), 1.0);
    EXPECT_DOUBLE_EQ(obs::HistogramQuantile(s, 0.75), 12.0);
    // q clamps to [0, 1]; exact buckets stay exact at the extremes.
    EXPECT_DOUBLE_EQ(obs::HistogramQuantile(s, 1.0), 12.0);
    EXPECT_DOUBLE_EQ(obs::HistogramQuantile(s, 2.0), 12.0);
    EXPECT_GE(obs::HistogramQuantile(s, 0.0), 0.0);
  }
  // Above 128 the estimate interpolates inside the bucket: 1000 lives
  // in [1000, 1008), so the median lands within that window.
  h.Reset();
  for (int i = 0; i < 100; ++i) h.Observe(1000);
  for (const auto& s : obs::SnapshotHistograms()) {
    if (s.name != "obs_test/quantiles") continue;
    const double p50 = obs::HistogramQuantile(s, 0.5);
    EXPECT_GE(p50, 1000.0);
    EXPECT_LE(p50, 1008.0);
  }
}

TEST(Histograms, QuantileErrorBoundVsExactSortedQuantiles) {
  // The log-linear resolution promise, end to end: against the exact
  // sorted-array quantile at the same rank, the histogram estimate is
  // within 1/64 relative error at every probed q (exact below 128).
  obs::Histogram& h = GetHistogram("obs_test/error_bound");
  h.Reset();
  std::vector<uint64_t> values;
  uint64_t state = 0x9e3779b97f4a7c15ull;  // Deterministic xorshift mix.
  for (int i = 0; i < 5000; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    // Spread across six orders of magnitude, as latencies do.
    const uint64_t v = state % (uint64_t{1} << (8 + i % 24));
    values.push_back(v);
    h.Observe(v);
  }
  std::sort(values.begin(), values.end());
  for (const auto& s : obs::SnapshotHistograms()) {
    if (s.name != "obs_test/error_bound") continue;
    for (double q : {0.01, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999}) {
      const double target = q * static_cast<double>(values.size());
      const size_t rank = std::min(
          values.size() - 1,
          static_cast<size_t>(std::max(0.0, std::ceil(target) - 1.0)));
      const double exact = static_cast<double>(values[rank]);
      const double est = obs::HistogramQuantile(s, q);
      // est and exact share a bucket; |est - exact| <= width <= low/64.
      EXPECT_LE(std::fabs(est - exact), exact / 64.0 + 1e-9)
          << "q=" << q << " exact=" << exact << " est=" << est;
    }
  }
}

TEST(Export, CountersToJsonIncludesHistogramQuantiles) {
  obs::Histogram& h = GetHistogram("obs_test/json_quantiles");
  h.Reset();
  for (int i = 0; i < 8; ++i) h.Observe(4);
  const std::string json = obs::CountersToJson();
  const size_t at = json.find("\"obs_test/json_quantiles\"");
  ASSERT_NE(at, std::string::npos);
  const std::string entry = json.substr(at, 240);
  EXPECT_NE(entry.find("\"p50\":"), std::string::npos);
  EXPECT_NE(entry.find("\"p95\":"), std::string::npos);
  EXPECT_NE(entry.find("\"p99\":"), std::string::npos);
  EXPECT_NE(entry.find("\"p999\":"), std::string::npos);
  EXPECT_NE(entry.find("\"count\": 8"), std::string::npos);
  // 4 is an exact bucket under the log-linear layout: p50 is 4 itself.
  EXPECT_NE(entry.find("\"p50\": 4.000"), std::string::npos);
}

TEST(Counters, SnapshotsAreSortedByName) {
  GetCounter("obs_test/zz");
  GetCounter("obs_test/aa");
  const auto snaps = obs::SnapshotCounters();
  ASSERT_GE(snaps.size(), 2u);
  for (size_t i = 1; i < snaps.size(); ++i) {
    EXPECT_LT(snaps[i - 1].name, snaps[i].name);
  }
}

TEST(Tracer, DisabledByDefaultRecordsNothing) {
  TracingGuard guard;
  { Span s("obs_test/ignored"); }
  EXPECT_TRUE(FlushSpans().empty());
}

TEST(Tracer, NestedSpansRecordParentAndDepth) {
  TracingGuard guard;
  SetTracingEnabled(true);
  {
    Span outer("obs_test/outer");
    { Span inner("obs_test/inner"); }
    { Span inner2("obs_test/inner"); }
  }
  SetTracingEnabled(false);
  const auto spans = FlushSpans();
  ASSERT_EQ(spans.size(), 3u);
  // Deterministic order: per-thread ids ascend in open order.
  EXPECT_STREQ(spans[0].name, "obs_test/outer");
  EXPECT_STREQ(spans[1].name, "obs_test/inner");
  EXPECT_STREQ(spans[2].name, "obs_test/inner");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[1].parent_id, spans[0].id);
  EXPECT_EQ(spans[2].parent_id, spans[0].id);
  for (const auto& s : spans) {
    EXPECT_LE(s.start_ns, s.end_ns);
  }
  // Children close before the parent.
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[2].end_ns);
}

TEST(Tracer, FlushDrainsOnce) {
  TracingGuard guard;
  SetTracingEnabled(true);
  { Span s("obs_test/drain"); }
  SetTracingEnabled(false);
  EXPECT_EQ(FlushSpans().size(), 1u);
  EXPECT_TRUE(FlushSpans().empty());
}

TEST(Tracer, InstrumentedLibraryEmitsSpansWhenEnabled) {
  TracingGuard guard;
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  const Dataset data = CreditGen(cfg).Generate(120, 77);
  SetTracingEnabled(true);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  SetTracingEnabled(false);
  const auto spans = FlushSpans();
  bool saw_fit = false;
  for (const auto& s : spans) {
    saw_fit |= std::string_view(s.name) == "model/fit/logistic_regression";
  }
#ifdef XFAIR_OBS_DISABLED
  EXPECT_TRUE(spans.empty());
#else
  EXPECT_TRUE(saw_fit);
#endif
}

TEST(Tracer, RunFactsRecordsSpansLatencyAndRowsScored) {
  TracingGuard guard;
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  const Dataset data = CreditGen(cfg).Generate(300, 78);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  obs::Counter& rows = GetCounter("facts/rows_scored");
  obs::Histogram& latency = GetHistogram("latency/facts_ns");
  const uint64_t rows_before = rows.value();
  const uint64_t runs_before = latency.count();
  SetTracingEnabled(true);
  RunFacts(model, data, {});
  SetTracingEnabled(false);
  const auto spans = FlushSpans();
  const SpanRecord* run = nullptr;
  const SpanRecord* score = nullptr;
  for (const auto& s : spans) {
    if (std::string_view(s.name) == "facts/run") run = &s;
    if (std::string_view(s.name) == "facts/score_actions") score = &s;
  }
#ifdef XFAIR_OBS_DISABLED
  EXPECT_TRUE(spans.empty());
  EXPECT_EQ(run, nullptr);
  EXPECT_EQ(score, nullptr);
  EXPECT_EQ(rows.value(), rows_before);
  EXPECT_EQ(latency.count(), runs_before);
#else
  ASSERT_NE(run, nullptr);
  ASSERT_NE(score, nullptr);
  EXPECT_EQ(score->thread_ordinal, run->thread_ordinal);
  EXPECT_EQ(score->parent_id, run->id);
  EXPECT_EQ(latency.count(), runs_before + 1);
  // The denial pass over every row, then each applicable (action,
  // denied row) pair once.
  uint64_t expected = data.size();
  const std::vector<int> decisions = model.PredictAll(data);
  const Discretizer disc(data, FactsOptions{}.bins);
  for (const Action& a : EnumerateActions(data.schema(), disc)) {
    for (size_t i = 0; i < data.size(); ++i) {
      expected += decisions[i] == 0 &&
                  a.ApplicableTo(data.schema(), data.instance(i));
    }
  }
  EXPECT_EQ(rows.value() - rows_before, expected);
#endif
}

// A traced CSV read plus WriteAuditReport: every audit stage records one
// span, the report's stages nest under one report/audit root, and the CSV
// reader and burden time themselves in latency histograms.
TEST(Tracer, AuditReportRecordsStageSpansUnderOneRoot) {
  TracingGuard guard;
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  const std::string path = "/tmp/xfair_obs_audit.csv";
  ASSERT_TRUE(WriteCsv(CreditGen(cfg).Generate(300, 79), path).ok());
  const Result<Schema> schema = InferSchemaFromCsv(path);
  ASSERT_TRUE(schema.ok());
  obs::Histogram& read_latency = GetHistogram("latency/read_csv_ns");
  obs::Histogram& burden_latency = GetHistogram("latency/burden_ns");
  const uint64_t reads_before = read_latency.count();
  const uint64_t burdens_before = burden_latency.count();
  SetTracingEnabled(true);
  const Result<Dataset> data = ReadCsv(*schema, path);
  SetTracingEnabled(false);
  std::remove(path.c_str());
  ASSERT_TRUE(data.ok());
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(*data).ok());
  SetTracingEnabled(true);
  WriteAuditReport(model, *data);
  SetTracingEnabled(false);
  const auto spans = FlushSpans();
  const auto find = [&spans](std::string_view name) {
    const SpanRecord* found = nullptr;
    size_t count = 0;
    for (const auto& s : spans) {
      if (name == s.name) {
        found = &s;
        ++count;
      }
    }
    return std::make_pair(found, count);
  };
#ifdef XFAIR_OBS_DISABLED
  EXPECT_TRUE(spans.empty());
  EXPECT_EQ(find("report/audit").second, 0u);
  EXPECT_EQ(read_latency.count(), reads_before);
  EXPECT_EQ(burden_latency.count(), burdens_before);
#else
  for (const char* name : {"data/read_csv", "report/audit",
                           "fairness/group_metrics", "burden/run",
                           "fairness/tradeoff"}) {
    EXPECT_EQ(find(name).second, 1u) << name;
  }
  const SpanRecord* root = find("report/audit").first;
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  for (const char* name : {"fairness/group_metrics", "burden/run",
                           "fairness_shap/batch", "facts/run",
                           "fairness/tradeoff"}) {
    const SpanRecord* stage = find(name).first;
    ASSERT_NE(stage, nullptr) << name;
    EXPECT_EQ(stage->thread_ordinal, root->thread_ordinal) << name;
    EXPECT_EQ(stage->parent_id, root->id) << name;
  }
  EXPECT_EQ(read_latency.count(), reads_before + 1);
  EXPECT_EQ(burden_latency.count(), burdens_before + 1);
#endif
}

TEST(Export, ChromeTraceJsonShape) {
  TracingGuard guard;
  SetTracingEnabled(true);
  {
    Span outer("obs_test/chrome_outer");
    Span inner("obs_test/chrome_inner");
  }
  SetTracingEnabled(false);
  const auto spans = FlushSpans();
  const std::string json = obs::SpansToChromeTraceJson(spans);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("obs_test/chrome_outer"), std::string::npos);
  EXPECT_NE(json.find("obs_test/chrome_inner"), std::string::npos);

  const std::string path = "/tmp/xfair_obs_trace_test.json";
  ASSERT_TRUE(obs::WriteChromeTrace(path, spans).ok());
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), json);
  std::remove(path.c_str());
  if (std::filesystem::exists("/dev/full")) {
    EXPECT_FALSE(obs::WriteChromeTrace("/dev/full", spans).ok());
  }
}

TEST(Export, AggregateStagesComputesSelfTime) {
  // Hand-built spans: parent 10ms total with a 4ms same-thread child.
  std::vector<SpanRecord> spans(2);
  spans[0] = {"parent", 0, 10'000'000, 0, 0, 1, 0};
  spans[1] = {"child", 1'000'000, 5'000'000, 0, 1, 2, 1};
  const std::vector<StageStat> stages = AggregateStages(spans);
  ASSERT_EQ(stages.size(), 2u);  // Sorted: child, parent.
  EXPECT_EQ(stages[0].name, "child");
  EXPECT_EQ(stages[0].count, 1u);
  EXPECT_DOUBLE_EQ(stages[0].total_ms, 4.0);
  EXPECT_DOUBLE_EQ(stages[0].self_ms, 4.0);
  EXPECT_EQ(stages[1].name, "parent");
  EXPECT_DOUBLE_EQ(stages[1].total_ms, 10.0);
  EXPECT_DOUBLE_EQ(stages[1].self_ms, 6.0);
  const std::string json = obs::StagesToJson(stages);
  EXPECT_NE(json.find("\"name\": \"parent\""), std::string::npos);
  EXPECT_NE(json.find("\"self_ms\""), std::string::npos);
}

TEST(Export, CountersToJsonIsWellFormedFragment) {
  GetCounter("obs_test/json_counter").Add(5);
  const std::string json = obs::CountersToJson();
  EXPECT_NE(json.find("obs_test/json_counter"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  const size_t last = json.find_last_not_of(" \n");
  ASSERT_NE(last, std::string::npos);
  EXPECT_EQ(json[last], '}');
}

TEST(BitIdentity, TracingDoesNotPerturbResults) {
  // The core guarantee: spans and counters observe without participating.
  // The same workload with tracing off and on must produce bit-identical
  // numeric output.
  TracingGuard guard;
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  const Dataset data = CreditGen(cfg).Generate(300, 909);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());

  auto run = [&] { return ExplainParityWithShapley(model, data, {}); };
  SetTracingEnabled(false);
  const FairnessShapReport off = run();
  SetTracingEnabled(true);
  const FairnessShapReport on = run();
  SetTracingEnabled(false);
  FlushSpans();

  ASSERT_EQ(off.contributions.size(), on.contributions.size());
  for (size_t i = 0; i < off.contributions.size(); ++i) {
    EXPECT_EQ(off.contributions[i], on.contributions[i]) << "feature " << i;
  }
  EXPECT_EQ(off.baseline_gap, on.baseline_gap);
  EXPECT_EQ(off.full_gap, on.full_gap);
  EXPECT_EQ(off.ranked_features, on.ranked_features);
}

TEST(RunReport, CapturesProvenanceStagesAndCounterDeltas) {
  TracingGuard guard;
  ApproachDescriptor desc;
  desc.citation = "[00]";
  desc.name = "obs_test probe";
  desc.explanation_type = "Probe";
  desc.runner = [](const RunContext& ctx) {
    Span s("obs_test/probe_stage");
    GetCounter("obs_test/probe_counter").Add(7);
    LogisticRegression lr;
    XFAIR_CHECK(lr.Fit(ctx.credit).ok());
    return std::string("probe ok");
  };
  const RunContext ctx = RunContext::Make(4242);
  const obs::RunReport report = obs::RunWithReport(desc, ctx);

  EXPECT_EQ(report.method, "obs_test probe");
  EXPECT_EQ(report.citation, "[00]");
  EXPECT_EQ(report.summary, "probe ok");
  EXPECT_EQ(report.seed, 4242u);
  EXPECT_FALSE(report.dataset_fingerprint.empty());
  EXPECT_GE(report.wall_ms, 0.0);
  EXPECT_FALSE(report.config.empty());

  bool saw_stage = false;
  for (const auto& st : report.stages) {
    saw_stage |= st.name == "obs_test/probe_stage";
  }
  bool saw_counter = false;
  for (const auto& cd : report.counter_deltas) {
    if (cd.name == "obs_test/probe_counter") {
      saw_counter = true;
      EXPECT_EQ(cd.value, 7u);
    }
  }
#ifndef XFAIR_OBS_DISABLED
  EXPECT_TRUE(saw_stage);
#endif
  EXPECT_TRUE(saw_counter);

  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"method\": \"obs_test probe\""), std::string::npos);
  EXPECT_NE(json.find("\"dataset_fingerprint\""), std::string::npos);
  EXPECT_NE(json.find("\"stages\""), std::string::npos);

  // Same seed, same data: the fingerprint is reproducible.
  EXPECT_EQ(report.dataset_fingerprint,
            obs::RunWithReport(desc, ctx).dataset_fingerprint);

  // Tracing state was restored.
  EXPECT_FALSE(obs::TracingEnabled());
}

TEST(RunReport, FingerprintDistinguishesDatasets) {
  const Dataset a = CreditGen().Generate(50, 1);
  const Dataset b = CreditGen().Generate(50, 2);
  EXPECT_NE(obs::DatasetFingerprint(a), obs::DatasetFingerprint(b));
  EXPECT_EQ(obs::DatasetFingerprint(a), obs::DatasetFingerprint(a));
}

}  // namespace
}  // namespace xfair
