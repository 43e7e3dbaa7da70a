// Tests for src/obs/monitor + exposition: windowed metrics must equal
// the offline fairness/group_metrics report bit for bit, drift alarms
// must recover a planted change point within one window, sentinel
// conventions (unlabeled streams, single-group windows, out-of-range
// groups) must match PR 3, and every rendering (snapshot JSON,
// Prometheus text) must be deterministic. Thread-count invariance of
// concurrent ingestion lives in parallel_test.cc with the other
// pool-reconfiguring tests.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "src/core/registry.h"
#include "src/data/generators.h"
#include "src/fairness/group_metrics.h"
#include "src/model/logistic_regression.h"
#include "src/obs/obs.h"
#include "src/obs/run_report.h"

namespace xfair {
namespace {

using obs::DriftAlarm;
using obs::FairnessMonitor;
using obs::MonitorEvent;
using obs::MonitorOptions;
using obs::ScopedStreamContext;
using obs::WindowedMetrics;

/// Restores the monitoring-disabled default when a test exits.
struct MonitorGuard {
  MonitorGuard() { obs::SetMonitoringEnabled(false); }
  ~MonitorGuard() { obs::SetMonitoringEnabled(false); }
};

/// Streams `data` through `model`'s batched path into `monitor` in
/// batches of `batch` rows, draining after every batch.
void StreamDataset(const Model& model, const Dataset& data,
                   FairnessMonitor& monitor, size_t batch) {
  for (size_t start = 0; start < data.size(); start += batch) {
    const size_t n = std::min(batch, data.size() - start);
    std::vector<size_t> rows(n);
    for (size_t i = 0; i < n; ++i) rows[i] = start + i;
    const Dataset slice = data.Subset(rows);
    {
      ScopedStreamContext stream(&monitor, slice.groups().data(),
                                 slice.labels().data(), slice.size());
      (void)model.PredictProbaBatch(slice.x());
    }
    monitor.Drain();
  }
}

TEST(Monitor, WindowedMetricsMatchOfflineGroupMetrics) {
  MonitorGuard guard;
  BiasConfig bias;
  bias.score_shift = 1.0;
  bias.label_bias = 0.1;
  const Dataset data = CreditGen(bias).Generate(900, 11);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());

  const size_t window = 256;
  MonitorOptions mopts;
  mopts.window = window;
  FairnessMonitor monitor("monitor_test/offline_match", mopts);
  obs::SetMonitoringEnabled(true);
  StreamDataset(model, data, monitor, /*batch=*/90);
  obs::SetMonitoringEnabled(false);

  // The window now holds the last 256 rows in stream order; the offline
  // report on exactly those rows must agree bit for bit (the window scan
  // fills the same per-group counts in the same order and derives them
  // with the same DeriveGroupFairness).
  std::vector<size_t> tail(window);
  for (size_t i = 0; i < window; ++i) {
    tail[i] = data.size() - window + i;
  }
  const Dataset sub = data.Subset(tail);
  const WindowedMetrics wm = monitor.Windowed();
#ifdef XFAIR_OBS_DISABLED
  EXPECT_EQ(wm.events, 0u);
  EXPECT_EQ(monitor.events_processed(), 0u);
#else
  EXPECT_EQ(monitor.events_processed(), data.size());
  EXPECT_EQ(wm.events, window);
  EXPECT_EQ(wm.labeled, window);
  EXPECT_EQ(wm.first_seq, data.size() - window);
  EXPECT_EQ(wm.last_seq, data.size() - 1);
  EXPECT_FALSE(wm.single_group);
  const GroupFairnessReport offline = EvaluateGroupFairness(model, sub);
  EXPECT_EQ(wm.demographic_parity_diff,
            offline.statistical_parity_difference);
  EXPECT_EQ(wm.equalized_odds_diff, offline.equalized_odds_difference);
  EXPECT_EQ(wm.calibration_gap, offline.calibration_gap);
  // The planted bias makes the comparison non-vacuous.
  EXPECT_GT(std::fabs(offline.statistical_parity_difference), 1e-3);
  EXPECT_GT(offline.calibration_gap, 0.0);

  // Cumulative aggregates cover the full stream.
  const auto& aggs = monitor.aggregates();
  uint64_t total = 0;
  for (const auto& a : aggs) total += a.events;
  EXPECT_EQ(total, data.size());
  EXPECT_GT(aggs[0].events, 0u);
  EXPECT_GT(aggs[1].events, 0u);
  EXPECT_GT(aggs[0].score_variance(), 0.0);
#endif
}

TEST(MonitorDrift, PlantedShiftRaisesAlarmWithinOneWindow) {
  MonitorGuard guard;
  // The example_monitor_stream workload, shrunk: train on an unbiased
  // world, then swap the traffic distribution to a strongly biased one
  // at a known step. The windowed demographic-parity gap jumps from ~0
  // to ~0.2 and the detectors must notice within one window — and must
  // not fire on the stationary pre-shift segment.
  BiasConfig pre;
  pre.score_shift = 0.0;
  pre.label_bias = 0.0;
  pre.proxy_strength = 0.0;
  pre.qualification_gap = 0.0;
  BiasConfig post = pre;
  post.score_shift = 1.2;
  post.qualification_gap = 1.5;
  post.proxy_strength = 0.8;
  post.label_bias = 0.15;

  Dataset train = CreditGen(pre).Generate(1200, 7);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(train).ok());

  const size_t events = 3072, shift_at = 1536, window = 512, batch = 64;
  const Dataset pre_t = CreditGen(pre).Generate(events, 21);
  const Dataset post_t = CreditGen(post).Generate(events, 22);

  MonitorOptions mopts;
  mopts.window = window;
  FairnessMonitor monitor("monitor_test/planted_drift", mopts);
  obs::SetMonitoringEnabled(true);
  for (size_t start = 0; start < events; start += batch) {
    const Dataset& world = start >= shift_at ? post_t : pre_t;
    std::vector<size_t> rows(batch);
    for (size_t i = 0; i < batch; ++i) rows[i] = start + i;
    const Dataset slice = world.Subset(rows);
    {
      ScopedStreamContext stream(&monitor, slice.groups().data(),
                                 slice.labels().data(), slice.size());
      (void)model.PredictProbaBatch(slice.x());
    }
    monitor.Drain();
  }
  obs::SetMonitoringEnabled(false);

#ifdef XFAIR_OBS_DISABLED
  EXPECT_TRUE(monitor.alarms().empty());
#else
  ASSERT_FALSE(monitor.alarms().empty());
  // No false alarms on the stationary segment.
  for (const DriftAlarm& a : monitor.alarms()) {
    EXPECT_GT(a.seq, shift_at) << a.metric << "/" << a.detector;
  }
  // The change point is recovered within one window, and the first
  // alarm is the demographic-parity gap (the directly shifted metric).
  const DriftAlarm& first = monitor.alarms().front();
  EXPECT_EQ(first.metric, "demographic_parity");
  EXPECT_LE(first.seq, shift_at + window);
  bool dp_alarm_in_window = false;
  for (const DriftAlarm& a : monitor.alarms()) {
    dp_alarm_in_window |= a.metric == "demographic_parity" &&
                          a.seq > shift_at && a.seq <= shift_at + window;
  }
  EXPECT_TRUE(dp_alarm_in_window);
#endif
}

TEST(Monitor, UnlabeledStreamReportsParityButLabelSentinels) {
  MonitorGuard guard;
  MonitorOptions mopts;
  mopts.window = 64;
  FairnessMonitor monitor("monitor_test/unlabeled", mopts);
  // Unlabeled traffic (label = -1): parity is still measurable from
  // predictions alone; the label-conditioned metrics report their 0
  // sentinels instead of garbage.
  for (uint64_t i = 0; i < 64; ++i) {
    const int group = static_cast<int>(i % 2);
    const int pred = group == 0 ? static_cast<int>(i % 4 != 0) : 0;
    monitor.Ingest({i, pred ? 0.9 : 0.1, pred, -1, group});
  }
  monitor.Drain();
  const WindowedMetrics wm = monitor.Windowed();
#ifdef XFAIR_OBS_DISABLED
  EXPECT_EQ(wm.events, 0u);
#else
  EXPECT_EQ(wm.events, 64u);
  EXPECT_EQ(wm.labeled, 0u);
  EXPECT_FALSE(wm.single_group);
  // Group 0 (even i): predicted positive iff i % 4 == 2, rate 1/2.
  // Group 1 (odd i): never positive. dp = 0.5 - 0.
  EXPECT_NEAR(wm.demographic_parity_diff, 0.5, 1e-12);
  EXPECT_EQ(wm.equalized_odds_diff, 0.0);
  EXPECT_EQ(wm.calibration_gap, 0.0);
  EXPECT_EQ(monitor.aggregates()[0].labeled, 0u);
  EXPECT_EQ(monitor.aggregates()[0].tpr(), 0.0);
  EXPECT_EQ(monitor.aggregates()[0].fpr(), 0.0);
#endif
}

TEST(Monitor, MixedLabeledWindowCountsParityOverEveryEvent) {
  MonitorGuard guard;
  MonitorOptions mopts;
  mopts.window = 12;
  FairnessMonitor monitor("monitor_test/mixed_labels", mopts);
  // Both groups mix labeled and unlabeled (label -1) events. Parity
  // counts every event; the equalized-odds difference and the calibration
  // gap count labeled events only.
  //   G- labeled:   (0.9, 1, y 1) tp, (0.7, 1, y 0) fp, (0.2, 0, y 0) tn
  //   G- unlabeled: (0.8, 1), (0.6, 1), (0.4, 0)
  //   G+ labeled:   (0.6, 1, y 1) tp, (0.3, 0, y 1) fn, (0.1, 0, y 0) tn
  //   G+ unlabeled: (0.2, 0), (0.1, 0), (0.15, 0)
  const MonitorEvent events[] = {
      {0, 0.9, 1, 1, 0},   {1, 0.6, 1, 1, 1},   {2, 0.8, 1, -1, 0},
      {3, 0.2, 0, -1, 1},  {4, 0.7, 1, 0, 0},   {5, 0.3, 0, 1, 1},
      {6, 0.6, 1, -1, 0},  {7, 0.1, 0, -1, 1},  {8, 0.2, 0, 0, 0},
      {9, 0.1, 0, 0, 1},   {10, 0.4, 0, -1, 0}, {11, 0.15, 0, -1, 1}};
  for (const MonitorEvent& e : events) monitor.Ingest(e);
  monitor.Drain();
  const WindowedMetrics wm = monitor.Windowed();
#ifdef XFAIR_OBS_DISABLED
  EXPECT_EQ(wm.events, 0u);
#else
  EXPECT_EQ(wm.events, 12u);
  EXPECT_EQ(wm.labeled, 6u);
  EXPECT_FALSE(wm.single_group);
  // Every event: 4/6 - 1/6. The labeled events alone would give 2/3 - 1/3.
  EXPECT_NEAR(wm.demographic_parity_diff, 0.5, 1e-12);
  // Labeled only: TPR 1 vs 1/2, FPR 1/2 vs 0. Counting the unlabeled
  // events as negatives would raise G-'s FPR to 3/5.
  EXPECT_NEAR(wm.equalized_odds_diff, 0.5, 1e-12);
  // Labeled only, one event per bin: ECE(G-) = (0.1 + 0.7 + 0.2) / 3 and
  // ECE(G+) = (0.4 + 0.7 + 0.1) / 3, so the gap is 0.2 / 3.
  EXPECT_NEAR(wm.calibration_gap, 0.2 / 3.0, 1e-12);
#endif
}

TEST(Monitor, SingleGroupWindowReportsFairSentinels) {
  MonitorGuard guard;
  MonitorOptions mopts;
  mopts.window = 32;
  FairnessMonitor monitor("monitor_test/single_group", mopts);
  // Only group 0 present: no between-group comparison to make, so every
  // difference reports 0 (PR 3 convention) even though the group's own
  // positive rate is far from 0.
  for (uint64_t i = 0; i < 32; ++i) {
    monitor.Ingest({i, 0.8, 1, 1, 0});
  }
  monitor.Drain();
  const WindowedMetrics wm = monitor.Windowed();
#ifdef XFAIR_OBS_DISABLED
  EXPECT_EQ(wm.events, 0u);
#else
  EXPECT_EQ(wm.events, 32u);
  EXPECT_TRUE(wm.single_group);
  EXPECT_EQ(wm.demographic_parity_diff, 0.0);
  EXPECT_EQ(wm.equalized_odds_diff, 0.0);
  EXPECT_EQ(wm.calibration_gap, 0.0);
  EXPECT_DOUBLE_EQ(monitor.aggregates()[0].positive_rate(), 1.0);
#endif
}

TEST(Monitor, OutOfRangeGroupsAreCountedAsDropped) {
  MonitorGuard guard;
  FairnessMonitor monitor("monitor_test/dropped");
  monitor.Ingest({0, 0.5, 1, 1, -1});
  monitor.Ingest({1, 0.5, 1, 1, FairnessMonitor::kMaxGroups});
  monitor.Ingest({2, 0.5, 1, 1, 0});
  // Scores that are not probabilities are dropped too; 0 and 1 are kept.
  uint64_t seq = 3;
  for (double score : {std::nan(""), HUGE_VAL, -HUGE_VAL, -0.5, 1.5}) {
    monitor.Ingest({seq++, score, 1, 1, 0});
  }
  monitor.Ingest({seq++, 0.0, 0, 0, 0});
  monitor.Ingest({seq++, 1.0, 1, 1, 0});
  monitor.Drain();
#ifdef XFAIR_OBS_DISABLED
  EXPECT_EQ(monitor.events_dropped(), 0u);
#else
  EXPECT_EQ(monitor.events_dropped(), 7u);
  EXPECT_EQ(monitor.events_processed(), 3u);
  const obs::GroupAggregate& agg = monitor.aggregates()[0];
  EXPECT_EQ(agg.events, 3u);
  EXPECT_DOUBLE_EQ(agg.score_mean, 0.5);
  EXPECT_DOUBLE_EQ(agg.score_variance(), 0.25);
  const std::string snapshot = monitor.SnapshotJson();
  EXPECT_EQ(snapshot.find("nan"), std::string::npos) << snapshot;
  EXPECT_EQ(snapshot.find("inf"), std::string::npos) << snapshot;
#endif
}

TEST(Monitor, SnapshotJsonEscapesMonitorName) {
  MonitorGuard guard;
  FairnessMonitor monitor("credit \"v2\"\\prod");
  const std::string snapshot = monitor.SnapshotJson();
#ifdef XFAIR_OBS_DISABLED
  EXPECT_EQ(snapshot, "{}");
#else
  EXPECT_NE(snapshot.find("\"monitor\": \"credit \\\"v2\\\"\\\\prod\",\n"),
            std::string::npos)
      << snapshot;
#endif
}

TEST(Monitor, DrainOrderAndSnapshotIndependentOfBatchSize) {
  MonitorGuard guard;
  BiasConfig bias;
  bias.score_shift = 1.0;
  const Dataset data = CreditGen(bias).Generate(600, 13);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());

  // The same stream drained after every 32 events and after every 600
  // events must produce byte-identical snapshots: detector updates key
  // off events_processed, never off drain cadence.
  std::string snapshots[2];
  const size_t batches[2] = {32, 600};
  for (int v = 0; v < 2; ++v) {
    MonitorOptions mopts;
    mopts.window = 128;
    FairnessMonitor monitor("monitor_test/batch_size", mopts);
    obs::SetMonitoringEnabled(true);
    StreamDataset(model, data, monitor, batches[v]);
    obs::SetMonitoringEnabled(false);
    snapshots[v] = monitor.SnapshotJson();
  }
  EXPECT_EQ(snapshots[0], snapshots[1]);
}

TEST(Monitor, SnapshotJsonIsDeterministicWithSortedKeys) {
  MonitorGuard guard;
  FairnessMonitor monitor("monitor_test/snapshot");
  for (uint64_t i = 0; i < 16; ++i) {
    monitor.Ingest({i, 0.25 + 0.5 * static_cast<double>(i % 2),
                    static_cast<int>(i % 2), static_cast<int>(i % 3 == 0),
                    static_cast<int>(i % 2)});
  }
  monitor.Drain();
  const std::string a = monitor.SnapshotJson();
  EXPECT_EQ(a, monitor.SnapshotJson());
#ifdef XFAIR_OBS_DISABLED
  EXPECT_EQ(a, "{}");
#else
  // Top-level keys render in sorted order.
  const size_t alarms = a.find("\"alarms\"");
  const size_t dropped = a.find("\"events_dropped\"");
  const size_t processed = a.find("\"events_processed\"");
  const size_t groups = a.find("\"groups\"");
  const size_t window = a.find("\"window\"");
  ASSERT_NE(alarms, std::string::npos);
  ASSERT_NE(window, std::string::npos);
  EXPECT_LT(alarms, dropped);
  EXPECT_LT(dropped, processed);
  EXPECT_LT(processed, groups);
  EXPECT_LT(groups, window);
#endif
}

TEST(Monitor, ResetClearsStateAndSequenceCounter) {
  MonitorGuard guard;
  FairnessMonitor monitor("monitor_test/reset");
  const uint64_t base = monitor.ReserveSeq(8);
  for (uint64_t i = 0; i < 8; ++i) {
    monitor.Ingest({base + i, 0.9, 1, 1, static_cast<int>(i % 2)});
  }
  monitor.Drain();
  monitor.Reset();
  EXPECT_EQ(monitor.events_processed(), 0u);
  EXPECT_EQ(monitor.events_dropped(), 0u);
  EXPECT_TRUE(monitor.alarms().empty());
  EXPECT_EQ(monitor.Windowed().events, 0u);
  EXPECT_EQ(monitor.ReserveSeq(1), 0u);
  // Pending (undrained) events are discarded too.
  monitor.Ingest({5, 0.9, 1, 1, 0});
  monitor.Reset();
  EXPECT_EQ(monitor.Drain(), 0u);
}

TEST(Monitor, HookIngestsOnlyWithMatchingStreamContext) {
  MonitorGuard guard;
  FairnessMonitor monitor("monitor_test/hook");
  const double scores[4] = {0.9, 0.1, 0.8, 0.2};
  const int groups[4] = {0, 0, 1, 1};

  // No context installed: inert even with monitoring enabled.
  obs::SetMonitoringEnabled(true);
  obs::MonitorPredictionBatch(scores, 4, 0.5);
  monitor.Drain();
  EXPECT_EQ(monitor.events_processed(), 0u);

  // Context with a mismatched row count: inert (the batch is not the
  // stream the caller described).
  {
    ScopedStreamContext stream(&monitor, groups, nullptr, 3);
    EXPECT_FALSE(obs::MonitorActive(4));
    obs::MonitorPredictionBatch(scores, 4, 0.5);
  }
  monitor.Drain();
  EXPECT_EQ(monitor.events_processed(), 0u);

  // Matching context: one event per row, unlabeled.
  {
    ScopedStreamContext stream(&monitor, groups, nullptr, 4);
    EXPECT_EQ(obs::MonitorActive(4), obs::MonitoringCompiledIn());
    obs::MonitorPredictionBatch(scores, 4, 0.5);
  }
  monitor.Drain();
  obs::SetMonitoringEnabled(false);
#ifdef XFAIR_OBS_DISABLED
  EXPECT_EQ(monitor.events_processed(), 0u);
#else
  EXPECT_EQ(monitor.events_processed(), 4u);
  EXPECT_EQ(monitor.aggregates()[0].predicted_positive, 1u);
  EXPECT_EQ(monitor.aggregates()[1].predicted_positive, 1u);
  EXPECT_EQ(monitor.aggregates()[0].labeled, 0u);

  // Disabled at runtime: the hook goes inert again.
  {
    ScopedStreamContext stream(&monitor, groups, nullptr, 4);
    EXPECT_FALSE(obs::MonitorActive(4));
    obs::MonitorPredictionBatch(scores, 4, 0.5);
  }
  monitor.Drain();
  EXPECT_EQ(monitor.events_processed(), 4u);
#endif
}

TEST(Exposition, PrometheusTextIsDeterministicAndWellFormed) {
  MonitorGuard guard;
  FairnessMonitor& monitor =
      obs::GetMonitor("monitor_test/exposition", MonitorOptions{});
  monitor.Reset();
  for (uint64_t i = 0; i < 32; ++i) {
    monitor.Ingest({i, i % 2 ? 0.9 : 0.1, static_cast<int>(i % 2),
                    static_cast<int>(i % 2), static_cast<int>(i % 2)});
  }
  monitor.Drain();
  const std::string text = obs::RenderPrometheusText();
  EXPECT_EQ(text, obs::RenderPrometheusText());
#ifdef XFAIR_OBS_DISABLED
  EXPECT_TRUE(text.empty());
#else
  EXPECT_NE(text.find("# TYPE xfair_counter_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("xfair_monitor_events_total{"
                      "monitor=\"monitor_test/exposition\",group=\"1\"} 16"),
            std::string::npos);
  EXPECT_NE(
      text.find("xfair_monitor_window_gap{monitor=\"monitor_test/"
                "exposition\",metric=\"demographic_parity\"} -1"),
      std::string::npos);
  // Every line is a comment or `name{labels} value` / `name value`.
  std::size_t pos = 0;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);  // Text ends with a newline.
    const std::string line = text.substr(pos, eol - pos);
    if (!line.empty() && line[0] != '#') {
      EXPECT_NE(line.find(' '), std::string::npos) << line;
    }
    pos = eol + 1;
  }
#endif
}

TEST(Exposition, MonitorsToJsonNestsSnapshots) {
  MonitorGuard guard;
  obs::GetMonitor("monitor_test/json_a", MonitorOptions{}).Reset();
  obs::GetMonitor("credit \"v2\"\\prod", MonitorOptions{}).Reset();
  const std::string json = obs::MonitorsToJson();
#ifdef XFAIR_OBS_DISABLED
  EXPECT_EQ(json, "{}");
#else
  EXPECT_NE(json.find("\"monitor_test/json_a\""), std::string::npos);
  // The monitor's name is a key of the document: escaped like a string.
  EXPECT_NE(json.find("    \"credit \\\"v2\\\"\\\\prod\": {\n"),
            std::string::npos)
      << json;
  int depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
#endif
}

TEST(Exposition, WriteTextFileRoundTrips) {
  const std::string path = "monitor_test_artifact.txt";
  ASSERT_TRUE(obs::WriteTextFile(path, "hello\n").ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[16] = {};
  const size_t got = std::fread(buf, 1, sizeof(buf), f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buf, got), "hello\n");
  EXPECT_FALSE(obs::WriteTextFile("no_such_dir/x/y.txt", "z").ok());
  // A full disk: the buffered bytes fail only when the file is closed.
  if (std::filesystem::exists("/dev/full")) {
    EXPECT_FALSE(obs::WriteTextFile("/dev/full", "hello\n").ok());
  }
}

TEST(MonitorRunReport, CarriesFairnessTelemetry) {
  MonitorGuard guard;
  ApproachDescriptor desc;
  desc.citation = "[00]";
  desc.name = "monitor_test probe";
  desc.explanation_type = "Probe";
  desc.runner = [](const RunContext&) { return std::string("ok"); };
  const RunContext ctx = RunContext::Make(99);
  const obs::RunReport report = obs::RunWithReport(desc, ctx);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"fairness_telemetry\""), std::string::npos);
#ifdef XFAIR_OBS_DISABLED
  EXPECT_EQ(report.fairness_telemetry, "{}");
#else
  // The telemetry section holds the credit fixture's stream: per-group
  // aggregates plus a fixture-sized window.
  EXPECT_NE(report.fairness_telemetry.find("\"groups\""),
            std::string::npos);
  EXPECT_NE(report.fairness_telemetry.find("\"window\""),
            std::string::npos);
  EXPECT_NE(report.fairness_telemetry.find("\"events_processed\": 900"),
            std::string::npos);
  // Monitoring state was restored (MonitorGuard set it to disabled).
  EXPECT_FALSE(obs::MonitoringEnabled());
  // Same fixture, same stream: the telemetry is reproducible.
  EXPECT_EQ(report.fairness_telemetry,
            obs::RunWithReport(desc, ctx).fairness_telemetry);
#endif
}

}  // namespace
}  // namespace xfair
