// Tests for the flight recorder (src/obs/recorder) and the structured
// event log (src/obs/eventlog): trailing-K ring retention with
// deterministic drain order, counter-delta baselines, byte-exact JSONL
// rendering with sorted keys, capacity drops, and the headline
// integration — a planted drift alarm triggering a complete diagnostic
// bundle directory through the monitor's alarm hook bus. Every test
// also pins the -DXFAIR_OBS=OFF contract: no recording, no files, no
// output, while everything still links and returns OK.

#include "src/obs/recorder.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/data/generators.h"
#include "src/model/logistic_regression.h"
#include "src/obs/eventlog.h"
#include "src/obs/obs.h"

namespace xfair {
namespace {

namespace fs = std::filesystem;

using obs::BundleOptions;
using obs::EventRecord;
using obs::FairnessMonitor;
using obs::MonitorOptions;
using obs::ScopedStreamContext;
using obs::Severity;
using obs::SpanRecord;

/// Restores the recorder and event log to their shipped-off defaults
/// (and the default event-log capacity) when a test exits, so suites
/// never observe each other's trailing state.
struct ObsGuard {
  ObsGuard() { Clear(); }
  ~ObsGuard() { Clear(); }
  static void Clear() {
    obs::SetRecorderEnabled(false);
    obs::SetEventLogEnabled(false);
    obs::SetEventLogCapacity(65536);
    obs::ResetRecorder();
    obs::ResetEventLog();
    obs::SetMonitoringEnabled(false);
  }
};

#ifndef XFAIR_OBS_DISABLED
// Every caller reads a bundle file, which only an observing build writes.
std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}
#endif

TEST(Recorder, RingRetainsTrailingSpansInAppendOrder) {
  ObsGuard guard;
  const size_t kept = obs::kFlightSpansPerThread;
  obs::SetRecorderEnabled(true);
  for (size_t i = 0; i < kept + 12; ++i) {
    XFAIR_SPAN("recorder_test/trailing");
  }
  obs::SetRecorderEnabled(false);
  const std::vector<SpanRecord> spans = obs::SnapshotFlightSpans();
#ifdef XFAIR_OBS_DISABLED
  EXPECT_TRUE(spans.empty());
  EXPECT_EQ(obs::FlightSpansDropped(), 0u);
  EXPECT_FALSE(obs::RecorderEnabled());
#else
  // Only the trailing `kept` survive; the overwritten 12 are counted.
  ASSERT_EQ(spans.size(), kept);
  EXPECT_EQ(obs::FlightSpansDropped(), 12u);
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].name, std::string("recorder_test/trailing"));
    if (i > 0) {
      // Append order within the ring: monotone start timestamps, and
      // consecutive ids (the window is exactly the trailing spans).
      EXPECT_GE(spans[i].start_ns, spans[i - 1].start_ns);
      EXPECT_EQ(spans[i].id, spans[i - 1].id + 1);
    }
  }
  // The snapshot is non-destructive and stable.
  const std::vector<SpanRecord> again = obs::SnapshotFlightSpans();
  ASSERT_EQ(again.size(), spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(again[i].start_ns, spans[i].start_ns);
    EXPECT_EQ(again[i].id, spans[i].id);
  }
#endif
}

TEST(Recorder, DisabledRecorderKeepsRingsEmpty) {
  ObsGuard guard;
  ASSERT_FALSE(obs::RecorderEnabled());
  for (int i = 0; i < 5; ++i) {
    XFAIR_SPAN("recorder_test/ignored");
  }
  EXPECT_TRUE(obs::SnapshotFlightSpans().empty());
  EXPECT_EQ(obs::FlightSpansDropped(), 0u);
}

TEST(Recorder, CounterDeltasMeasureFromEnableBaseline) {
  ObsGuard guard;
  XFAIR_COUNTER_ADD("recorder_test/delta", 7);  // Pre-enable: baseline.
  obs::SetRecorderEnabled(true);                // Captures the baseline.
  XFAIR_COUNTER_ADD("recorder_test/delta", 3);
  const auto deltas = obs::RecorderCounterDeltas();
  obs::SetRecorderEnabled(false);
  uint64_t seen = 0;
  for (const auto& d : deltas) {
    if (d.name == "recorder_test/delta") seen = d.value;
  }
#ifdef XFAIR_OBS_DISABLED
  EXPECT_EQ(seen, 0u);
#else
  // Only the post-enable increment counts, not the lifetime total.
  EXPECT_EQ(seen, 3u);
  // ResetRecorder re-captures: the delta vanishes.
  obs::ResetRecorder();
  for (const auto& d : obs::RecorderCounterDeltas()) {
    EXPECT_NE(d.name, "recorder_test/delta");
  }
#endif
}

TEST(EventLog, JsonlIsByteExactWithSortedKeysAndSeq) {
  ObsGuard guard;
  obs::SetEventLogEnabled(true);
  // Fields arrive unsorted; the log must render them sorted.
  obs::EmitEvent(Severity::kInfo, "model", "fit",
                 {{"rows", "1200"}, {"model", "logistic_regression"}});
  obs::EmitEvent(Severity::kWarn, "monitor", "drift_alarm",
                 {{"metric", "demographic_parity"}, {"detector", "page"}});
  obs::SetEventLogEnabled(false);
  const std::string jsonl = obs::EventsToJsonl(obs::DrainEvents());
#ifdef XFAIR_OBS_DISABLED
  EXPECT_TRUE(jsonl.empty());
#else
  EXPECT_EQ(jsonl,
            "{\"component\":\"model\",\"event\":\"fit\",\"fields\":"
            "{\"model\":\"logistic_regression\",\"rows\":\"1200\"},"
            "\"seq\":0,\"severity\":\"info\"}\n"
            "{\"component\":\"monitor\",\"event\":\"drift_alarm\","
            "\"fields\":{\"detector\":\"page\",\"metric\":"
            "\"demographic_parity\"},\"seq\":1,\"severity\":\"warn\"}\n");
  // Drained: the log is empty now.
  EXPECT_TRUE(obs::SnapshotEvents().empty());
#endif
}

TEST(EventLog, CapacityDropsOldestAndCounts) {
  ObsGuard guard;
  obs::SetEventLogEnabled(true);
  obs::SetEventLogCapacity(4);
  for (int i = 0; i < 10; ++i) {
    obs::EmitEvent(Severity::kDebug, "test", "tick");
  }
  obs::SetEventLogEnabled(false);
  const std::vector<EventRecord> events = obs::SnapshotEvents();
#ifdef XFAIR_OBS_DISABLED
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(obs::EventsDropped(), 0u);
#else
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().seq, 6u);  // Oldest retained.
  EXPECT_EQ(events.back().seq, 9u);
  EXPECT_EQ(obs::EventsDropped(), 6u);
#endif
}

TEST(EventLog, MacroSkipsArgumentEvaluationWhenDisabled) {
  ObsGuard guard;
  int evaluations = 0;
  const auto field = [&] {
    ++evaluations;
    return std::string("x");
  };
  (void)field;  // Unused entirely under -DXFAIR_OBS=OFF.
  ASSERT_FALSE(obs::EventLogEnabled());
  XFAIR_EVENT(kInfo, "test", "skipped", {{"k", field()}});
  EXPECT_EQ(evaluations, 0);
  obs::SetEventLogEnabled(true);
  XFAIR_EVENT(kInfo, "test", "recorded", {{"k", field()}});
  obs::SetEventLogEnabled(false);
#ifdef XFAIR_OBS_DISABLED
  EXPECT_EQ(evaluations, 0);
#else
  EXPECT_EQ(evaluations, 1);
  const auto events = obs::DrainEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].event, "recorded");
#endif
}

TEST(Recorder, ProvenanceDefaultsToEmptyObjectAndRoundTrips) {
  ObsGuard guard;
  obs::SetActiveProvenance("");
  EXPECT_EQ(obs::ActiveProvenanceJson(), "{}");
  obs::SetActiveProvenance("{\"method\": \"m\"}");
  EXPECT_EQ(obs::ActiveProvenanceJson(), "{\"method\": \"m\"}");
  obs::SetActiveProvenance("");
}

TEST(Recorder, BundleDumpOnPlantedDriftAlarm) {
  ObsGuard guard;
  const fs::path root = fs::path("recorder_test_bundles");
  fs::remove_all(root);

  // The planted-shift workload from monitor_test: train on an unbiased
  // world, stream stationary traffic, then swap to a strongly biased
  // distribution at a known step. The drift alarm must fire and — via
  // the installed hook — dump a complete bundle directory.
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
  FairnessMonitor monitor("recorder_test/planted_drift", mopts);
  BundleOptions bopts;
  bopts.directory = root.string();
  bopts.max_bundles = 1;
  obs::InstallBundleDumpOnAlarm(monitor, bopts);

  obs::SetActiveProvenance("{\"method\": \"recorder_test\"}");
  obs::SetRecorderEnabled(true);
  obs::SetEventLogEnabled(true);
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
  obs::SetEventLogEnabled(false);
  obs::SetRecorderEnabled(false);
  obs::SetActiveProvenance("");

#ifdef XFAIR_OBS_DISABLED
  // No alarms fire, no hooks run, no directory is ever created.
  EXPECT_TRUE(monitor.alarms().empty());
  EXPECT_FALSE(fs::exists(root));
#else
  ASSERT_FALSE(monitor.alarms().empty());
  ASSERT_TRUE(fs::exists(root));
  std::vector<fs::path> bundles;
  for (const auto& entry : fs::directory_iterator(root)) {
    bundles.push_back(entry.path());
  }
  ASSERT_EQ(bundles.size(), 1u) << "max_bundles must cap the alarm storm";
  const fs::path& bundle = bundles[0];
  // Directory name carries the alarm reason: "<metric>-<detector>".
  EXPECT_NE(bundle.filename().string().find("demographic_parity"),
            std::string::npos)
      << bundle;

  for (const char* file :
       {"MANIFEST.json", "trace.json", "monitor.json", "counters.json",
        "counter_deltas.json", "provenance.json", "events.jsonl"}) {
    EXPECT_TRUE(fs::exists(bundle / file)) << file;
  }

  // Provenance is the installed object, monitor.json is the monitor's
  // own snapshot at dump time (alarm state included), the event log
  // carries the drift_alarm record, and the manifest indexes it all.
  EXPECT_EQ(ReadFile(bundle / "provenance.json"),
            "{\"method\": \"recorder_test\"}\n");
  const std::string monitor_json = ReadFile(bundle / "monitor.json");
  EXPECT_NE(monitor_json.find("recorder_test/planted_drift"),
            std::string::npos);
  EXPECT_NE(monitor_json.find("\"alarms\""), std::string::npos);
  const std::string events_jsonl = ReadFile(bundle / "events.jsonl");
  EXPECT_NE(events_jsonl.find("\"event\":\"drift_alarm\""),
            std::string::npos);
  EXPECT_NE(events_jsonl.find("demographic_parity"), std::string::npos);
  const std::string manifest = ReadFile(bundle / "MANIFEST.json");
  EXPECT_NE(manifest.find("\"reason\""), std::string::npos);
  EXPECT_NE(manifest.find("\"span_count\""), std::string::npos);
  EXPECT_NE(manifest.find("\"event_count\""), std::string::npos);
  // The trailing flight window made it into the Chrome trace: the batch
  // predict path records spans while the recorder is on.
  const std::string trace = ReadFile(bundle / "trace.json");
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  // The dump emits its own lifecycle event (snapshot was taken before
  // it, so it lands in the live log, not the bundle).
  bool saw_dump_event = false;
  for (const EventRecord& e : obs::SnapshotEvents()) {
    saw_dump_event |= e.event == "bundle_dumped";
  }
  EXPECT_TRUE(saw_dump_event);
#endif
  fs::remove_all(root);
}

TEST(Recorder, ManualBundleDumpIsCompleteWithoutMonitor) {
  ObsGuard guard;
  const fs::path root = fs::path("recorder_test_manual");
  fs::remove_all(root);
  obs::SetRecorderEnabled(true);
  // One thread overflows its ring by three spans; the manifest says so.
  for (size_t i = 0; i < obs::kFlightSpansPerThread + 3; ++i) {
    XFAIR_SPAN("recorder_test/manual");
  }
  // A counter name that JSON must escape: a quote and a backslash.
  obs::GetCounter("probe/\"quoted\"\\path").Add(3);
  obs::SetRecorderEnabled(false);
  std::string dir;
  ASSERT_TRUE(obs::DumpDiagnosticBundle(root.string(), nullptr,
                                        "unit test!", &dir)
                  .ok());
#ifdef XFAIR_OBS_DISABLED
  EXPECT_TRUE(dir.empty());
  EXPECT_FALSE(fs::exists(root));
#else
  ASSERT_FALSE(dir.empty());
  // The reason is sanitized into [a-zA-Z0-9_-].
  EXPECT_NE(dir.find("unit-test-"), std::string::npos) << dir;
  EXPECT_EQ(ReadFile(fs::path(dir) / "monitor.json"), "{}\n");
  EXPECT_NE(ReadFile(fs::path(dir) / "trace.json")
                .find("recorder_test/manual"),
            std::string::npos);
  const std::string deltas = ReadFile(fs::path(dir) / "counter_deltas.json");
  EXPECT_NE(deltas.find("  \"probe/\\\"quoted\\\"\\\\path\": 3"),
            std::string::npos)
      << deltas;
  const std::string manifest = ReadFile(fs::path(dir) / "MANIFEST.json");
  EXPECT_NE(manifest.find("\"spans_dropped\": 3"), std::string::npos)
      << manifest;
  EXPECT_NE(manifest.find("\"events_dropped\": 0"), std::string::npos)
      << manifest;
#endif
  fs::remove_all(root);
}

}  // namespace
}  // namespace xfair
