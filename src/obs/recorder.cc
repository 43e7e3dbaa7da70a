#include "src/obs/recorder.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>

#include "src/obs/eventlog.h"
#include "src/obs/export.h"
#include "src/obs/exposition.h"
#include "src/obs/json.h"
#include "src/obs/monitor.h"
#include "src/obs/per_thread_log.h"

namespace xfair::obs {
namespace {

/// The flight log (process lifetime): each thread's trailing spans.
PerThreadLog<SpanRecord>& FlightLog() {
  static auto* log = new PerThreadLog<SpanRecord>(kFlightSpansPerThread);
  return *log;
}

std::atomic<bool> g_enabled{false};

/// The recorder's state besides the flight log: the counter values at
/// the last enable/reset, which deltas are measured from, and the active
/// provenance.
struct RecorderState {
  std::mutex mutex;
  std::vector<CounterSnapshot> baseline;
  std::string provenance = Json().Dump();
};

RecorderState& State() {
  static RecorderState* s = new RecorderState();
  return *s;
}

void CaptureCounterBaseline() {
  RecorderState& s = State();
  std::lock_guard<std::mutex> guard(s.mutex);
  s.baseline = SnapshotCounters();
}

std::atomic<uint64_t> g_bundle_index{0};

/// First-use env arming, mirroring the tracer: XFAIR_RECORDER=1 turns
/// the recorder on before main() runs any instrumented code.
struct EnvInit {
  EnvInit() {
#ifndef XFAIR_OBS_DISABLED
    const char* env = std::getenv("XFAIR_RECORDER");
    if (env != nullptr && env[0] != '\0' && env[0] != '0') {
      SetRecorderEnabled(true);
    }
#endif
  }
};
EnvInit g_env_init;

[[maybe_unused]] std::string SanitizeReason(const std::string& reason) {
  std::string out;
  out.reserve(reason.size());
  for (char c : reason) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    out += ok ? c : '-';
  }
  return out.empty() ? std::string("alarm") : out;
}

}  // namespace

bool RecorderEnabled() {
#ifdef XFAIR_OBS_DISABLED
  return false;
#else
  return g_enabled.load(std::memory_order_relaxed);
#endif
}

void SetRecorderEnabled(bool enabled) {
#ifdef XFAIR_OBS_DISABLED
  (void)enabled;
#else
  const bool was = g_enabled.exchange(enabled, std::memory_order_relaxed);
  if (enabled && !was) CaptureCounterBaseline();
#endif
}

std::vector<SpanRecord> SnapshotFlightSpans() {
  return FlightLog().Snapshot();
}

uint64_t FlightSpansDropped() { return FlightLog().Dropped(); }

std::vector<CounterSnapshot> RecorderCounterDeltas() {
  RecorderState& s = State();
  std::lock_guard<std::mutex> guard(s.mutex);
  return CounterDeltas(s.baseline);
}

void ResetRecorder() {
  FlightLog().Reset();
  CaptureCounterBaseline();
}

void SetActiveProvenance(std::string json) {
  RecorderState& s = State();
  std::lock_guard<std::mutex> guard(s.mutex);
  s.provenance = json.empty() ? Json().Dump() : std::move(json);
}

std::string ActiveProvenanceJson() {
  RecorderState& s = State();
  std::lock_guard<std::mutex> guard(s.mutex);
  return s.provenance;
}

Status DumpDiagnosticBundle(const std::string& directory,
                            const FairnessMonitor* monitor,
                            const std::string& reason,
                            std::string* bundle_dir) {
#ifdef XFAIR_OBS_DISABLED
  // The layer is compiled out: no evidence exists, write no artifacts.
  (void)directory;
  (void)monitor;
  (void)reason;
  if (bundle_dir != nullptr) bundle_dir->clear();
  return Status::OK();
#else
  namespace fs = std::filesystem;
  const uint64_t index =
      g_bundle_index.fetch_add(1, std::memory_order_relaxed);
  char name[96];
  std::snprintf(name, sizeof(name), "bundle-%03llu-%s",
                static_cast<unsigned long long>(index),
                SanitizeReason(reason).c_str());
  const std::string path = directory + "/" + name;
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) {
    return Status::Internal("cannot create bundle dir " + path + ": " +
                            ec.message());
  }

  const std::vector<SpanRecord> spans = SnapshotFlightSpans();
  const std::vector<EventRecord> events = SnapshotEvents();

  Json deltas;
  for (const CounterSnapshot& c : RecorderCounterDeltas()) {
    deltas[c.name] = c.value;
  }
  // Files in name order. The manifest lists them all, itself included,
  // and holds no clocks or host state: it is byte-deterministic for
  // identical recorded state.
  std::map<std::string, std::string> files = {
      {"MANIFEST.json", ""},
      {"counter_deltas.json", deltas.Dump() + "\n"},
      {"counters.json", CountersToJson()},
      {"events.jsonl", EventsToJsonl(events)},
      {"monitor.json",
       (monitor != nullptr ? monitor->SnapshotJson() : Json().Dump()) +
           "\n"},
      {"provenance.json", ActiveProvenanceJson() + "\n"},
      {"trace.json", SpansToChromeTraceJson(spans)},
  };
  std::vector<Json> listed;
  for (const auto& file : files) listed.push_back(file.first);
  files["MANIFEST.json"] = Json{{"event_count", events.size()},
                                {"events_dropped", EventsDropped()},
                                {"files", std::move(listed)},
                                {"reason", SanitizeReason(reason)},
                                {"span_count", spans.size()},
                                {"spans_dropped", FlightSpansDropped()}}
                               .Dump() +
                           "\n";
  for (const auto& [file, content] : files) {
    if (Status st = WriteTextFile(path + "/" + file, content); !st.ok()) {
      return st;
    }
  }
  if (bundle_dir != nullptr) *bundle_dir = path;
  EmitEvent(Severity::kWarn, "recorder", "bundle_dumped",
            {{"reason", SanitizeReason(reason)},
             {"span_count", std::to_string(spans.size())}});
  return Status::OK();
#endif
}

size_t InstallBundleDumpOnAlarm(FairnessMonitor& monitor,
                                BundleOptions options) {
  auto dumped = std::make_shared<std::atomic<uint64_t>>(0);
  return monitor.AddAlarmHook(
      [options, dumped](const FairnessMonitor& m, const DriftAlarm& alarm) {
        if (options.max_bundles != 0 &&
            dumped->fetch_add(1, std::memory_order_relaxed) >=
                options.max_bundles) {
          return;
        }
        (void)DumpDiagnosticBundle(options.directory, &m,
                                   alarm.metric + "-" + alarm.detector,
                                   nullptr);
      });
}

namespace detail {

void RecordFlightSpan(const SpanRecord& rec) { FlightLog().Append(rec); }

size_t FlightLogShards() { return FlightLog().shard_count(); }

}  // namespace detail

}  // namespace xfair::obs
