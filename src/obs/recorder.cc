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

/// Counter values at the last enable/reset; deltas are measured from it.
struct DeltaBaseline {
  std::mutex mutex;
  std::map<std::string, uint64_t> values;
};

DeltaBaseline& GlobalBaseline() {
  static DeltaBaseline* b = new DeltaBaseline();
  return *b;
}

void CaptureCounterBaseline() {
  DeltaBaseline& base = GlobalBaseline();
  std::lock_guard<std::mutex> guard(base.mutex);
  base.values.clear();
  for (const CounterSnapshot& c : SnapshotCounters()) {
    base.values[c.name] = c.value;
  }
}

struct ProvenanceState {
  std::mutex mutex;
  std::string json = "{}";
};

ProvenanceState& GlobalProvenance() {
  static ProvenanceState* p = new ProvenanceState();
  return *p;
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
  std::map<std::string, uint64_t> baseline;
  {
    DeltaBaseline& base = GlobalBaseline();
    std::lock_guard<std::mutex> guard(base.mutex);
    baseline = base.values;
  }
  std::vector<CounterSnapshot> out;
  for (const CounterSnapshot& c : SnapshotCounters()) {
    const auto it = baseline.find(c.name);
    const uint64_t prev = it == baseline.end() ? 0 : it->second;
    if (c.value > prev) out.push_back({c.name, c.value - prev});
  }
  return out;  // SnapshotCounters is sorted; the filter preserves that.
}

void ResetRecorder() {
  FlightLog().Reset();
  CaptureCounterBaseline();
}

void SetActiveProvenance(std::string json) {
  ProvenanceState& p = GlobalProvenance();
  std::lock_guard<std::mutex> guard(p.mutex);
  p.json = json.empty() ? std::string("{}") : std::move(json);
}

std::string ActiveProvenanceJson() {
  ProvenanceState& p = GlobalProvenance();
  std::lock_guard<std::mutex> guard(p.mutex);
  return p.json;
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

  std::string deltas = "{";
  {
    const auto dd = RecorderCounterDeltas();
    for (size_t i = 0; i < dd.size(); ++i) {
      deltas += i == 0 ? "\n" : ",\n";
      deltas += "  \"" + dd[i].name + "\": " + std::to_string(dd[i].value);
    }
    deltas += dd.empty() ? "}\n" : "\n}\n";
  }

  // MANIFEST keys and the file list are sorted; no clocks, no host
  // state — byte-deterministic for identical recorded state.
  const char* files[] = {"MANIFEST.json",  "counter_deltas.json",
                         "counters.json",  "events.jsonl",
                         "monitor.json",   "provenance.json",
                         "trace.json"};
  std::string manifest = "{\n";
  manifest += "  \"event_count\": " + std::to_string(events.size()) + ",\n";
  manifest += "  \"files\": [";
  for (size_t i = 0; i < sizeof(files) / sizeof(files[0]); ++i) {
    manifest += i == 0 ? "" : ", ";
    manifest += std::string("\"") + files[i] + "\"";
  }
  manifest += "],\n";
  manifest += "  \"reason\": \"" + SanitizeReason(reason) + "\",\n";
  manifest += "  \"span_count\": " + std::to_string(spans.size()) + "\n";
  manifest += "}\n";

  struct Entry {
    const char* file;
    std::string content;
  };
  const Entry entries[] = {
      {"MANIFEST.json", manifest},
      {"trace.json", SpansToChromeTraceJson(spans)},
      {"monitor.json",
       (monitor != nullptr ? monitor->SnapshotJson() : std::string("{}")) +
           "\n"},
      {"counters.json", CountersToJson()},
      {"counter_deltas.json", deltas},
      {"provenance.json", ActiveProvenanceJson() + "\n"},
      {"events.jsonl", EventsToJsonl(events)},
  };
  for (const Entry& e : entries) {
    if (Status st = WriteTextFile(path + "/" + e.file, e.content);
        !st.ok()) {
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
