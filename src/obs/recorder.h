// Flight recorder: always-on trailing window of spans + counter deltas,
// and anomaly-triggered diagnostic bundles.
//
// The tracer (trace.h) answers "record everything, export later"; an
// audit deployment needs the opposite: keep only the *trailing* K spans
// per thread at near-zero cost, and when a drift detector trips, dump
// everything relevant — the trailing Chrome trace, the monitor snapshot,
// the full counter/histogram export, the structured event log, and the
// active RunReport provenance — into one self-contained bundle directory
// that an auditor can replay without access to the live process.
//
// Recording path: the flight log is a PerThreadLog<SpanRecord>
// (per_thread_log.h) with the fixed policy: each thread keeps its
// trailing 4096 spans (steady-clock timestamps, same epoch as the
// tracer), overwriting the oldest; no locks, no allocation once a
// thread's ring is full. Span destructors feed it whenever
// RecorderEnabled() — independently of tracing, so the recorder can stay
// on in production while full tracing stays off.
//
// Snapshot order is deterministic: threads in registration order, each
// in append order. SnapshotFlightSpans must not race with span recording
// (the FlushSpans contract: call between parallel regions).
//
// Enabling the recorder snapshots every counter as the delta baseline;
// RecorderCounterDeltas() reports what advanced since, so a bundle shows
// "what the process did lately", not lifetime totals.
//
// Under -DXFAIR_OBS=OFF spans do not exist, so the recorder compiles to
// an empty shell: RecorderEnabled() is false, snapshots are empty, and
// DumpDiagnosticBundle writes nothing and returns OK.

#ifndef XFAIR_OBS_RECORDER_H_
#define XFAIR_OBS_RECORDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/counters.h"
#include "src/obs/trace.h"
#include "src/util/status.h"

namespace xfair::obs {

class FairnessMonitor;

/// True when span destructors feed the flight rings (one relaxed load).
/// Off by default unless the XFAIR_RECORDER environment variable is set
/// to a nonzero value at first use; always false under -DXFAIR_OBS=OFF.
bool RecorderEnabled();

/// Enables/disables flight recording. The off->on transition captures
/// the counter-delta baseline (see RecorderCounterDeltas).
void SetRecorderEnabled(bool enabled);

/// Trailing spans the flight log keeps per thread.
inline constexpr size_t kFlightSpansPerThread = 4096;

/// The retained trailing spans of every thread, in deterministic
/// (thread registration, append) order. Non-destructive. Must not race
/// with span recording.
std::vector<SpanRecord> SnapshotFlightSpans();

/// Spans overwritten (lost to the ring bound) since the last reset.
uint64_t FlightSpansDropped();

/// Counters that advanced since the recorder was last enabled (or since
/// ResetRecorder), as (name, increment) sorted by name.
std::vector<CounterSnapshot> RecorderCounterDeltas();

/// Clears the flight log and the dropped count (freeing the rings of
/// exited threads), and re-captures the counter baseline. Must not race
/// with span recording.
void ResetRecorder();

/// Sets the provenance JSON object embedded in bundles (the active
/// RunReport's method/seed/dataset fingerprint; "{}" when none).
/// RunWithReport installs this automatically around each run.
void SetActiveProvenance(std::string json);
std::string ActiveProvenanceJson();

/// Writes a diagnostic bundle directory under `directory` and returns
/// its path via `bundle_dir` (may be null). The bundle contains:
///
///   MANIFEST.json       file list + reason + record counts (no clocks)
///   trace.json          Chrome trace of the trailing flight window
///   monitor.json        monitor->SnapshotJson() ("{}" if null)
///   counters.json       full counter/histogram export with quantiles
///   counter_deltas.json counters advanced since recorder enable
///   provenance.json     the active RunReport provenance
///   events.jsonl        the structured event log (snapshot, not drain)
///
/// Every file except trace.json (whose timestamps are wall-clock) is
/// byte-deterministic for identical recorded state. Directory name:
/// bundle-<NNN>-<reason> with a process-global NNN.
Status DumpDiagnosticBundle(const std::string& directory,
                            const FairnessMonitor* monitor,
                            const std::string& reason,
                            std::string* bundle_dir = nullptr);

/// Bundle-dump policy for InstallBundleDumpOnAlarm.
struct BundleOptions {
  std::string directory = "bundles";
  /// Stop dumping after this many bundles (an alarm storm must not fill
  /// the disk); 0 means unlimited.
  size_t max_bundles = 4;
};

/// Installs an alarm hook on `monitor` that dumps a diagnostic bundle
/// for each drift alarm (reason "<metric>-<detector>"), honoring
/// `options.max_bundles`. Returns the hook id from AddAlarmHook.
size_t InstallBundleDumpOnAlarm(FairnessMonitor& monitor,
                                BundleOptions options = {});

namespace detail {
/// Called by Span::~Span when RecorderEnabled(): appends to the flight
/// log.
void RecordFlightSpan(const SpanRecord& rec);

/// Shards the flight log holds (live recording threads plus exited ones
/// not yet reset); for tests.
size_t FlightLogShards();
}  // namespace detail

}  // namespace xfair::obs

#endif  // XFAIR_OBS_RECORDER_H_
