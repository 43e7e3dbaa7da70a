// Structured JSONL event log for lifecycle events.
//
// Models, explainers, and the fairness monitor emit coarse lifecycle
// events (fit finished, batch explained, drift alarm raised) into one
// process-global bounded log. The rendered JSONL is deterministic
// byte-for-byte at any XFAIR_THREADS setting because the log records no
// timestamps and emission happens only at API boundaries on the calling
// thread — never inside parallel regions — so the monotonic sequence
// number is assigned in program order. Each line renders its top-level
// keys and its field keys in sorted order:
//
//   {"component":"model","event":"fit","fields":{"name":"logistic_regression",
//    "rows":"1200"},"seq":0,"severity":"info"}
//
// Emission is gated on EventLogEnabled() (off by default; XFAIR_EVENTLOG
// env or SetEventLogEnabled) and the XFAIR_EVENT macro in obs.h skips
// argument evaluation entirely when the log is off. Under
// -DXFAIR_OBS=OFF every function here compiles to a no-op, so the log —
// like the rest of the observability layer — vanishes from opted-out
// builds while still linking.
//
// The log is bounded (default 65536 records): when full, the oldest
// records are dropped and counted, never blocking the emitter. This is
// lifecycle-event cadence — one mutex acquisition per emit is fine; hot
// loops use spans/counters, not events.

#ifndef XFAIR_OBS_EVENTLOG_H_
#define XFAIR_OBS_EVENTLOG_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace xfair::obs {

enum class Severity { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Lowercase wire name ("debug" | "info" | "warn" | "error").
const char* SeverityName(Severity s);

/// One emitted event; `fields` is keyed (and so sorted) by field name.
struct EventRecord {
  uint64_t seq = 0;
  Severity severity = Severity::kInfo;
  std::string component;
  std::string event;
  std::map<std::string, std::string> fields;
};

/// True when EmitEvent records (one relaxed load). Off by default unless
/// the XFAIR_EVENTLOG environment variable is set to a nonzero value at
/// first use. Always false under -DXFAIR_OBS=OFF.
bool EventLogEnabled();
void SetEventLogEnabled(bool enabled);

/// Caps the number of retained records; older records are dropped (and
/// counted) past the cap. Applies immediately.
void SetEventLogCapacity(size_t capacity);

/// Appends one event with the next sequence number. Field values are
/// stored verbatim and JSON-escaped at render time; callers format
/// numbers themselves (std::to_string) so rendering stays deterministic.
/// No-op when the log is disabled.
void EmitEvent(Severity severity, std::string_view component,
               std::string_view event,
               std::initializer_list<std::pair<std::string_view, std::string>>
                   fields = {});

/// Retained records in seq order, without consuming them (bundle dumps
/// observe; they must not erase the evidence).
std::vector<EventRecord> SnapshotEvents();

/// Retained records in seq order, consuming them.
std::vector<EventRecord> DrainEvents();

/// Records dropped to the capacity bound since the last reset.
uint64_t EventsDropped();

/// Clears retained records, the dropped count, and the sequence counter.
void ResetEventLog();

/// Renders records as JSONL: one JSON object per line, top-level keys
/// and field keys sorted, no timestamps — byte-identical for identical
/// records.
std::string EventsToJsonl(const std::vector<EventRecord>& records);

}  // namespace xfair::obs

#endif  // XFAIR_OBS_EVENTLOG_H_
