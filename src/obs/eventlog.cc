#include "src/obs/eventlog.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <mutex>

#include "src/obs/json.h"

namespace xfair::obs {
namespace {

[[maybe_unused]] constexpr size_t kDefaultCapacity = 65536;

struct LogState {
  std::mutex mutex;
  std::deque<EventRecord> records;
  size_t capacity = kDefaultCapacity;
  uint64_t next_seq = 0;
  uint64_t dropped = 0;
};

[[maybe_unused]] LogState& GlobalLog() {
  static LogState* s = new LogState();
  return *s;
}

std::atomic<bool> g_enabled{[] {
#ifdef XFAIR_OBS_DISABLED
  return false;
#else
  const char* env = std::getenv("XFAIR_EVENTLOG");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
#endif
}()};

}  // namespace

const char* SeverityName(Severity s) {
  switch (s) {
    case Severity::kDebug: return "debug";
    case Severity::kInfo: return "info";
    case Severity::kWarn: return "warn";
    case Severity::kError: return "error";
  }
  return "info";
}

bool EventLogEnabled() {
#ifdef XFAIR_OBS_DISABLED
  return false;
#else
  return g_enabled.load(std::memory_order_relaxed);
#endif
}

void SetEventLogEnabled(bool enabled) {
#ifdef XFAIR_OBS_DISABLED
  (void)enabled;
#else
  g_enabled.store(enabled, std::memory_order_relaxed);
#endif
}

void SetEventLogCapacity(size_t capacity) {
#ifdef XFAIR_OBS_DISABLED
  (void)capacity;
#else
  LogState& log = GlobalLog();
  std::lock_guard<std::mutex> guard(log.mutex);
  log.capacity = std::max<size_t>(1, capacity);
  while (log.records.size() > log.capacity) {
    log.records.pop_front();
    ++log.dropped;
  }
#endif
}

void EmitEvent(Severity severity, std::string_view component,
               std::string_view event,
               std::initializer_list<std::pair<std::string_view, std::string>>
                   fields) {
#ifdef XFAIR_OBS_DISABLED
  (void)severity;
  (void)component;
  (void)event;
  (void)fields;
#else
  if (!EventLogEnabled()) return;
  EventRecord rec;
  rec.severity = severity;
  rec.component = std::string(component);
  rec.event = std::string(event);
  for (const auto& [k, v] : fields) rec.fields.emplace(k, v);
  LogState& log = GlobalLog();
  std::lock_guard<std::mutex> guard(log.mutex);
  rec.seq = log.next_seq++;
  log.records.push_back(std::move(rec));
  while (log.records.size() > log.capacity) {
    log.records.pop_front();
    ++log.dropped;
  }
#endif
}

std::vector<EventRecord> SnapshotEvents() {
#ifdef XFAIR_OBS_DISABLED
  return {};
#else
  LogState& log = GlobalLog();
  std::lock_guard<std::mutex> guard(log.mutex);
  return std::vector<EventRecord>(log.records.begin(), log.records.end());
#endif
}

std::vector<EventRecord> DrainEvents() {
#ifdef XFAIR_OBS_DISABLED
  return {};
#else
  LogState& log = GlobalLog();
  std::lock_guard<std::mutex> guard(log.mutex);
  std::vector<EventRecord> out(log.records.begin(), log.records.end());
  log.records.clear();
  return out;
#endif
}

uint64_t EventsDropped() {
#ifdef XFAIR_OBS_DISABLED
  return 0;
#else
  LogState& log = GlobalLog();
  std::lock_guard<std::mutex> guard(log.mutex);
  return log.dropped;
#endif
}

void ResetEventLog() {
#ifdef XFAIR_OBS_DISABLED
#else
  LogState& log = GlobalLog();
  std::lock_guard<std::mutex> guard(log.mutex);
  log.records.clear();
  log.next_seq = 0;
  log.dropped = 0;
#endif
}

std::string EventsToJsonl(const std::vector<EventRecord>& records) {
#ifdef XFAIR_OBS_DISABLED
  (void)records;
  return "";
#else
  std::string out;
  for (const EventRecord& r : records) {
    Json fields;
    for (const auto& [key, value] : r.fields) fields[key] = value;
    out += Json{{"component", r.component},
                {"event", r.event},
                {"fields", std::move(fields)},
                {"seq", r.seq},
                {"severity", SeverityName(r.severity)}}
               .Dump(Json::Layout::kCompact) +
           "\n";
  }
  return out;
#endif
}

}  // namespace xfair::obs
