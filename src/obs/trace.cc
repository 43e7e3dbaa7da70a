#include "src/obs/trace.h"

#include "src/obs/per_thread_log.h"
#include "src/obs/recorder.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>

namespace xfair::obs {
namespace {

/// Steady-clock ns relative to a process-lifetime epoch (first use).
uint64_t NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

/// The tracer's growing log (process lifetime).
PerThreadLog<SpanRecord>& TraceLog() {
  static auto* log = new PerThreadLog<SpanRecord>();
  return *log;
}

/// Per-thread span state: the thread's ordinal (assigned at its first
/// span, never reused), the next span id, and the open-span stack.
struct ThreadSpans {
  uint32_t ordinal = 0;
  uint64_t next_id = 1;
  std::vector<uint64_t> open_stack;  ///< Ids of currently open spans.
};

ThreadSpans& LocalSpans() {
  static std::atomic<uint32_t> next_ordinal{0};
  thread_local ThreadSpans spans{
      next_ordinal.fetch_add(1, std::memory_order_relaxed), 1, {}};
  return spans;
}

std::atomic<bool> g_enabled{[] {
  const char* env = std::getenv("XFAIR_TRACE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}()};

}  // namespace

bool TracingEnabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetTracingEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

std::vector<SpanRecord> FlushSpans() {
  std::vector<SpanRecord> out;
  TraceLog().Drain(&out);
  // Records close in LIFO order per thread; sort into the documented
  // (thread ordinal, id) order for a stable, open-order view.
  std::sort(out.begin(), out.end(), [](const SpanRecord& a,
                                       const SpanRecord& b) {
    return a.thread_ordinal != b.thread_ordinal
               ? a.thread_ordinal < b.thread_ordinal
               : a.id < b.id;
  });
  return out;
}

size_t detail::TraceLogShards() { return TraceLog().shard_count(); }

Span::Span(const char* name) : name_(name) {
  const bool trace = TracingEnabled();
  const bool flight = RecorderEnabled();
  if (!trace && !flight) return;
  ThreadSpans& spans = LocalSpans();
  active_ = trace;
  to_flight_ = flight;
  id_ = spans.next_id++;
  parent_id_ = spans.open_stack.empty() ? 0 : spans.open_stack.back();
  depth_ = static_cast<uint32_t>(spans.open_stack.size());
  spans.open_stack.push_back(id_);
  start_ns_ = NowNs();
}

Span::~Span() {
  if (!active_ && !to_flight_) return;
  const uint64_t end = NowNs();
  ThreadSpans& spans = LocalSpans();
  // Defensive: the stack top must be this span (RAII guarantees LIFO).
  if (!spans.open_stack.empty() && spans.open_stack.back() == id_) {
    spans.open_stack.pop_back();
  }
  const SpanRecord rec{name_,  start_ns_, end,       spans.ordinal,
                       depth_, id_,       parent_id_};
  if (active_) TraceLog().Append(rec);
  if (to_flight_) detail::RecordFlightSpan(rec);
}

}  // namespace xfair::obs
