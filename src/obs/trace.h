// Tracer: nestable RAII spans with per-thread lock-free buffers.
//
// A Span records its name (a string literal), wall-clock interval on the
// steady clock, owning thread, and parent span. The recording path is
// designed for instrumented hot loops:
//
//   * When tracing is disabled (the default), constructing a Span is one
//     relaxed atomic load and a branch.
//   * When enabled, records append to the calling thread's shard of a
//     growing PerThreadLog (per_thread_log.h): no lock except when a
//     block fills up.
//
// FlushSpans drains every thread's shard and merges the records in a
// deterministic order — (thread ordinal, span id), i.e. per-thread
// program order with threads in registration order — so two flushes of
// identical buffer contents produce identical output. Flushing must not
// run concurrently with span recording on other threads; call it between
// parallel regions (the pool's join handshake makes worker records
// visible to the caller).
//
// Parent linkage is per-thread: a span's parent is the innermost open
// span on the same thread (0 = root). Spans that cross into pool workers
// appear as new roots on the worker's thread, as in any sampling-free
// tracer; the Chrome-trace exporter reconstructs nesting per thread from
// the timestamps.

#ifndef XFAIR_OBS_TRACE_H_
#define XFAIR_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xfair::obs {

/// One completed span, as drained by FlushSpans.
struct SpanRecord {
  const char* name = nullptr;  ///< The literal passed to XFAIR_SPAN.
  uint64_t start_ns = 0;       ///< Steady-clock ns since process start.
  uint64_t end_ns = 0;
  uint32_t thread_ordinal = 0;  ///< Thread's first-span index, 0-based.
  uint32_t depth = 0;           ///< Nesting depth on its thread (0 = root).
  uint64_t id = 0;              ///< Unique per thread, ascending open order.
  uint64_t parent_id = 0;       ///< Enclosing span on the same thread; 0 = none.
};

/// True when spans are being recorded (one relaxed load).
bool TracingEnabled();

/// Enables/disables recording. Off by default unless the XFAIR_TRACE
/// environment variable is set to a nonzero value at first use.
void SetTracingEnabled(bool enabled);

/// Drains all per-thread shards into one deterministically ordered list
/// (thread ordinal, then span id). Must not race with active recording;
/// call between parallel regions. Open spans are not included — they are
/// recorded when they close, into whatever log state then exists.
std::vector<SpanRecord> FlushSpans();

namespace detail {
/// Shards the tracer's log holds (live recording threads plus exited
/// ones not yet flushed); for tests.
size_t TraceLogShards();
}  // namespace detail

/// RAII span. Use via XFAIR_SPAN from obs.h; `name` must be a string
/// literal (the pointer is stored, not the characters). A closing span
/// is delivered to whichever sinks are live: the tracer's log
/// (TracingEnabled) and/or the flight recorder's trailing log
/// (RecorderEnabled, see recorder.h) — one record, two destinations, so
/// the recorder sees exactly what a trace would.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  uint64_t start_ns_ = 0;
  uint64_t id_ = 0;
  uint64_t parent_id_ = 0;
  uint32_t depth_ = 0;
  bool active_ = false;     ///< Record into the tracer's log.
  bool to_flight_ = false;  ///< Record into the flight recorder's log.
};

}  // namespace xfair::obs

#endif  // XFAIR_OBS_TRACE_H_
