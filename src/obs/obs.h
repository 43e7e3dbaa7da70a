// Umbrella header + instrumentation macros for the observability layer.
//
// Instrumented code uses only the macros below, which obey two build
// modes:
//
//   * Default build: XFAIR_SPAN records a span when tracing is enabled at
//     runtime (one relaxed load + branch when disabled);
//     XFAIR_COUNTER_ADD / XFAIR_HISTOGRAM_OBSERVE are relaxed atomic
//     updates on interned counters (function-local-static lookup, paid
//     once per call site).
//   * -DXFAIR_OBS=OFF (CMake) defines XFAIR_OBS_DISABLED and every macro
//     compiles to nothing — the argument expressions are not evaluated —
//     so instrumentation is provably free in opted-out builds.
//
// The macros never influence the instrumented computation: no branches
// depend on counter values and spans only read the clock. That is the
// bit-identity guarantee the golden and thread-invariance tests pin.
//
// Naming scheme (see DESIGN.md §6): "<layer>/<operation>[/<detail>]"
// with layers {parallel, model, shap, tree_shap, fairness_shap, gopher,
// cf, kdtree, flat_tree}. Span names must be string literals.
//
// The streaming fairness-monitoring hook (XFAIR_MONITOR_PREDICTIONS,
// DESIGN.md §8) lives in monitor.h and obeys the same two build modes.

#ifndef XFAIR_OBS_OBS_H_
#define XFAIR_OBS_OBS_H_

#include "src/obs/counters.h"
#include "src/obs/eventlog.h"
#include "src/obs/export.h"
#include "src/obs/exposition.h"
#include "src/obs/json.h"
#include "src/obs/monitor.h"
#include "src/obs/recorder.h"
#include "src/obs/trace.h"

#define XFAIR_OBS_CONCAT_INNER(a, b) a##b
#define XFAIR_OBS_CONCAT(a, b) XFAIR_OBS_CONCAT_INNER(a, b)

#ifndef XFAIR_OBS_DISABLED

/// Opens a RAII span named `name` (string literal) for the rest of the
/// enclosing scope.
#define XFAIR_SPAN(name) \
  ::xfair::obs::Span XFAIR_OBS_CONCAT(xfair_span_, __LINE__)(name)

/// Adds `n` to the monotonic counter `name` (relaxed; thread-safe).
#define XFAIR_COUNTER_ADD(name, n)                                \
  do {                                                            \
    static ::xfair::obs::Counter& xfair_counter_ =                \
        ::xfair::obs::GetCounter(name);                           \
    xfair_counter_.Add(n);                                        \
  } while (0)

/// Records `v` into the log-linear histogram `name`.
#define XFAIR_HISTOGRAM_OBSERVE(name, v)                          \
  do {                                                            \
    static ::xfair::obs::Histogram& xfair_histogram_ =            \
        ::xfair::obs::GetHistogram(name);                         \
    xfair_histogram_.Observe(v);                                  \
  } while (0)

/// Observes the elapsed nanoseconds of the enclosing scope into the
/// log-linear histogram `name` (two steady-clock reads per scope; put
/// it at batch granularity, not inside per-row loops).
#define XFAIR_LATENCY_NS(name)                                        \
  static ::xfair::obs::Histogram& XFAIR_OBS_CONCAT(                   \
      xfair_latency_hist_, __LINE__) = ::xfair::obs::GetHistogram(name); \
  ::xfair::obs::ScopedLatency XFAIR_OBS_CONCAT(xfair_latency_,        \
                                               __LINE__)(             \
      XFAIR_OBS_CONCAT(xfair_latency_hist_, __LINE__))

/// Emits a structured lifecycle event (eventlog.h) with severity
/// `sev` (kDebug/kInfo/kWarn/kError), a component and event name, and
/// optional {{"key", value}, ...} fields. Field values are strings the
/// caller formats. Arguments are not evaluated when the log is off.
#define XFAIR_EVENT(sev, component, event, ...)                         \
  do {                                                                  \
    if (::xfair::obs::EventLogEnabled()) {                              \
      ::xfair::obs::EmitEvent(::xfair::obs::Severity::sev, (component), \
                              (event), ##__VA_ARGS__);                  \
    }                                                                   \
  } while (0)

#else  // XFAIR_OBS_DISABLED

#define XFAIR_SPAN(name) \
  do {                   \
  } while (0)
#define XFAIR_COUNTER_ADD(name, n) \
  do {                             \
  } while (0)
#define XFAIR_HISTOGRAM_OBSERVE(name, v) \
  do {                                   \
  } while (0)
#define XFAIR_LATENCY_NS(name) \
  do {                         \
  } while (0)
#define XFAIR_EVENT(sev, component, event, ...) \
  do {                                          \
  } while (0)

#endif  // XFAIR_OBS_DISABLED

#endif  // XFAIR_OBS_OBS_H_
