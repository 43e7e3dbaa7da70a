// Exporters for the observability layer: Chrome trace-event JSON for
// span timelines (load chrome://tracing or https://ui.perfetto.dev), a
// flat JSON dump of counters/histograms, and per-stage aggregation used
// by the bench harness to embed stage breakdowns in BENCH_*.json.

#ifndef XFAIR_OBS_EXPORT_H_
#define XFAIR_OBS_EXPORT_H_

#include <string>
#include <vector>

#include "src/obs/counters.h"
#include "src/obs/trace.h"
#include "src/util/status.h"

namespace xfair::obs {

/// Wall time and invocation count aggregated over all spans of one name.
struct StageStat {
  std::string name;
  uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  ///< total minus time in same-thread child spans.
};

/// Aggregates spans by name, sorted by name (deterministic).
std::vector<StageStat> AggregateStages(const std::vector<SpanRecord>& spans);

/// Chrome trace-event JSON ("X" complete events; ts/dur in microseconds,
/// tid = thread ordinal), compact. Returns the full document.
std::string SpansToChromeTraceJson(const std::vector<SpanRecord>& spans);

/// Writes SpansToChromeTraceJson(spans) to `path` through WriteTextFile.
Status WriteChromeTrace(const std::string& path,
                        const std::vector<SpanRecord>& spans);

/// JSON object with every registered counter value and histogram summary
/// (count/sum/mean plus log-linear p50/p95/p99/p999 estimates), keys
/// sorted by name.
std::string CountersToJson();

/// JSON array for a stage breakdown; bench_json.h and RunReport nest it.
/// Example element, keys sorted:
///   {"count": 3, "name": "shap/exact", "self_ms": 0.900, "total_ms": 1.204}
std::string StagesToJson(const std::vector<StageStat>& stages);

}  // namespace xfair::obs

#endif  // XFAIR_OBS_EXPORT_H_
