// Metrics exposition: Prometheus-style text rendering and JSON
// snapshots of the whole observability state — counters, histograms
// (with p50/p95/p99 estimates), and every registered fairness monitor.
//
// The text format follows the Prometheus exposition conventions: one
// `# TYPE` header per metric family, one sample per line, labels in
// `{key="value"}` form. Hierarchical xfair names ("kdtree/queries") are
// carried in a `name` label rather than mangled into the metric name,
// so the family set is fixed and the label values stay greppable.
// Output order is deterministic: families in fixed order, series sorted
// by name within each family, doubles rendered with %.12g — two renders
// of identical state are byte-identical.
//
// Under -DXFAIR_OBS=OFF both renderers return their empty forms ("" /
// "{}"): the layer compiles and links, but exposes nothing.

#ifndef XFAIR_OBS_EXPOSITION_H_
#define XFAIR_OBS_EXPOSITION_H_

#include <string>

#include "src/obs/monitor.h"
#include "src/util/status.h"

namespace xfair::obs {

/// Renders every counter, histogram, and monitor as Prometheus text.
/// Families:
///   xfair_counter_total{name="..."}
///   xfair_histogram_{count,sum}{name="..."} and
///   xfair_histogram{name="...",quantile="0.5|0.95|0.99"}
///   xfair_monitor_events_total{monitor="...",group="g"}
///   xfair_monitor_{positive_rate,tpr,fpr,score_mean}{monitor,group}
///   xfair_monitor_window_gap{monitor="...",metric="..."}
///   xfair_monitor_window_events{monitor="..."}
///   xfair_monitor_alarms_total{monitor="...",metric="...",detector="..."}
///   xfair_monitor_last_alarm_seq{monitor="...",metric="...",detector="..."}
std::string RenderPrometheusText();

/// JSON object {"monitors": {name: snapshot, ...}} over every
/// registered monitor, names and keys sorted.
std::string MonitorsToJson();

/// Writes `content` to `path`: NotFound when the file cannot be opened,
/// Internal when the write or the close fails (e.g. a full disk). Every
/// JSON artifact is written through here.
Status WriteTextFile(const std::string& path, const std::string& content);

}  // namespace xfair::obs

#endif  // XFAIR_OBS_EXPOSITION_H_
