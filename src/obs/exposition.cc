#include "src/obs/exposition.h"

#include <cstdio>
#include <map>
#include <string_view>
#include <utility>

#include "src/obs/counters.h"
#include "src/obs/json.h"

namespace xfair::obs {
namespace {

[[maybe_unused]] std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

/// Escapes a Prometheus label value (backslash, quote, newline).
[[maybe_unused]] std::string LabelEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

std::string RenderPrometheusText() {
#ifdef XFAIR_OBS_DISABLED
  return "";
#else
  std::string out;

  const auto counters = SnapshotCounters();
  out += "# HELP xfair_counter_total Monotonic xfair counters.\n";
  out += "# TYPE xfair_counter_total counter\n";
  for (const CounterSnapshot& c : counters) {
    out += "xfair_counter_total{name=\"" + LabelEscape(c.name) + "\"} " +
           std::to_string(c.value) + "\n";
  }

  const auto histograms = SnapshotHistograms();
  out += "# HELP xfair_histogram Log-linear xfair histograms "
         "(quantiles are bucket estimates, <=1/64 relative error).\n";
  out += "# TYPE xfair_histogram summary\n";
  for (const HistogramSnapshot& h : histograms) {
    const std::string name = LabelEscape(h.name);
    for (const auto& [q, label] :
         {std::pair<double, const char*>{0.50, "0.5"},
          {0.95, "0.95"},
          {0.99, "0.99"},
          {0.999, "0.999"}}) {
      out += "xfair_histogram{name=\"" + name + "\",quantile=\"" + label +
             "\"} " + Num(HistogramQuantile(h, q)) + "\n";
    }
    out += "xfair_histogram_sum{name=\"" + name + "\"} " +
           std::to_string(h.sum) + "\n";
    out += "xfair_histogram_count{name=\"" + name + "\"} " +
           std::to_string(h.count) + "\n";
  }

  const auto monitors = RegisteredMonitors();
  out += "# HELP xfair_monitor_events_total Events processed per "
         "monitor and group.\n";
  out += "# TYPE xfair_monitor_events_total counter\n";
  for (const FairnessMonitor* m : monitors) {
    const std::string mon = LabelEscape(m->name());
    for (int g = 0; g < FairnessMonitor::kMaxGroups; ++g) {
      const GroupAggregate& agg = m->aggregates()[static_cast<size_t>(g)];
      if (agg.events == 0) continue;
      out += "xfair_monitor_events_total{monitor=\"" + mon +
             "\",group=\"" + std::to_string(g) + "\"} " +
             std::to_string(agg.events) + "\n";
    }
  }
  out += "# HELP xfair_monitor_group Per-group online aggregates.\n";
  out += "# TYPE xfair_monitor_group gauge\n";
  for (const FairnessMonitor* m : monitors) {
    const std::string mon = LabelEscape(m->name());
    for (int g = 0; g < FairnessMonitor::kMaxGroups; ++g) {
      const GroupAggregate& agg = m->aggregates()[static_cast<size_t>(g)];
      if (agg.events == 0) continue;
      const std::string labels =
          "{monitor=\"" + mon + "\",group=\"" + std::to_string(g) + "\",";
      out += "xfair_monitor_group" + labels + "stat=\"positive_rate\"} " +
             Num(agg.positive_rate()) + "\n";
      out += "xfair_monitor_group" + labels + "stat=\"tpr\"} " +
             Num(agg.tpr()) + "\n";
      out += "xfair_monitor_group" + labels + "stat=\"fpr\"} " +
             Num(agg.fpr()) + "\n";
      out += "xfair_monitor_group" + labels + "stat=\"score_mean\"} " +
             Num(agg.score_mean) + "\n";
      out += "xfair_monitor_group" + labels + "stat=\"score_variance\"} " +
             Num(agg.score_variance()) + "\n";
    }
  }
  out += "# HELP xfair_monitor_window_gap Sliding-window group fairness "
         "gaps.\n";
  out += "# TYPE xfair_monitor_window_gap gauge\n";
  for (const FairnessMonitor* m : monitors) {
    const std::string mon = LabelEscape(m->name());
    const WindowedMetrics wm = m->Windowed();
    out += "xfair_monitor_window_gap{monitor=\"" + mon +
           "\",metric=\"demographic_parity\"} " +
           Num(wm.demographic_parity_diff) + "\n";
    out += "xfair_monitor_window_gap{monitor=\"" + mon +
           "\",metric=\"equalized_odds\"} " + Num(wm.equalized_odds_diff) +
           "\n";
    out += "xfair_monitor_window_gap{monitor=\"" + mon +
           "\",metric=\"calibration\"} " + Num(wm.calibration_gap) + "\n";
    out += "xfair_monitor_window_events{monitor=\"" + mon + "\"} " +
           std::to_string(wm.events) + "\n";
  }
  out += "# HELP xfair_monitor_alarms_total Drift alarms raised per "
         "monitor, metric, and detector.\n";
  out += "# TYPE xfair_monitor_alarms_total counter\n";
  for (const FairnessMonitor* m : monitors) {
    const std::string mon = LabelEscape(m->name());
    // (metric, detector) -> (count, last seq), ordered by key.
    std::map<std::pair<std::string, std::string>,
             std::pair<uint64_t, uint64_t>>
        tally;
    for (const DriftAlarm& a : m->alarms()) {
      auto& entry = tally[{a.metric, a.detector}];
      ++entry.first;
      entry.second = a.seq;
    }
    for (const auto& [key, entry] : tally) {
      const std::string labels = "{monitor=\"" + mon + "\",metric=\"" +
                                 key.first + "\",detector=\"" +
                                 key.second + "\"} ";
      out += "xfair_monitor_alarms_total" + labels +
             std::to_string(entry.first) + "\n";
      out += "xfair_monitor_last_alarm_seq" + labels +
             std::to_string(entry.second) + "\n";
    }
  }
  return out;
#endif
}

std::string MonitorsToJson() {
#ifdef XFAIR_OBS_DISABLED
  return Json().Dump();
#else
  Json monitors;
  for (const FairnessMonitor* m : RegisteredMonitors()) {
    monitors[m->name()] = Json::Raw(m->SnapshotJson());
  }
  return Json{{"monitors", std::move(monitors)}}.Dump() + "\n";
#endif
}

Status WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::NotFound("cannot open for write: " + path);
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  // A full disk often surfaces only when fclose flushes the buffer.
  if (std::fclose(f) != 0 || written != content.size()) {
    return Status::Internal("write failed: " + path);
  }
  return Status::OK();
}

}  // namespace xfair::obs
