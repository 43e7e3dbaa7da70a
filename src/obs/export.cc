#include "src/obs/export.h"

#include <map>

#include "src/obs/exposition.h"
#include "src/obs/json.h"

namespace xfair::obs {

std::vector<StageStat> AggregateStages(const std::vector<SpanRecord>& spans) {
  // total = sum of span durations; self = total minus durations of
  // direct children (same thread, parent linkage), so nested stages do
  // not double-count their parents' exclusive time.
  std::map<std::string, StageStat> by_name;
  std::map<std::pair<uint32_t, uint64_t>, double> child_ns;
  for (const SpanRecord& s : spans) {
    if (s.parent_id != 0) {
      child_ns[{s.thread_ordinal, s.parent_id}] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  for (const SpanRecord& s : spans) {
    StageStat& stat = by_name[s.name];
    stat.name = s.name;
    ++stat.count;
    const double dur_ns = static_cast<double>(s.end_ns - s.start_ns);
    stat.total_ms += dur_ns / 1e6;
    const auto it = child_ns.find({s.thread_ordinal, s.id});
    const double children = it == child_ns.end() ? 0.0 : it->second;
    stat.self_ms += (dur_ns - children) / 1e6;
  }
  std::vector<StageStat> out;
  out.reserve(by_name.size());
  for (auto& [name, stat] : by_name) out.push_back(std::move(stat));
  return out;
}

std::string SpansToChromeTraceJson(const std::vector<SpanRecord>& spans) {
  std::vector<Json> events;
  for (const SpanRecord& s : spans) {
    const double dur_ns = static_cast<double>(s.end_ns - s.start_ns);
    events.push_back(
        {{"dur", Json::Fixed(dur_ns / 1e3, 3)},
         {"name", s.name},
         {"ph", "X"},
         {"pid", 1},
         {"tid", s.thread_ordinal},
         {"ts", Json::Fixed(static_cast<double>(s.start_ns) / 1e3, 3)}});
  }
  return Json{{"displayTimeUnit", "ms"}, {"traceEvents", std::move(events)}}
             .Dump(Json::Layout::kCompact) +
         "\n";
}

Status WriteChromeTrace(const std::string& path,
                        const std::vector<SpanRecord>& spans) {
  return WriteTextFile(path, SpansToChromeTraceJson(spans));
}

std::string CountersToJson() {
  Json counters, histograms;
  for (const CounterSnapshot& c : SnapshotCounters()) {
    counters[c.name] = c.value;
  }
  for (const HistogramSnapshot& h : SnapshotHistograms()) {
    const double mean =
        h.count == 0
            ? 0.0
            : static_cast<double>(h.sum) / static_cast<double>(h.count);
    const auto quantile = [&h](double q) {
      return Json::Fixed(HistogramQuantile(h, q), 3);
    };
    histograms[h.name] = {
        {"count", h.count},      {"mean", Json::Fixed(mean, 3)},
        {"p50", quantile(0.50)}, {"p95", quantile(0.95)},
        {"p99", quantile(0.99)}, {"p999", quantile(0.999)},
        {"sum", h.sum}};
  }
  return Json{{"counters", std::move(counters)},
              {"histograms", std::move(histograms)}}
             .Dump() +
         "\n";
}

std::string StagesToJson(const std::vector<StageStat>& stages) {
  std::vector<Json> rows;
  for (const StageStat& s : stages) {
    rows.push_back({{"count", s.count},
                    {"name", s.name},
                    {"self_ms", Json::Fixed(s.self_ms, 3)},
                    {"total_ms", Json::Fixed(s.total_ms, 3)}});
  }
  return Json(std::move(rows)).Dump();
}

}  // namespace xfair::obs
