#include "src/obs/export.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string_view>

namespace xfair::obs {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string FormatMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

}  // namespace

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
  std::string out = "{\"traceEvents\":[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f}",
                  JsonEscape(s.name).c_str(), s.thread_ordinal,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out += buf;
    if (i + 1 < spans.size()) out += ',';
    out += '\n';
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

Status WriteChromeTrace(const std::string& path,
                        const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::NotFound("cannot open for write: " + path);
  }
  const std::string doc = SpansToChromeTraceJson(spans);
  const size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  if (written != doc.size()) {
    return Status::Internal("short write: " + path);
  }
  return Status::OK();
}

std::string CountersToJson() {
  std::string out = "{\n  \"counters\": {";
  const auto counters = SnapshotCounters();
  for (size_t i = 0; i < counters.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    \"" + JsonEscape(counters[i].name) +
           "\": " + std::to_string(counters[i].value);
  }
  out += "\n  },\n  \"histograms\": {";
  const auto histograms = SnapshotHistograms();
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    const double mean =
        h.count == 0
            ? 0.0
            : static_cast<double>(h.sum) / static_cast<double>(h.count);
    out += i == 0 ? "\n" : ",\n";
    out += "    \"" + JsonEscape(h.name) + "\": {\"count\": " +
           std::to_string(h.count) + ", \"sum\": " + std::to_string(h.sum) +
           ", \"mean\": " + FormatMs(mean) +
           ", \"p50\": " + FormatMs(HistogramQuantile(h, 0.50)) +
           ", \"p95\": " + FormatMs(HistogramQuantile(h, 0.95)) +
           ", \"p99\": " + FormatMs(HistogramQuantile(h, 0.99)) +
           ", \"p999\": " + FormatMs(HistogramQuantile(h, 0.999)) + "}";
  }
  out += "\n  }\n}\n";
  return out;
}

std::string StagesToJson(const std::vector<StageStat>& stages) {
  std::string out = "[";
  for (size_t i = 0; i < stages.size(); ++i) {
    const StageStat& s = stages[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"" + JsonEscape(s.name) +
           "\", \"count\": " + std::to_string(s.count) +
           ", \"total_ms\": " + FormatMs(s.total_ms) +
           ", \"self_ms\": " + FormatMs(s.self_ms) + "}";
  }
  out += "\n  ]";
  return out;
}

}  // namespace xfair::obs
