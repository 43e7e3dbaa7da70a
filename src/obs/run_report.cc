#include "src/obs/run_report.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>

#include "src/obs/eventlog.h"
#include "src/obs/export.h"
#include "src/obs/monitor.h"
#include "src/obs/recorder.h"

namespace xfair::obs {
namespace {

uint64_t Fnv1a(uint64_t h, const void* data, size_t bytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

uint64_t DatasetFingerprint(const Dataset& data) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const size_t n = data.size(), d = data.num_features();
  h = Fnv1a(h, &n, sizeof(n));
  h = Fnv1a(h, &d, sizeof(d));
  for (size_t r = 0; r < n; ++r) {
    h = Fnv1a(h, data.x().RowPtr(r), d * sizeof(double));
  }
  if (!data.labels().empty()) {
    h = Fnv1a(h, data.labels().data(), n * sizeof(int));
  }
  if (!data.groups().empty()) {
    h = Fnv1a(h, data.groups().data(), n * sizeof(int));
  }
  return h;
}

RunReport RunWithReport(const ApproachDescriptor& descriptor,
                        const RunContext& ctx) {
  RunReport report;
  report.method = descriptor.name;
  report.citation = descriptor.citation;
  report.seed = ctx.seed;
  {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      DatasetFingerprint(ctx.credit)));
    report.dataset_fingerprint = buf;
  }
  report.config = std::string(ToString(descriptor.stage)) + "/" +
                  ToString(descriptor.access) + "/" +
                  ToString(descriptor.agnostic) + "/" +
                  ToString(descriptor.coverage) + "/" +
                  ToString(descriptor.level) + "/" +
                  ToString(descriptor.task) + "/" +
                  descriptor.explanation_type + "/" +
                  descriptor.goals.ToString();

  // Publish this run as the active provenance, so a diagnostic bundle
  // dumped during (or after) the run can prove which method, seed, and
  // dataset produced the decisions under audit. Stays installed after
  // the run: "most recent run" is exactly what an alarm wants to see.
  SetActiveProvenance("{\n  \"citation\": \"" + JsonEscape(report.citation) +
                      "\",\n  \"config\": \"" + JsonEscape(report.config) +
                      "\",\n  \"dataset_fingerprint\": \"" +
                      report.dataset_fingerprint + "\",\n  \"method\": \"" +
                      JsonEscape(report.method) + "\",\n  \"seed\": " +
                      std::to_string(report.seed) + "\n}");
  EmitEvent(Severity::kInfo, "run_report", "run_start",
            {{"citation", report.citation},
             {"method", report.method},
             {"seed", std::to_string(report.seed)}});

  const std::map<std::string, uint64_t> before = [] {
    std::map<std::string, uint64_t> m;
    for (const CounterSnapshot& c : SnapshotCounters()) m[c.name] = c.value;
    return m;
  }();
  const bool was_tracing = TracingEnabled();
  FlushSpans();  // Discard anything recorded before this run.
  SetTracingEnabled(true);

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  report.summary = descriptor.runner(ctx);
  report.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start)
          .count();

  SetTracingEnabled(was_tracing);
  report.stages = AggregateStages(FlushSpans());
  for (const CounterSnapshot& c : SnapshotCounters()) {
    const auto it = before.find(c.name);
    const uint64_t prev = it == before.end() ? 0 : it->second;
    if (c.value > prev) {
      report.counter_deltas.push_back({c.name, c.value - prev});
    }
  }

#ifndef XFAIR_OBS_DISABLED
  // Fairness telemetry: replay the credit fixture through the model's
  // batched path with a stream context attached, so the monitor hook in
  // PredictProbaBatch joins scores with groups and labels. A local
  // monitor sized to the fixture makes the windowed gaps equal the
  // whole-fixture group metrics; deterministic for a given fixture.
  {
    MonitorOptions mopts;
    mopts.window = ctx.credit.size() == 0 ? 1 : ctx.credit.size();
    FairnessMonitor monitor("run_report/credit_fixture", mopts);
    const bool was_monitoring = MonitoringEnabled();
    SetMonitoringEnabled(true);
    {
      ScopedStreamContext stream(&monitor, ctx.credit.groups().data(),
                                 ctx.credit.labels().data(),
                                 ctx.credit.size());
      (void)ctx.credit_model.PredictProbaBatch(ctx.credit.x());
    }
    SetMonitoringEnabled(was_monitoring);
    monitor.Drain();
    report.fairness_telemetry = monitor.SnapshotJson();
  }
#endif
  EmitEvent(Severity::kInfo, "run_report", "run_end",
            {{"method", report.method}, {"summary", report.summary}});
  return report;
}

std::string RunReport::ToJson() const {
  char wall[32];
  std::snprintf(wall, sizeof(wall), "%.3f", wall_ms);
  std::string out = "{\n";
  out += "  \"method\": \"" + JsonEscape(method) + "\",\n";
  out += "  \"citation\": \"" + JsonEscape(citation) + "\",\n";
  out += "  \"config\": \"" + JsonEscape(config) + "\",\n";
  out += "  \"seed\": " + std::to_string(seed) + ",\n";
  out += "  \"dataset_fingerprint\": \"" + dataset_fingerprint + "\",\n";
  out += "  \"summary\": \"" + JsonEscape(summary) + "\",\n";
  out += std::string("  \"wall_ms\": ") + wall + ",\n";
  // Indent the monitor snapshot one level to nest cleanly.
  std::string telemetry;
  telemetry.reserve(fairness_telemetry.size());
  for (char c : fairness_telemetry) {
    telemetry += c;
    if (c == '\n') telemetry += "  ";
  }
  out += "  \"fairness_telemetry\": " + telemetry + ",\n";
  out += "  \"stages\": " + StagesToJson(stages) + ",\n";
  out += "  \"counter_deltas\": {";
  for (size_t i = 0; i < counter_deltas.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    \"" + JsonEscape(counter_deltas[i].name) +
           "\": " + std::to_string(counter_deltas[i].value);
  }
  out += "\n  }\n}";
  return out;
}

}  // namespace xfair::obs
