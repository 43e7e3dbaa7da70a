#include "src/obs/run_report.h"

#include <chrono>
#include <cstdio>

#include "src/obs/eventlog.h"
#include "src/obs/export.h"
#include "src/obs/json.h"
#include "src/obs/monitor.h"
#include "src/obs/recorder.h"
#include "src/util/hash.h"

namespace xfair::obs {
namespace {

/// What identifies a run: method, configuration, seed and dataset.
Json ProvenanceJson(const RunReport& r) {
  return {{"citation", r.citation},
          {"config", r.config},
          {"dataset_fingerprint", r.dataset_fingerprint},
          {"method", r.method},
          {"seed", r.seed}};
}

}  // namespace

uint64_t DatasetFingerprint(const Dataset& data) {
  uint64_t h = kFnv1aBasis;
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
  SetActiveProvenance(ProvenanceJson(report).Dump());
  EmitEvent(Severity::kInfo, "run_report", "run_start",
            {{"citation", report.citation},
             {"method", report.method},
             {"seed", std::to_string(report.seed)}});

  const std::vector<CounterSnapshot> before = SnapshotCounters();
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
  report.counter_deltas = CounterDeltas(before);

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
  Json doc = ProvenanceJson(*this);
  Json& deltas = doc["counter_deltas"];
  for (const CounterSnapshot& c : counter_deltas) deltas[c.name] = c.value;
  doc["fairness_telemetry"] = Json::Raw(fairness_telemetry);
  doc["stages"] = Json::Raw(StagesToJson(stages));
  doc["summary"] = summary;
  doc["wall_ms"] = Json::Fixed(wall_ms, 3);
  return doc.Dump();
}

}  // namespace xfair::obs
