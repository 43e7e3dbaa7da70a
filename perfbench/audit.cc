// The audit workloads: the examples/audit_cli.cpp pipeline
// (InferSchemaFromCsv + ReadCsv -> Fit -> WriteAuditReport), timed whole
// in the untraced run and stage by stage in the traced run.

#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>

#include "perfbench/bench.h"
#include "src/core/report.h"
#include "src/data/csv.h"
#include "src/data/generators.h"
#include "src/fairness/group_metrics.h"
#include "src/fairness/tradeoff.h"
#include "src/obs/counters.h"
#include "src/unfair/burden.h"
#include "src/unfair/facts.h"
#include "src/unfair/fairness_shap.h"
#include "src/util/parallel.h"
#include "src/util/table.h"

namespace perfbench {
namespace {

using xfair::Dataset;
using xfair::Model;

constexpr const char* kSections[] = {
    "## Group fairness", "## Counterfactual burden",
    "## Parity-gap contributors", "## Recourse-bias subgroups",
    "## Utility / fairness / explainability tradeoff"};

// The audit stages in WriteAuditReport's order, with the span name each
// gets in the traced run.
constexpr const char* kReadSpan = "data.read_csv";
constexpr const char* kFitSpan = "model.fit";
constexpr const char* kStageSpans[] = {
    "fairness.group_metrics", "unfair.burden", "unfair.fairness_shap",
    "unfair.facts", "fairness.tradeoff"};

/// A loaded and fitted audit subject.
struct Subject {
  Dataset data;
  std::unique_ptr<Model> model;
};

/// The audit_cli front half: schema inference + CSV read, then fit.
/// Opens the data.read_csv and model.fit spans when `log` is non-null.
bool LoadAndFit(const std::string& csv, ModelKind kind, SpanLog* log,
                Subject* out, std::string* error) {
  const int read_span = log ? log->Open(kReadSpan) : -1;
  auto schema = xfair::InferSchemaFromCsv(csv);
  if (!schema.ok()) {
    *error = "schema inference failed: " + schema.status().ToString();
    return false;
  }
  auto data = xfair::ReadCsv(*schema, csv);
  if (!data.ok()) {
    *error = "read failed: " + data.status().ToString();
    return false;
  }
  out->data = std::move(data).value();
  if (log) log->Close(read_span);
  const int fit_span = log ? log->Open(kFitSpan) : -1;
  out->model = FitModel(kind, out->data, error);
  if (log) log->Close(fit_span);
  return out->model != nullptr;
}

/// One full untraced audit; the report, or empty with `error` set.
std::string FullAudit(const std::string& csv, ModelKind kind,
                      std::string* error) {
  Subject s;
  if (!LoadAndFit(csv, kind, nullptr, &s, error)) return "";
  return xfair::WriteAuditReport(*s.model, s.data);
}

std::vector<std::string> CheckSections(const std::string& report) {
  std::vector<std::string> failures;
  for (const char* section : kSections) {
    if (report.find(section) == std::string::npos)
      failures.push_back(std::string("report lacks section '") + section +
                         "'");
  }
  return failures;
}

std::vector<std::string> CheckReport(const std::string& report,
                                     const std::string& reference) {
  std::vector<std::string> failures = CheckSections(report);
  if (report != reference)
    failures.push_back("report differs from the pool-size-1 reference");
  return failures;
}

/// The outputs of the five audit stages.
struct Stages {
  xfair::GroupFairnessReport group;
  xfair::BurdenReport burden;
  xfair::FairnessShapReport shap;
  xfair::FactsReport facts;
  xfair::TradeoffScore tradeoff;
  uint64_t cf_samples = 0;  ///< cf/samples_evaluated delta over burden.
};

uint64_t CounterValue(const std::string& name) {
  for (const auto& c : xfair::obs::SnapshotCounters())
    if (c.name == name) return c.value;
  return 0;
}

xfair::BurdenReport Burden(const Model& model, const Dataset& data) {
  xfair::Rng rng(xfair::AuditReportOptions{}.seed);
  return xfair::ComputeBurden(model, data, xfair::BurdenScope::kAllNegatives,
                              {}, &rng);
}

xfair::FactsReport Facts(const Model& model, const Dataset& data) {
  xfair::FactsOptions facts_opts;
  facts_opts.top_k = xfair::AuditReportOptions{}.top_subgroups;
  return xfair::RunFacts(model, data, facts_opts);
}

/// Calls the audit's public stage functions in WriteAuditReport's order
/// and with its options, one span each when `log` is non-null.
Stages RunStages(const Model& model, const Dataset& data, SpanLog* log) {
  Stages s;
  auto stage = [log](size_t i, const auto& call) {
    const int id = log ? log->Open(kStageSpans[i]) : -1;
    call();
    if (log) log->Close(id);
  };
  stage(0, [&] { s.group = xfair::EvaluateGroupFairness(model, data); });
  const uint64_t samples_before = CounterValue("cf/samples_evaluated");
  stage(1, [&] { s.burden = Burden(model, data); });
  s.cf_samples = CounterValue("cf/samples_evaluated") - samples_before;
  stage(2, [&] {
    xfair::FairnessShapOptions shap_opts;
    shap_opts.seed = xfair::AuditReportOptions{}.seed;
    std::vector<size_t> all(data.size());
    std::iota(all.begin(), all.end(), size_t{0});
    s.shap = xfair::FairnessShapBatch(model, data, all, shap_opts);
  });
  stage(3, [&] { s.facts = Facts(model, data); });
  stage(4, [&] { s.tradeoff = xfair::EvaluateTradeoff(model, data); });
  return s;
}

size_t DeniedRows(const Model& model, const Dataset& data) {
  size_t denied = 0;
  for (int p : model.PredictAll(data)) denied += p == 0 ? 1 : 0;
  return denied;
}

/// Output checks on the stage results: the planted bias has the right
/// sign, fairness-SHAP is efficient, every denied row got a burden
/// search, and the untraced report shows the same stage outputs.
std::vector<std::string> CheckStages(const Stages& s, size_t denied,
                                     const std::string& report) {
  std::vector<std::string> failures;
  if (!(s.group.statistical_parity_difference > 0.0))
    failures.push_back("statistical parity difference is not > 0");
  if (!(s.burden.burden_gap > 0.0))
    failures.push_back("burden gap is not > 0");
  double sum = 0.0;
  for (double c : s.shap.contributions) sum += c;
  if (!(std::fabs(sum - (s.shap.full_gap - s.shap.baseline_gap)) <= 1e-9))
    failures.push_back("fairness-SHAP contributions do not sum to the gap");
  if (s.burden.counterfactuals_protected +
          s.burden.counterfactuals_non_protected + s.burden.failures !=
      denied)
    failures.push_back("burden counterfactuals + failures != denied rows");
  std::vector<std::string> shown = {
      s.group.ToString(), xfair::FormatDouble(s.burden.burden_gap),
      xfair::FormatDouble(s.tradeoff.combined)};
  if (!s.shap.ranked_features.empty())
    shown.push_back(s.shap.feature_names[s.shap.ranked_features[0]]);
  if (!s.facts.ranked_subgroups.empty())
    shown.push_back(s.facts.ranked_subgroups[0].description);
  for (const std::string& text : shown) {
    if (report.find(text) == std::string::npos)
      failures.push_back("stage output '" + text + "' missing from report");
  }
  return failures;
}

bool SameBurden(const xfair::BurdenReport& a, const xfair::BurdenReport& b) {
  return a.burden_protected == b.burden_protected &&
         a.burden_non_protected == b.burden_non_protected &&
         a.burden_gap == b.burden_gap &&
         a.counterfactuals_protected == b.counterfactuals_protected &&
         a.counterfactuals_non_protected == b.counterfactuals_non_protected &&
         a.failures == b.failures;
}

bool SameFacts(const xfair::FactsReport& a, const xfair::FactsReport& b) {
  if (a.subgroups_examined != b.subgroups_examined ||
      a.overall_effectiveness_gap != b.overall_effectiveness_gap ||
      a.overall_choice_gap != b.overall_choice_gap ||
      a.ranked_subgroups.size() != b.ranked_subgroups.size())
    return false;
  for (size_t i = 0; i < a.ranked_subgroups.size(); ++i) {
    if (a.ranked_subgroups[i].description !=
            b.ranked_subgroups[i].description ||
        a.ranked_subgroups[i].unfairness != b.ranked_subgroups[i].unfairness)
      return false;
  }
  return true;
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

}  // namespace

bool PrepareAudit(const AuditSpec& spec, const Options& options,
                  RunResult* result, AuditFixture* fixture) {
  fixture->csv = options.out_dir + "/audit-" + std::to_string(spec.rows) +
                 "-" + std::to_string(options.seed) + ".csv";
  xfair::BiasConfig bias;
  bias.score_shift = 1.0;
  std::vector<double> generate_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const auto start = Clock::now();
    fixture->data = xfair::CreditGen(bias).Generate(spec.rows, options.seed);
    const xfair::Status st = xfair::WriteCsv(fixture->data, fixture->csv);
    generate_s.push_back(SecondsSince(start));
    if (!st.ok()) {
      result->Tally({"cannot write the audit CSV: " + st.ToString()});
      return false;
    }
  }
  // The first audit of the process runs at pool size 1: it is the warm-up
  // and gives the reference report every later audit must reproduce. It
  // runs once, so each set-up sample is one generation plus the warm-up.
  xfair::SetParallelThreads(1);
  const auto start = Clock::now();
  std::string error;
  fixture->reference = FullAudit(fixture->csv, spec.model, &error);
  const double warmup_s = SecondsSince(start);
  for (double g : generate_s) fixture->setup_s.push_back(g + warmup_s);
  xfair::SetParallelThreads(spec.threads);
  if (!error.empty()) {
    result->Tally({error});
    return false;
  }
  result->Tally(CheckSections(fixture->reference));
  return true;
}

void RunAuditWorkload(const AuditSpec& spec, const Options& options,
                      RunResult* result) {
  AuditFixture fixture;
  if (!PrepareAudit(spec, options, result, &fixture)) return;
  if (options.trace) {
    TraceAuditLayers(spec, fixture, options, 0.6 * options.seconds, result);
    std::string error;
    const auto model = FitModel(spec.model, fixture.data, &error);
    if (!model) {
      result->Tally({error});
      return;
    }
    const size_t batches = spec.rows / kBatchRows;
    const ScoringFixture scoring{
        model.get(), MakeBatches(fixture.data, 0, batches),
        LastWindow(fixture.data, batches * kBatchRows)};
    TraceScoringLayers(scoring, 0.4 * options.seconds, result);
    std::remove(fixture.csv.c_str());
    return;
  }

  // Timed window: whole audits, closed loop, until the time is up.
  std::vector<double> audit_ms;
  const auto window = Clock::now();
  while (audit_ms.size() < 3 || SecondsSince(window) < options.seconds) {
    std::string error;
    const auto start = Clock::now();
    const std::string report = FullAudit(fixture.csv, spec.model, &error);
    audit_ms.push_back(SecondsSince(start) * 1000.0);
    result->Tally(error.empty() ? CheckReport(report, fixture.reference)
                                : std::vector<std::string>{error});
  }

  // Untimed: the stage outputs behind the report, checked.
  Subject s;
  std::string error;
  if (LoadAndFit(fixture.csv, spec.model, nullptr, &s, &error)) {
    const Stages stages = RunStages(*s.model, s.data, nullptr);
    result->Tally(
        CheckStages(stages, DeniedRows(*s.model, s.data), fixture.reference));
  } else {
    result->Tally({error});
  }
  std::remove(fixture.csv.c_str());

  // A run holds only about ten audits, too few for a tail percentile, so
  // the audits report their median only.
  result->AddTiming("setup_s", fixture.setup_s, "s");
  result->AddTiming("audit_s", audit_ms, "s", 1e-3);
  result->Add("audit_rows_per_s",
              static_cast<double>(spec.rows) / Median(audit_ms) * 1e3, "1/s");
  result->Add("peak_rss_mb", PeakRssMb(), "MB");
}

void TraceAuditLayers(const AuditSpec& spec, const AuditFixture& fixture,
                      const Options& options, double budget_s,
                      RunResult* result) {
  SpanLog log;
  std::vector<double> untraced_ms, traced_ms;
  Subject last;
  Stages last_stages;
  const auto window = Clock::now();
  while (traced_ms.empty() || SecondsSince(window) < budget_s) {
    std::string error;
    auto start = Clock::now();
    const std::string report = FullAudit(fixture.csv, spec.model, &error);
    untraced_ms.push_back(SecondsSince(start) * 1000.0);
    if (!error.empty()) {
      result->Tally({error});
      return;
    }
    result->Tally(CheckReport(report, fixture.reference));

    const int root = log.Open("audit");
    if (!LoadAndFit(fixture.csv, spec.model, &log, &last, &error)) {
      result->Tally({error});
      return;
    }
    last_stages = RunStages(*last.model, last.data, &log);
    traced_ms.push_back(log.Close(root));
    result->Tally(CheckStages(last_stages, DeniedRows(*last.model, last.data),
                              fixture.reference));
  }

  // Counting pass: burden and FACTS through the wrapper must reproduce
  // the unwrapped results of the last traced audit bit for bit.
  CountingModel counted(*last.model);
  const xfair::BurdenReport burden = Burden(counted, last.data);
  const xfair::FactsReport facts = Facts(counted, last.data);
  std::vector<std::string> failures;
  if (!SameBurden(burden, last_stages.burden))
    failures.push_back("burden through the counting wrapper differs");
  if (!SameFacts(facts, last_stages.facts))
    failures.push_back("FACTS through the counting wrapper differs");
  result->Tally(failures);

  std::map<std::string, std::vector<double>> stage_ms;
  for (const SpanLog::Record& r : log.records())
    stage_ms[r.name].push_back((r.end_us - r.start_us) / 1000.0);
  double attributed = 0.0;
  auto add_stage = [&](const char* span) {
    attributed += Median(stage_ms[span]);
    result->AddTiming(std::string(span) + "_ms", stage_ms[span], "ms");
  };
  add_stage(kReadSpan);
  add_stage(kFitSpan);
  for (const char* span : kStageSpans) add_stage(span);
  result->Add("core.unattributed_ms", Median(untraced_ms) - attributed, "ms");
  result->Add("core.tracing_overhead_pct",
              (Median(traced_ms) / Median(untraced_ms) - 1.0) * 100.0, "%");

  const double searches = static_cast<double>(
      burden.counterfactuals_protected +
      burden.counterfactuals_non_protected + burden.failures);
  result->Add("model.rows_scored", static_cast<double>(counted.rows()),
              "count");
  result->Add("model.predict_calls", static_cast<double>(counted.calls()),
              "count");
  result->Add("model.rows_per_call",
              static_cast<double>(counted.rows()) /
                  static_cast<double>(std::max<uint64_t>(1, counted.calls())),
              "rows/call");
  result->Add("unfair.burden.searches", searches, "count");
  result->Add("unfair.burden.failures",
              static_cast<double>(burden.failures), "count");
  result->Add("explain.cf.samples_per_search",
              static_cast<double>(last_stages.cf_samples) /
                  std::max(1.0, searches),
              "samples/search");
  result->Add("unfair.facts.subgroups_examined",
              static_cast<double>(facts.subgroups_examined), "count");

  const std::string spans_path = options.out_dir + "/spans-" +
                                 options.workload + "-" +
                                 std::to_string(options.seed) + ".json";
  if (log.WriteJson(spans_path))
    std::fprintf(stderr, "spans written to %s\n", spans_path.c_str());
}

}  // namespace perfbench
