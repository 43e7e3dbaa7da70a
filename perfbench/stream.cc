// The monitored prediction stream: 64-event scoring batches through a
// model with the fairness monitor, flight recorder and event log live, a
// drain after every batch and a scrape every 256 batches.

#include <cmath>
#include <cstdio>
#include <optional>

#include "perfbench/bench.h"
#include "src/data/generators.h"
#include "src/fairness/group_metrics.h"
#include "src/obs/obs.h"
#include "src/util/parallel.h"

namespace perfbench {
namespace {

namespace obs = xfair::obs;

constexpr size_t kWindow = 512;        // Monitor sliding window (events).
constexpr size_t kScrapeEvery = 256;   // Batches between scrapes.
constexpr size_t kWorldEvents = 32768; // Events before the world flips.

obs::MonitorOptions MonitorOpts() {
  obs::MonitorOptions opts;
  opts.window = kWindow;
  return opts;
}

/// Keeps the scored and scraped outputs observable.
volatile size_t g_sink = 0;

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Timings of the passes so far. The untraced pass times whole batches
/// and keeps each pass's median and p99; the traced pass times each layer
/// of a batch on its own.
struct PassTimes {
  std::vector<double> batch_us;  ///< The current pass's batches.
  std::vector<double> pass_p50_us, pass_p99_us;
  std::vector<double> predict_off_us, ingest_us, drain_us, scrape_ms;
  double seconds = 0.0;  ///< Wall time of the last pass.
  size_t batches = 0;    ///< Batches scored so far; sets the scrape cadence.
};

/// Scores every batch of `f` once through a freshly reset `monitor` and
/// checks the pass. `reference` holds the first pass's alarm seqs (unset
/// before the first pass, which sets it).
void RunPass(obs::FairnessMonitor& monitor, const ScoringFixture& f,
             bool traced, std::optional<std::vector<uint64_t>>* reference,
             PassTimes* times, RunResult* result) {
  monitor.Reset();
  uint64_t failed_events = 0;
  std::vector<std::string> failures;
  const auto pass_start = Clock::now();
  for (size_t b = 0; b < f.batches.size(); ++b) {
    const Batch& batch = f.batches[b];
    auto start = Clock::now();
    if (traced) {
      // Score with the hook off, then run the hook's ingest on the same
      // scores, so each layer is timed on its own.
      obs::SetMonitoringEnabled(false);
      const xfair::Vector scores = f.model->PredictProbaBatch(batch.x);
      const auto scored = Clock::now();
      times->predict_off_us.push_back(MicrosBetween(start, scored));
      obs::SetMonitoringEnabled(true);
      obs::ScopedStreamContext stream(&monitor, batch.groups.data(),
                                      batch.labels.data(), kBatchRows);
      start = Clock::now();
      obs::MonitorPredictionBatch(scores.data(), kBatchRows,
                                  f.model->threshold());
    } else {
      obs::ScopedStreamContext stream(&monitor, batch.groups.data(),
                                      batch.labels.data(), kBatchRows);
      g_sink = g_sink + f.model->PredictProbaBatch(batch.x).size();
    }
    const auto scored = Clock::now();
    if (monitor.Drain() != kBatchRows) failed_events += kBatchRows;
    const auto drained = Clock::now();
    if (++times->batches % kScrapeEvery == 0) {
      const obs::WindowedMetrics wm = monitor.Windowed();
      g_sink = g_sink + obs::RenderPrometheusText().size() + wm.events;
      if (traced)
        times->scrape_ms.push_back(MicrosBetween(drained, Clock::now()) /
                                   1000.0);
    }
    if (traced) {
      times->ingest_us.push_back(MicrosBetween(start, scored));
      times->drain_us.push_back(MicrosBetween(scored, drained));
    } else {
      times->batch_us.push_back(MicrosBetween(start, Clock::now()));
    }
  }
  times->seconds = SecondsSince(pass_start);
  if (!traced) {
    times->pass_p50_us.push_back(Quantile(times->batch_us, 0.5));
    times->pass_p99_us.push_back(Quantile(times->batch_us, 0.99));
    times->batch_us.clear();
  }

  const uint64_t sent = f.batches.size() * kBatchRows;
  if (failed_events > 0) failures.push_back("a drain missed batch events");
  if (monitor.events_processed() != sent)
    failures.push_back("events processed != events sent");
  if (monitor.events_dropped() != 0) failures.push_back("events dropped");
  const double offline =
      xfair::StatisticalParityDifference(*f.model, f.last_window);
  if (!(std::fabs(monitor.Windowed().demographic_parity_diff - offline) <=
        1e-12))
    failures.push_back("windowed DP difference != offline on last window");
  std::vector<uint64_t> seqs;
  for (const obs::DriftAlarm& a : monitor.alarms()) seqs.push_back(a.seq);
  if (!reference->has_value()) {
    *reference = seqs;
  } else if (seqs != *reference) {
    failures.push_back("alarm seqs differ from the first pass");
  }
  if (!failures.empty()) failed_events = sent;
  result->Count(sent, failed_events, failures);
}

/// The stream workload's inputs: a model fitted on 1,200 rows of the
/// unbiased world, and one pass of batches: kWorldEvents events of the
/// unbiased world, then kWorldEvents of the shifted one. Consecutive
/// passes therefore alternate between the worlds every kWorldEvents.
struct StreamInputs {
  std::unique_ptr<xfair::Model> model;
  ScoringFixture fixture;
};

bool MakeStreamInputs(uint64_t seed, StreamInputs* in, std::string* error) {
  xfair::BiasConfig pre;  // The world of examples/monitor_stream.cpp.
  pre.score_shift = 0.0;
  pre.label_bias = 0.0;
  pre.proxy_strength = 0.0;
  pre.qualification_gap = 0.0;
  xfair::BiasConfig post = pre;
  post.score_shift = 1.2;
  post.qualification_gap = 1.5;
  post.proxy_strength = 0.8;
  post.label_bias = 0.15;
  const xfair::Dataset train = xfair::CreditGen(pre).Generate(1200, seed);
  const xfair::Dataset pre_world =
      xfair::CreditGen(pre).Generate(kWorldEvents, seed + 1);
  const xfair::Dataset post_world =
      xfair::CreditGen(post).Generate(kWorldEvents, seed + 2);
  in->model = FitModel(ModelKind::kLogistic, train, error);
  if (!in->model) return false;
  ScoringFixture& f = in->fixture;
  f.model = in->model.get();
  f.batches = MakeBatches(pre_world, 0, kWorldEvents / kBatchRows);
  std::vector<Batch> shifted =
      MakeBatches(post_world, 0, kWorldEvents / kBatchRows);
  f.batches.insert(f.batches.end(), std::make_move_iterator(shifted.begin()),
                   std::make_move_iterator(shifted.end()));
  f.last_window = LastWindow(post_world, kWorldEvents);
  return true;
}

/// Monitoring, the flight recorder and the event log all on; no bundle
/// dump, so no disk I/O enters the loop.
void ArmObservability() {
  obs::SetMonitoringEnabled(true);
  obs::SetRecorderEnabled(true);
  obs::SetEventLogEnabled(true);
}

}  // namespace

xfair::Dataset LastWindow(const xfair::Dataset& source, size_t end) {
  std::vector<size_t> rows;
  for (size_t i = end - kWindow; i < end; ++i) rows.push_back(i);
  return source.Subset(rows);
}

void TraceScoringLayers(const ScoringFixture& fixture, double budget_s,
                        RunResult* result) {
  const size_t threads = xfair::ParallelThreads();
  xfair::SetParallelThreads(1);  // One producer thread.
  ArmObservability();
  obs::ResetRecorder();
  obs::FairnessMonitor& monitor =
      obs::GetMonitor("perfbench/layers", MonitorOpts());
  std::optional<std::vector<uint64_t>> reference;
  PassTimes times;
  const auto window = Clock::now();
  while (times.ingest_us.empty() || SecondsSince(window) < budget_s ||
         times.scrape_ms.size() < 4) {
    RunPass(monitor, fixture, /*traced=*/true, &reference, &times, result);
  }
  xfair::SetParallelThreads(threads);

  result->AddTiming("model.predict_batch_us", times.predict_off_us, "us");
  result->AddTiming("obs.monitor.ingest_us", times.ingest_us, "us");
  result->AddTiming("obs.monitor.drain_us", times.drain_us, "us");
  result->AddTiming("obs.monitor.scrape_ms", times.scrape_ms, "ms");
  result->Add("obs.monitor.events_processed",
              static_cast<double>(monitor.events_processed()), "count");
  result->Add("obs.monitor.events_dropped",
              static_cast<double>(monitor.events_dropped()), "count");
  result->Add("obs.monitor.alarms",
              static_cast<double>(monitor.alarms().size()), "count");
  result->Add("obs.recorder.spans_dropped",
              static_cast<double>(obs::FlightSpansDropped()), "count");
}

void RunStreamWorkload(const Options& options, RunResult* result) {
  if (options.trace) {
    // The audit layers of the stream's traced run: the audit_cli demo
    // audit (1,200 CreditGen rows, logistic regression).
    const AuditSpec spec{1200, ModelKind::kLogistic, 1};
    AuditFixture audit;
    if (!PrepareAudit(spec, options, result, &audit)) return;
    TraceAuditLayers(spec, audit, options, 0.5 * options.seconds, result);
    std::remove(audit.csv.c_str());
  }

  xfair::SetParallelThreads(1);  // One producer thread.
  ArmObservability();
  obs::FairnessMonitor& monitor =
      obs::GetMonitor("perfbench/stream", MonitorOpts());

  // Set-up, repeated: inputs, model fit, and one warm-up pass (buffer
  // growth, first-touch) whose alarms are the reference for later passes.
  StreamInputs in;
  std::optional<std::vector<uint64_t>> reference;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const auto start = Clock::now();
    std::string error;
    if (!MakeStreamInputs(options.seed, &in, &error)) {
      result->Tally({error});
      return;
    }
    PassTimes warmup;
    RunPass(monitor, in.fixture, /*traced=*/false, &reference, &warmup,
            result);
    setup_s.push_back(SecondsSince(start));
  }

  if (options.trace) {
    TraceScoringLayers(in.fixture, 0.5 * options.seconds, result);
    return;
  }

  PassTimes times;
  std::vector<double> events_per_s;
  const auto window = Clock::now();
  while (events_per_s.size() < 3 || SecondsSince(window) < options.seconds) {
    RunPass(monitor, in.fixture, /*traced=*/false, &reference, &times,
            result);
    events_per_s.push_back(
        static_cast<double>(in.fixture.batches.size() * kBatchRows) /
        times.seconds);
  }

  result->AddTiming("setup_s", setup_s, "s");
  result->AddTiming("stream_events_per_s", events_per_s, "1/s");
  result->AddTiming("stream_batch_p50_us", times.pass_p50_us, "us");
  result->AddTiming("stream_batch_p99_us", times.pass_p99_us, "us");
  result->Add("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
