// Shared pieces of the end-to-end benchmark: timing statistics, the
// in-memory span log of the traced run, the counting model wrapper, and
// the run result every workload fills in.

#ifndef XFAIR_PERFBENCH_BENCH_H_
#define XFAIR_PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/model/model.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolation quantile (q in [0, 1]) of unsorted samples.
double Quantile(std::vector<double> v, double q);

/// Median, quartiles and sample count of one timing.
struct Summary {
  double median = 0.0, q1 = 0.0, q3 = 0.0;
  size_t n = 0;
};
Summary Summarize(const std::vector<double>& v);

/// One printed metric. Timings carry the summary of their samples; the
/// reported value is always the median (or a ratio of medians).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool has_summary = false;
  Summary summary;
};

/// What one run reports: the metrics plus the output-check tally.
struct RunResult {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< First few failed-check messages.

  void Add(const std::string& name, double value, const std::string& unit);
  /// Adds a timing metric: value = median of `samples` times `scale`.
  void AddTiming(const std::string& name, const std::vector<double>& samples,
                 const std::string& unit, double scale = 1.0);
  /// Counts `attempted` operations, `failed` of them failed, and keeps
  /// the check messages.
  void Count(uint64_t attempted, uint64_t failed,
             const std::vector<std::string>& messages);
  /// Counts one operation, failed when any check message is present.
  void Tally(const std::vector<std::string>& check_failures) {
    Count(1, check_failures.empty() ? 0 : 1, check_failures);
  }
};

/// Set-up runs this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 5;

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< Scratch files (CSV inputs, span dumps).
};

/// Peak resident set size of this process in MB.
double PeakRssMb();

/// In-memory span log of the traced run: one record per stage call.
class SpanLog {
 public:
  struct Record {
    std::string name;
    double start_us = 0.0, end_us = 0.0;
    int parent = -1;  ///< Index of the enclosing span, -1 for a root.
  };

  /// Opens a span under the innermost open span; returns its index.
  int Open(const std::string& name);
  /// Closes span `id` and returns its duration in ms.
  double Close(int id);

  const std::vector<Record>& records() const { return records_; }
  /// Writes the spans as a JSON array to `path`; false on I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Record> records_;
  std::vector<int> open_;
};

/// Forwards every scoring entry point to the wrapped model and counts
/// rows and calls. Thread-safe: the counterfactual search scores from
/// pool workers.
class CountingModel final : public xfair::Model {
 public:
  explicit CountingModel(const xfair::Model& inner) : inner_(inner) {
    threshold_ = inner.threshold();
  }

  double PredictProba(const xfair::Vector& x) const override {
    Count(1);
    return inner_.PredictProba(x);
  }
  int Predict(const xfair::Vector& x) const override {
    Count(1);
    return inner_.Predict(x);
  }
  xfair::Vector PredictProbaBatch(const xfair::Matrix& x) const override {
    Count(x.rows());
    return inner_.PredictProbaBatch(x);
  }
  std::vector<int> PredictBatch(const xfair::Matrix& x) const override {
    Count(x.rows());
    return inner_.PredictBatch(x);
  }
  std::string name() const override { return inner_.name(); }

  uint64_t rows() const { return rows_.load(std::memory_order_relaxed); }
  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  void Count(size_t rows) const {
    rows_.fetch_add(rows, std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
  }

  const xfair::Model& inner_;
  mutable std::atomic<uint64_t> rows_{0};
  mutable std::atomic<uint64_t> calls_{0};
};

/// The model families the workloads fit.
enum class ModelKind { kLogistic, kGbm };

/// Fits a fresh model of `kind` on `data`; null (and `error` set) when
/// the fit fails.
std::unique_ptr<xfair::Model> FitModel(ModelKind kind,
                                       const xfair::Dataset& data,
                                       std::string* error);

/// The audit half of a workload: CreditGen rows (score_shift 1.0) run
/// through the audit_cli pipeline with one model family.
struct AuditSpec {
  size_t rows = 0;
  ModelKind model = ModelKind::kLogistic;
  size_t threads = 2;  ///< Worker pool size of the timed audits.
};

/// A prepared audit: the CSV on disk, its rows, and the reference report
/// of the first (pool-size-1) audit.
struct AuditFixture {
  std::string csv;
  xfair::Dataset data;
  std::string reference;
  /// Set-up samples: each input generation plus the one warm-up audit.
  std::vector<double> setup_s;
};

/// Writes the audit CSV (several times) and runs the warm-up audit at
/// pool size 1. False, with the failure tallied, when
/// either fails.
bool PrepareAudit(const AuditSpec& spec, const Options& options,
                  RunResult* result, AuditFixture* fixture);

/// Runs an audit workload: whole audits for the end-to-end metrics, or,
/// traced, the audit and scoring layer metrics.
void RunAuditWorkload(const AuditSpec& spec, const Options& options,
                      RunResult* result);

/// Alternates untraced audits with traced ones (one span per stage) for
/// about `budget_s` seconds, then runs burden and FACTS through the
/// counting wrapper; appends the audit layer metrics.
void TraceAuditLayers(const AuditSpec& spec, const AuditFixture& fixture,
                      const Options& options, double budget_s,
                      RunResult* result);

/// Runs the monitored prediction stream workload.
void RunStreamWorkload(const Options& options, RunResult* result);

/// One scoring batch: rows plus the group and label arrays the monitor
/// joins against the batch's scores.
struct Batch {
  xfair::Matrix x;
  std::vector<int> groups, labels;
};

/// Rows per scoring batch.
inline constexpr size_t kBatchRows = 64;

/// Cuts `count` 64-row batches from `data`, starting at row `begin`.
std::vector<Batch> MakeBatches(const xfair::Dataset& data, size_t begin,
                               size_t count);

/// A monitored scoring stream: one pass scores every batch in order.
struct ScoringFixture {
  const xfair::Model* model = nullptr;
  std::vector<Batch> batches;
  /// The rows of the last monitor window of a pass, for the offline
  /// demographic-parity check.
  xfair::Dataset last_window;
};

/// The monitor-window rows of `source` that end at row `end`.
xfair::Dataset LastWindow(const xfair::Dataset& source, size_t end);

/// Scores passes of `fixture` for about `budget_s` seconds, timing the
/// predict, monitor ingest, drain and scrape layers on their own, and
/// appends their metrics plus the monitor and recorder counts.
void TraceScoringLayers(const ScoringFixture& fixture, double budget_s,
                        RunResult* result);

}  // namespace perfbench

#endif  // XFAIR_PERFBENCH_BENCH_H_
