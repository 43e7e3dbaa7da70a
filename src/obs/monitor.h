// Streaming fairness monitor: sliding-window group metrics and drift
// alarms over a live prediction stream.
//
// A FairnessMonitor ingests `(prediction, score, label?, group)` events
// and maintains three views of the stream:
//
//   * cumulative per-group online aggregates — event/positive counts,
//     label-conditioned confusion counts (TPR/FPR once labels arrive),
//     and Welford mean/variance of the score;
//   * a ring-buffer sliding window of the last `window` events, from
//     which the windowed group metrics (demographic-parity difference,
//     equalized-odds difference, calibration gap) are derived on demand:
//     a scan fills `fairness/group_metrics`' per-group counts and calls
//     the same DeriveGroupFairness as the offline report, single-group
//     sentinels included (differences 0, calibration 0);
//   * Page-Hinkley and CUSUM change detectors over each windowed gap,
//     which append DriftAlarm records when a gap drifts from its running
//     mean.
//
// Ingestion is lock-free on the hot path: each thread appends to its own
// shard of the monitor's PerThreadLog (per_thread_log.h), and Drain() —
// which must not race with ingestion, the FlushSpans contract — drains
// the log and processes events in ascending `seq` order. Because the
// processed order is a function of the caller-assigned sequence numbers
// only, every derived quantity (window contents, aggregates, detector
// state, alarm steps) is deterministic and independent of thread count
// or ingestion interleaving.
//
// Model wiring: the batched PredictProbaBatch paths call
// XFAIR_MONITOR_PREDICTIONS after scores are final. The hook is inert
// (one relaxed load) unless monitoring is enabled *and* the calling
// thread installed a ScopedStreamContext whose group/label arrays match
// the batch row count — that is how group membership, which models never
// see, joins the event stream without widening the Model API.
//
// Under -DXFAIR_OBS=OFF the macros compile to nothing and every method
// of the monitor compiles to an empty no-op (Ingest drops, Drain returns
// 0, snapshots render empty), so the whole layer disappears from
// opted-out builds while still linking.

#ifndef XFAIR_OBS_MONITOR_H_
#define XFAIR_OBS_MONITOR_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/per_thread_log.h"

namespace xfair::obs {

/// True when the build compiles monitoring in (XFAIR_OBS=ON).
constexpr bool MonitoringCompiledIn() {
#ifdef XFAIR_OBS_DISABLED
  return false;
#else
  return true;
#endif
}

/// One prediction event. `seq` is the event's position in the logical
/// stream and is assigned by the producer (ReserveSeq for batch hooks):
/// processing order, and therefore every alarm, is a function of `seq`
/// alone, never of ingestion interleaving.
struct MonitorEvent {
  uint64_t seq = 0;
  double score = 0.0;  ///< P(y=1 | x) in [0, 1].
  int prediction = 0;  ///< Hard decision, 0 or 1.
  int label = -1;      ///< Ground truth when known; -1 = unlabeled.
  int group = 0;       ///< Protected-group id (0 = G-, 1 = G+).
};

/// Options for FairnessMonitor.
struct MonitorOptions {
  /// Sliding-window capacity in events.
  size_t window = 512;
};

/// Cumulative (whole-stream) per-group aggregate.
struct GroupAggregate {
  uint64_t events = 0;
  uint64_t predicted_positive = 0;
  uint64_t labeled = 0;
  uint64_t tp = 0, fp = 0, tn = 0, fn = 0;
  double score_mean = 0.0;  ///< Welford running mean of the score.
  double score_m2 = 0.0;    ///< Welford sum of squared deviations.

  double positive_rate() const {
    return events == 0 ? 0.0
                       : static_cast<double>(predicted_positive) /
                             static_cast<double>(events);
  }
  /// TPR over labeled events; 0 with no labeled positives (PR 3
  /// sentinel convention).
  double tpr() const {
    const uint64_t pos = tp + fn;
    return pos == 0 ? 0.0
                    : static_cast<double>(tp) / static_cast<double>(pos);
  }
  /// FPR over labeled events; 0 with no labeled negatives.
  double fpr() const {
    const uint64_t neg = fp + tn;
    return neg == 0 ? 0.0
                    : static_cast<double>(fp) / static_cast<double>(neg);
  }
  /// Sample variance of the score; 0 with fewer than two events.
  double score_variance() const {
    return events < 2 ? 0.0
                      : score_m2 / static_cast<double>(events - 1);
  }
};

/// Windowed group metrics, derived on demand from the ring contents by
/// the offline DeriveGroupFairness (fairness/group_metrics.h). Parity
/// counts every event; the equalized-odds difference and the calibration
/// gap count labeled events only.
struct WindowedMetrics {
  size_t events = 0;   ///< Events currently in the window.
  size_t labeled = 0;  ///< Of those, how many carry labels.
  uint64_t first_seq = 0, last_seq = 0;
  bool single_group = true;  ///< Sentinels applied (a group is absent).
  double demographic_parity_diff = 0.0;  ///< posrate(G-) - posrate(G+).
  double equalized_odds_diff = 0.0;      ///< max(|TPR gap|, |FPR gap|).
  double calibration_gap = 0.0;          ///< |ECE(G+) - ECE(G-)|.
};

/// One drift alarm. `seq` is the sequence number of the event whose
/// processing crossed the detector threshold.
struct DriftAlarm {
  std::string metric;    ///< "demographic_parity" | "equalized_odds" |
                         ///< "calibration".
  std::string detector;  ///< "page_hinkley" | "cusum".
  uint64_t seq = 0;
  double value = 0.0;      ///< The windowed gap at alarm time.
  double statistic = 0.0;  ///< Detector statistic that crossed.
};

namespace detail {

/// Two-sided Page-Hinkley over a scalar series: accumulates deviations
/// from the running mean and fires when the cumulative deviation escapes
/// its historical extremum by more than lambda.
struct PageHinkleyState {
  uint64_t n = 0;
  double mean = 0.0;
  double inc = 0.0, inc_min = 0.0;  ///< Rising-change accumulator.
  double dec = 0.0, dec_max = 0.0;  ///< Falling-change accumulator.

  /// Folds in x; returns the crossing statistic (> 0) on alarm, else 0.
  /// The caller resets the state after an alarm.
  double Update(double x, double delta, double lambda);
};

/// Two-sided CUSUM against the series' running mean.
struct CusumState {
  uint64_t n = 0;
  double mean = 0.0;
  double pos = 0.0, neg = 0.0;

  double Update(double x, double k, double h);
};

}  // namespace detail

/// Streaming fairness monitor. Thread-safe ingestion, single-threaded
/// drain/query (the FlushSpans contract: drain between parallel regions).
class FairnessMonitor {
 public:
  /// Group ids outside [0, kMaxGroups) are counted as dropped.
  static constexpr int kMaxGroups = 8;

  explicit FairnessMonitor(std::string name, MonitorOptions options = {});
  FairnessMonitor(const FairnessMonitor&) = delete;
  FairnessMonitor& operator=(const FairnessMonitor&) = delete;

  const std::string& name() const { return name_; }
  const MonitorOptions& options() const { return options_; }

  /// Appends one event to the calling thread's shard of the log
  /// (lock-free after the thread's first ingest). No-op under
  /// XFAIR_OBS=OFF.
  void Ingest(const MonitorEvent& event);

  /// Reserves `n` consecutive sequence numbers and returns the first.
  /// Batch producers stamp row i of a batch with base + i, so the stream
  /// order is the caller's batch order regardless of thread count.
  uint64_t ReserveSeq(uint64_t n) {
    return next_seq_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Drains the log and processes the drained events in ascending seq
  /// order (ties by the ingesting thread's registration, then ingestion
  /// order). Must not race with Ingest. Returns the number of events
  /// processed.
  size_t Drain();

  /// Windowed metrics from the current ring contents (O(window) scan into
  /// per-group counts, derived by the offline DeriveGroupFairness).
  WindowedMetrics Windowed() const;

  const std::array<GroupAggregate, kMaxGroups>& aggregates() const {
    return aggregates_;
  }
  const std::vector<DriftAlarm>& alarms() const { return alarms_; }

  /// Alarm hook bus: every hook runs synchronously on the draining
  /// thread right after a detector appends a DriftAlarm — the moment the
  /// trailing evidence (flight recorder, event log, counters) is still
  /// hot. The recorder's InstallBundleDumpOnAlarm registers its bundle
  /// dump through this. Hooks must not call back into this monitor's
  /// Drain/Ingest. Never invoked under -DXFAIR_OBS=OFF (Drain is a
  /// no-op there).
  using AlarmHook =
      std::function<void(const FairnessMonitor&, const DriftAlarm&)>;

  /// Registers a hook; returns its id. Thread-safe.
  size_t AddAlarmHook(AlarmHook hook);

  /// Removes every registered hook.
  void ClearAlarmHooks();
  uint64_t events_processed() const { return events_processed_; }
  /// Events dropped at drain time for an out-of-range group id or a
  /// score that is not a probability (NaN, infinite, or outside [0, 1]).
  uint64_t events_dropped() const { return events_dropped_; }

  /// Clears window, aggregates, detectors, alarms, and the sequence
  /// counter. Pending (undrained) events are discarded.
  void Reset();

  /// Self-contained JSON object for this monitor — keys sorted,
  /// rendering deterministic for identical state. "{}" when disabled.
  std::string SnapshotJson() const;

  /// Shards the ingestion log holds (live ingesting threads plus exited
  /// ones not yet drained); for tests.
  size_t log_shards() const { return log_.shard_count(); }

 private:
  struct Detector {
    const char* metric;
    detail::PageHinkleyState page_hinkley;
    detail::CusumState cusum;
  };

  void Process(const MonitorEvent& event);
  void UpdateDetectors(uint64_t seq);

  std::string name_;
  MonitorOptions options_;
  std::atomic<uint64_t> next_seq_{0};
  PerThreadLog<MonitorEvent> log_;  ///< Ingestion side.

  // Alarm hook bus; the mutex guards registration only (invocation
  // copies the list and runs on the drain thread).
  std::mutex hooks_mutex_;
  std::vector<AlarmHook> hooks_;

  // Processing side: touched only under the Drain contract.
  std::vector<MonitorEvent> ring_;  ///< Capacity options_.window.
  size_t ring_pos_ = 0;             ///< Next slot to overwrite.
  size_t ring_size_ = 0;            ///< Events currently in the ring.
  std::array<GroupAggregate, kMaxGroups> aggregates_{};
  std::array<Detector, 3> detectors_;
  std::vector<DriftAlarm> alarms_;
  uint64_t events_processed_ = 0;
  uint64_t events_dropped_ = 0;
};

/// True when the monitoring hooks are live (one relaxed load). Off by
/// default unless the XFAIR_MONITOR environment variable is set to a
/// nonzero value at first use.
bool MonitoringEnabled();
void SetMonitoringEnabled(bool enabled);

/// Interns and returns the monitor named `name` (process lifetime),
/// creating it with `options` on first use.
FairnessMonitor& GetMonitor(std::string_view name,
                            MonitorOptions options = {});

/// All registered monitors, sorted by name (deterministic export order).
std::vector<FairnessMonitor*> RegisteredMonitors();

/// Installs, for the current thread, the group/label arrays that
/// MonitorPredictionBatch joins against batch scores. The arrays must
/// outlive the scope and have `n` entries (`labels` may be null for an
/// unlabeled stream). Restores the previous context on destruction.
class ScopedStreamContext {
 public:
  ScopedStreamContext(FairnessMonitor* monitor, const int* groups,
                      const int* labels, size_t n);
  ~ScopedStreamContext();
  ScopedStreamContext(const ScopedStreamContext&) = delete;
  ScopedStreamContext& operator=(const ScopedStreamContext&) = delete;

 private:
  void* prev_ = nullptr;  ///< Opaque saved context.
};

/// True when monitoring is enabled and the calling thread's stream
/// context matches a batch of `n` rows — the exact condition under which
/// MonitorPredictionBatch will ingest.
bool MonitorActive(size_t n);

/// Joins `scores[0..n)` with the thread's stream context and ingests one
/// event per row (prediction = score >= threshold). Inert unless
/// MonitorActive(n).
void MonitorPredictionBatch(const double* scores, size_t n,
                            double threshold);

/// Variant with precomputed hard decisions (multi-class argmax rules
/// that a threshold cannot express).
void MonitorPredictionBatch(const double* scores, const int* predictions,
                            size_t n);

}  // namespace xfair::obs

// Hot-path hook for batched prediction paths. Compiles to nothing under
// -DXFAIR_OBS=OFF; otherwise one relaxed load + branch when monitoring
// is off or no stream context is installed.
#ifndef XFAIR_OBS_DISABLED
#define XFAIR_MONITOR_PREDICTIONS(scores, n, threshold) \
  ::xfair::obs::MonitorPredictionBatch((scores), (n), (threshold))
#define XFAIR_MONITOR_ACTIVE(n) ::xfair::obs::MonitorActive(n)
#else
#define XFAIR_MONITOR_PREDICTIONS(scores, n, threshold) \
  do {                                                  \
  } while (0)
#define XFAIR_MONITOR_ACTIVE(n) false
#endif

#endif  // XFAIR_OBS_MONITOR_H_
