#include "src/obs/monitor.h"

#include <algorithm>
#include <cstdlib>

#include "src/fairness/group_metrics.h"
#include "src/obs/eventlog.h"
#include "src/obs/json.h"

namespace xfair::obs {

namespace detail {

double PageHinkleyState::Update(double x, double delta, double lambda) {
  ++n;
  mean += (x - mean) / static_cast<double>(n);
  inc += x - mean - delta;
  inc_min = std::min(inc_min, inc);
  dec += x - mean + delta;
  dec_max = std::max(dec_max, dec);
  if (inc - inc_min > lambda) return inc - inc_min;
  if (dec_max - dec > lambda) return dec_max - dec;
  return 0.0;
}

double CusumState::Update(double x, double k, double h) {
  ++n;
  mean += (x - mean) / static_cast<double>(n);
  pos = std::max(0.0, pos + x - mean - k);
  neg = std::max(0.0, neg + mean - x - k);
  if (pos > h) return pos;
  if (neg > h) return neg;
  return 0.0;
}

}  // namespace detail

namespace {

/// Detectors re-evaluate the windowed gaps every kDetectorStride events.
/// Overlapping windows make per-event gap series strongly autocorrelated;
/// a stride of window/8 (at the default 512-event window) keeps detection
/// latency well under one window while damping noise accumulation.
constexpr size_t kDetectorStride = 64;
/// Probability bins of the windowed per-group ECE (offline default).
constexpr size_t kCalibrationBins = 10;
/// Page-Hinkley magnitude tolerance and alarm threshold.
constexpr double kPhDelta = 0.02;
constexpr double kPhLambda = 0.35;
/// CUSUM slack and alarm threshold.
constexpr double kCusumK = 0.03;
constexpr double kCusumH = 0.25;

std::atomic<bool> g_monitoring_enabled{[] {
  const char* env = std::getenv("XFAIR_MONITOR");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}()};

/// The group/label arrays MonitorPredictionBatch joins against, per
/// thread (see ScopedStreamContext).
struct StreamContext {
  FairnessMonitor* monitor = nullptr;
  const int* groups = nullptr;
  const int* labels = nullptr;
  size_t n = 0;
};

StreamContext& LocalStreamContext() {
  thread_local StreamContext ctx;
  return ctx;
}

}  // namespace

bool MonitoringEnabled() {
  return g_monitoring_enabled.load(std::memory_order_relaxed);
}

void SetMonitoringEnabled(bool enabled) {
  g_monitoring_enabled.store(enabled, std::memory_order_relaxed);
}

FairnessMonitor::FairnessMonitor(std::string name, MonitorOptions options)
    : name_(std::move(name)), options_(options) {
  if (options_.window == 0) options_.window = 1;
  ring_.resize(options_.window);
  detectors_[0].metric = "demographic_parity";
  detectors_[1].metric = "equalized_odds";
  detectors_[2].metric = "calibration";
}

void FairnessMonitor::Ingest(const MonitorEvent& event) {
#ifdef XFAIR_OBS_DISABLED
  (void)event;
#else
  log_.Append(event);
#endif
}

size_t FairnessMonitor::Drain() {
#ifdef XFAIR_OBS_DISABLED
  return 0;
#else
  std::vector<MonitorEvent> drained;
  log_.Drain(&drained);
  // The log yields (thread registration, ingestion) order, so a stable
  // sort by seq processes events in (seq, registration, ingestion) order.
  // Sequence numbers alone define it for well-behaved producers, whose
  // events usually arrive already sorted.
  const auto by_seq = [](const MonitorEvent& a, const MonitorEvent& b) {
    return a.seq < b.seq;
  };
  if (!std::is_sorted(drained.begin(), drained.end(), by_seq)) {
    std::stable_sort(drained.begin(), drained.end(), by_seq);
  }
  for (const MonitorEvent& e : drained) Process(e);
  return drained.size();
#endif
}

void FairnessMonitor::Process(const MonitorEvent& event) {
  // The negated range test also catches NaN scores.
  if (event.group < 0 || event.group >= kMaxGroups ||
      !(event.score >= 0.0 && event.score <= 1.0)) {
    ++events_dropped_;
    return;
  }
  ring_[ring_pos_] = event;
  ring_pos_ = (ring_pos_ + 1) % options_.window;
  if (ring_size_ < options_.window) ++ring_size_;

  GroupAggregate& agg = aggregates_[static_cast<size_t>(event.group)];
  ++agg.events;
  if (event.prediction == 1) ++agg.predicted_positive;
  if (event.label >= 0) {
    ++agg.labeled;
    if (event.prediction == 1 && event.label == 1) ++agg.tp;
    if (event.prediction == 1 && event.label == 0) ++agg.fp;
    if (event.prediction == 0 && event.label == 0) ++agg.tn;
    if (event.prediction == 0 && event.label == 1) ++agg.fn;
  }
  const double d1 = event.score - agg.score_mean;
  agg.score_mean += d1 / static_cast<double>(agg.events);
  agg.score_m2 += d1 * (event.score - agg.score_mean);

  ++events_processed_;
  // Detectors start scoring once one full window has arrived: the
  // windowed gaps are meaningless before the ring fills.
  if (events_processed_ >= options_.window &&
      events_processed_ % kDetectorStride == 0) {
    UpdateDetectors(event.seq);
  }
}

void FairnessMonitor::UpdateDetectors(uint64_t seq) {
  const WindowedMetrics wm = Windowed();
  const double values[3] = {wm.demographic_parity_diff,
                            wm.equalized_odds_diff, wm.calibration_gap};
  const size_t first_new = alarms_.size();
  for (size_t i = 0; i < detectors_.size(); ++i) {
    Detector& d = detectors_[i];
    const double ph = d.page_hinkley.Update(values[i], kPhDelta, kPhLambda);
    if (ph > 0.0) {
      alarms_.push_back({d.metric, "page_hinkley", seq, values[i], ph});
      d.page_hinkley = {};
    }
    const double cs = d.cusum.Update(values[i], kCusumK, kCusumH);
    if (cs > 0.0) {
      alarms_.push_back({d.metric, "cusum", seq, values[i], cs});
      d.cusum = {};
    }
  }
  if (first_new == alarms_.size()) return;
  // Fan each fresh alarm out: a lifecycle event (deterministic fields —
  // no clocks) and the hook bus. Hooks run here, on the drain thread,
  // while the trailing diagnostic evidence is still in the rings.
  std::vector<AlarmHook> hooks;
  {
    std::lock_guard<std::mutex> guard(hooks_mutex_);
    hooks = hooks_;
  }
  for (size_t a = first_new; a < alarms_.size(); ++a) {
    const DriftAlarm& alarm = alarms_[a];
    EmitEvent(Severity::kWarn, "monitor", "drift_alarm",
              {{"detector", alarm.detector},
               {"metric", alarm.metric},
               {"monitor", name_},
               {"seq", std::to_string(alarm.seq)},
               {"value", Json::Number(alarm.value).Dump()}});
    for (const AlarmHook& hook : hooks) hook(*this, alarm);
  }
}

size_t FairnessMonitor::AddAlarmHook(AlarmHook hook) {
  std::lock_guard<std::mutex> guard(hooks_mutex_);
  hooks_.push_back(std::move(hook));
  return hooks_.size() - 1;
}

void FairnessMonitor::ClearAlarmHooks() {
  std::lock_guard<std::mutex> guard(hooks_mutex_);
  hooks_.clear();
}

WindowedMetrics FairnessMonitor::Windowed() const {
  WindowedMetrics wm;
#ifdef XFAIR_OBS_DISABLED
  return wm;
#else
  wm.events = ring_size_;
  if (ring_size_ == 0) return wm;
  const size_t oldest =
      ring_size_ == options_.window ? ring_pos_ : 0;

  // Groups 0/1 are the offline comparison. Counted in seq order, the
  // window's counts derive their gaps through the same function as the
  // offline fairness/group_metrics report on the same rows.
  std::array<GroupCounts, 2> counts = {GroupCounts(kCalibrationBins),
                                       GroupCounts(kCalibrationBins)};
  const size_t window = options_.window, size = ring_size_;
  const MonitorEvent* ring = ring_.data();
  size_t labeled = 0;
  for (size_t i = 0; i < size; ++i) {
    const MonitorEvent& e = ring[(oldest + i) % window];
    if (e.label >= 0) ++labeled;
    if (e.group == 0 || e.group == 1) {
      counts[static_cast<size_t>(e.group)].Add(e.prediction, e.score,
                                               e.label);
    }
  }
  wm.labeled = labeled;
  wm.first_seq = ring[oldest].seq;
  wm.last_seq = ring[(oldest + size - 1) % window].seq;
  const GroupFairnessReport report = DeriveGroupFairness(counts[0], counts[1]);
  wm.single_group = report.single_group;
  wm.demographic_parity_diff = report.statistical_parity_difference;
  wm.equalized_odds_diff = report.equalized_odds_difference;
  wm.calibration_gap = report.calibration_gap;
  return wm;
#endif
}

void FairnessMonitor::Reset() {
  log_.Reset();  // Discards pending (undrained) events.
  ring_pos_ = 0;
  ring_size_ = 0;
  aggregates_ = {};
  for (Detector& d : detectors_) {
    d.page_hinkley = {};
    d.cusum = {};
  }
  alarms_.clear();
  events_processed_ = 0;
  events_dropped_ = 0;
  next_seq_.store(0, std::memory_order_relaxed);
}

std::string FairnessMonitor::SnapshotJson() const {
#ifdef XFAIR_OBS_DISABLED
  return Json().Dump();
#else
  Json doc = {{"events_dropped", events_dropped_},
              {"events_processed", events_processed_},
              {"monitor", name_}};
  std::vector<Json> alarms;
  for (const DriftAlarm& a : alarms_) {
    alarms.push_back({{"detector", a.detector},
                      {"metric", a.metric},
                      {"seq", a.seq},
                      {"statistic", Json::Number(a.statistic)},
                      {"value", Json::Number(a.value)}});
  }
  doc["alarms"] = std::move(alarms);
  Json& groups = doc["groups"];
  for (int g = 0; g < kMaxGroups; ++g) {
    const GroupAggregate& agg = aggregates_[static_cast<size_t>(g)];
    if (agg.events == 0) continue;
    groups[std::to_string(g)] = {
        {"events", agg.events},
        {"fpr", Json::Number(agg.fpr())},
        {"labeled", agg.labeled},
        {"positive_rate", Json::Number(agg.positive_rate())},
        {"predicted_positive", agg.predicted_positive},
        {"score_mean", Json::Number(agg.score_mean)},
        {"score_variance", Json::Number(agg.score_variance())},
        {"tpr", Json::Number(agg.tpr())}};
  }
  const WindowedMetrics wm = Windowed();
  doc["window"] = {
      {"calibration_gap", Json::Number(wm.calibration_gap)},
      {"demographic_parity_diff", Json::Number(wm.demographic_parity_diff)},
      {"equalized_odds_diff", Json::Number(wm.equalized_odds_diff)},
      {"events", wm.events},
      {"first_seq", wm.first_seq},
      {"labeled", wm.labeled},
      {"last_seq", wm.last_seq},
      {"single_group", wm.single_group}};
  return doc.Dump();
#endif
}

namespace {

/// Monitor interning registry (counters.cc pattern: heap-allocated,
/// never freed, references valid for the process lifetime).
struct MonitorRegistry {
  std::mutex mutex;
  std::vector<std::unique_ptr<FairnessMonitor>> monitors;
};

MonitorRegistry& GlobalMonitorRegistry() {
  static MonitorRegistry* r = new MonitorRegistry();
  return *r;
}

}  // namespace

FairnessMonitor& GetMonitor(std::string_view name, MonitorOptions options) {
  MonitorRegistry& reg = GlobalMonitorRegistry();
  std::lock_guard<std::mutex> guard(reg.mutex);
  for (const auto& m : reg.monitors) {
    if (m->name() == name) return *m;
  }
  reg.monitors.emplace_back(
      new FairnessMonitor(std::string(name), options));
  return *reg.monitors.back();
}

std::vector<FairnessMonitor*> RegisteredMonitors() {
  MonitorRegistry& reg = GlobalMonitorRegistry();
  std::lock_guard<std::mutex> guard(reg.mutex);
  std::vector<FairnessMonitor*> out;
  out.reserve(reg.monitors.size());
  for (const auto& m : reg.monitors) out.push_back(m.get());
  std::sort(out.begin(), out.end(),
            [](const FairnessMonitor* a, const FairnessMonitor* b) {
              return a->name() < b->name();
            });
  return out;
}

ScopedStreamContext::ScopedStreamContext(FairnessMonitor* monitor,
                                         const int* groups,
                                         const int* labels, size_t n) {
  StreamContext& ctx = LocalStreamContext();
  prev_ = new StreamContext(ctx);
  ctx.monitor = monitor;
  ctx.groups = groups;
  ctx.labels = labels;
  ctx.n = n;
}

ScopedStreamContext::~ScopedStreamContext() {
  StreamContext* prev = static_cast<StreamContext*>(prev_);
  LocalStreamContext() = *prev;
  delete prev;
}

bool MonitorActive(size_t n) {
#ifdef XFAIR_OBS_DISABLED
  (void)n;
  return false;
#else
  if (!MonitoringEnabled()) return false;
  const StreamContext& ctx = LocalStreamContext();
  return ctx.monitor != nullptr && ctx.groups != nullptr && ctx.n == n &&
         n > 0;
#endif
}

void MonitorPredictionBatch(const double* scores, size_t n,
                            double threshold) {
#ifdef XFAIR_OBS_DISABLED
  (void)scores;
  (void)n;
  (void)threshold;
#else
  if (!MonitorActive(n)) return;
  const StreamContext& ctx = LocalStreamContext();
  const uint64_t base = ctx.monitor->ReserveSeq(n);
  for (size_t i = 0; i < n; ++i) {
    ctx.monitor->Ingest({base + i, scores[i],
                         scores[i] >= threshold ? 1 : 0,
                         ctx.labels == nullptr ? -1 : ctx.labels[i],
                         ctx.groups[i]});
  }
#endif
}

void MonitorPredictionBatch(const double* scores, const int* predictions,
                            size_t n) {
#ifdef XFAIR_OBS_DISABLED
  (void)scores;
  (void)predictions;
  (void)n;
#else
  if (!MonitorActive(n)) return;
  const StreamContext& ctx = LocalStreamContext();
  const uint64_t base = ctx.monitor->ReserveSeq(n);
  for (size_t i = 0; i < n; ++i) {
    ctx.monitor->Ingest({base + i, scores[i], predictions[i],
                         ctx.labels == nullptr ? -1 : ctx.labels[i],
                         ctx.groups[i]});
  }
#endif
}

}  // namespace xfair::obs
