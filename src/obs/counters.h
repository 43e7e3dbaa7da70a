// Named monotonic counters and histograms for hot-path instrumentation.
//
// Counters are process-global, created on first use and interned by name
// (stable addresses for the lifetime of the process). Increments are
// relaxed atomic adds, so instrumented code stays bit-identical — the
// counters observe the computation without participating in it — and the
// per-increment cost is a single uncontended atomic RMW. The intended
// usage pattern caches the lookup in a function-local static:
//
//   XFAIR_COUNTER_ADD("kdtree/nodes_visited", visited);   // from obs.h
//
// Histograms use HDR-style log-linear buckets: each power-of-two octave
// is subdivided into 64 linear sub-buckets, so every recorded value is
// reconstructible to within 1/64 (~1.6%) relative error — values below
// 128 are stored exactly — at the same near-counter cost as the old
// power-of-two layout (one bit-scan + three relaxed RMWs per Observe).
// That resolution makes the p50/p95/p99/p999 latency quantiles in
// CountersToJson and the Prometheus exposition meaningful, not
// octave-wide guesses.
//
// Snapshots sort by name, so exports are deterministic for a given set
// of counter values regardless of creation order.

#ifndef XFAIR_OBS_COUNTERS_H_
#define XFAIR_OBS_COUNTERS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace xfair::obs {

/// A named monotonic counter. Obtain via GetCounter; never destroyed.
class Counter {
 public:
  /// Relaxed atomic increment; safe from any thread.
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }

  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

  /// Construction is reserved for the registry; use GetCounter.
  explicit Counter(std::string name) : name_(std::move(name)) {}

 private:
  std::string name_;
  std::atomic<uint64_t> value_{0};
};

/// A named histogram over uint64 observations with log-linear (HDR-style)
/// buckets: 64 linear sub-buckets per power-of-two octave.
///
/// Layout: values below 64 land in their own bucket (index == value).
/// A larger value with bit width w >= 7 is shifted down to its top seven
/// bits (a "mantissa" in [64, 128)) and indexed as
///
///   bucket = (w - 7) * 64 + (v >> (w - 7))
///
/// so bucket width doubles per octave while staying <= low/64. Values in
/// [64, 128) have shift 0 and are therefore also exact; the first lossy
/// bucket starts at 128 with width 2.
class Histogram {
 public:
  static constexpr size_t kSubBuckets = 64;
  /// 64 exact small-value buckets + 58 octaves (bit widths 7..64) of 64.
  static constexpr size_t kBuckets = kSubBuckets + 58 * kSubBuckets;

  /// Bucket index of a value (see layout above).
  static constexpr size_t BucketIndex(uint64_t v) {
    if (v < kSubBuckets) return static_cast<size_t>(v);
    const unsigned w = 64u - static_cast<unsigned>(__builtin_clzll(v));
    return static_cast<size_t>(w - 7) * kSubBuckets +
           static_cast<size_t>(v >> (w - 7));
  }

  /// Smallest value mapping to bucket `b` (inclusive lower edge).
  static constexpr uint64_t BucketLow(size_t b) {
    if (b < 2 * kSubBuckets) return static_cast<uint64_t>(b);
    const unsigned octave = static_cast<unsigned>(b / kSubBuckets - 1);
    return static_cast<uint64_t>(kSubBuckets + b % kSubBuckets) << octave;
  }

  /// Number of distinct values mapping to bucket `b` (1 below 128).
  static constexpr uint64_t BucketWidth(size_t b) {
    return b < 2 * kSubBuckets
               ? uint64_t{1}
               : uint64_t{1} << static_cast<unsigned>(b / kSubBuckets - 1);
  }

  /// Relaxed atomic observation; safe from any thread.
  void Observe(uint64_t v) {
    buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Mean observation; 0 when empty.
  double mean() const;
  /// Per-bucket counts in the log-linear layout (kBuckets entries).
  std::vector<uint64_t> BucketCounts() const;
  void Reset();
  const std::string& name() const { return name_; }

  /// Construction is reserved for the registry; use GetHistogram.
  explicit Histogram(std::string name) : name_(std::move(name)) {}

 private:
  std::string name_;
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// RAII latency sampler: observes the elapsed steady-clock nanoseconds
/// of its scope into a histogram at destruction. Two clock reads per
/// scope; use via XFAIR_LATENCY_NS (obs.h), which compiles away under
/// -DXFAIR_OBS=OFF.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram& h)
      : h_(&h), start_(std::chrono::steady_clock::now()) {}
  ~ScopedLatency() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    h_->Observe(ns < 0 ? 0u : static_cast<uint64_t>(ns));
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point start_;
};

/// Interns and returns the counter named `name`. The reference stays
/// valid for the process lifetime; repeated calls return the same object.
Counter& GetCounter(std::string_view name);

/// Interns and returns the histogram named `name` (process lifetime).
Histogram& GetHistogram(std::string_view name);

/// One counter's value at snapshot time.
struct CounterSnapshot {
  std::string name;
  uint64_t value = 0;
};

/// One histogram's aggregate at snapshot time.
struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  std::vector<uint64_t> buckets;  ///< Histogram::kBuckets entries.
};

/// Quantile estimate from a log-linear histogram snapshot: finds the
/// bucket holding rank q * count. Exact (width-1) buckets — every value
/// below 128 — return their value outright; wider buckets interpolate
/// linearly inside [low, low + width), bounding the error by the bucket
/// width, i.e. a relative error of at most 1/64 (~1.6%). Returns 0 for
/// an empty histogram; q is clamped to [0, 1].
double HistogramQuantile(const HistogramSnapshot& h, double q);

/// All registered counters, sorted by name (deterministic export order).
std::vector<CounterSnapshot> SnapshotCounters();

/// Counters that advanced since `baseline` (an earlier SnapshotCounters),
/// as (name, increase) sorted by name; a counter registered after the
/// baseline counts from zero.
std::vector<CounterSnapshot> CounterDeltas(
    const std::vector<CounterSnapshot>& baseline);

/// All registered histograms, sorted by name.
std::vector<HistogramSnapshot> SnapshotHistograms();

/// Zeroes every registered counter and histogram. Counter identities are
/// preserved (the registry is never shrunk).
void ResetAllCounters();

}  // namespace xfair::obs

#endif  // XFAIR_OBS_COUNTERS_H_
