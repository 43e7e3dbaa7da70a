#include "src/obs/counters.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>

namespace xfair::obs {
namespace {

/// Name-interning registries. Entries are heap-allocated and never freed
/// so the references handed out stay valid for the process lifetime (the
/// usual pattern for function-local-static counter caches).
template <typename T>
class Registry {
 public:
  T& GetOrCreate(std::string_view name) {
    std::lock_guard<std::mutex> guard(mutex_);
    for (const auto& e : entries_) {
      if (e->name() == name) return *e;
    }
    entries_.emplace_back(new T(std::string(name)));
    return *entries_.back();
  }

  /// Calls fn(entry) for every registered entry, sorted by name.
  template <typename Fn>
  void ForEachSorted(Fn fn) {
    std::lock_guard<std::mutex> guard(mutex_);
    std::vector<T*> sorted;
    sorted.reserve(entries_.size());
    for (const auto& e : entries_) sorted.push_back(e.get());
    std::sort(sorted.begin(), sorted.end(),
              [](const T* a, const T* b) { return a->name() < b->name(); });
    for (T* e : sorted) fn(*e);
  }

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<T>> entries_;
};

Registry<Counter>& CounterRegistry() {
  static Registry<Counter>* r = new Registry<Counter>();
  return *r;
}

Registry<Histogram>& HistogramRegistry() {
  static Registry<Histogram>* r = new Registry<Histogram>();
  return *r;
}

}  // namespace

double Histogram::mean() const {
  const uint64_t n = count();
  return n == 0 ? 0.0
                : static_cast<double>(sum()) / static_cast<double>(n);
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out(kBuckets);
  for (size_t i = 0; i < kBuckets; ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

double HistogramQuantile(const HistogramSnapshot& h, double q) {
  if (h.count == 0 || h.buckets.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(h.count);
  double cum = 0.0;
  for (size_t b = 0; b < h.buckets.size(); ++b) {
    if (h.buckets[b] == 0) continue;
    const double cb = static_cast<double>(h.buckets[b]);
    if (cum + cb < target) {
      cum += cb;
      continue;
    }
    const uint64_t width = Histogram::BucketWidth(b);
    const double lo = static_cast<double>(Histogram::BucketLow(b));
    if (width == 1) return lo;  // Exact bucket: the recorded value itself.
    const double frac =
        cb == 0.0 ? 0.0 : std::min(1.0, std::max(0.0, (target - cum) / cb));
    return lo + frac * static_cast<double>(width);
  }
  // All mass consumed (q == 1 with rounding): the top occupied bucket.
  for (size_t b = h.buckets.size(); b-- > 0;) {
    if (h.buckets[b] != 0) {
      const uint64_t width = Histogram::BucketWidth(b);
      return static_cast<double>(Histogram::BucketLow(b)) +
             (width == 1 ? 0.0 : static_cast<double>(width));
    }
  }
  return 0.0;
}

Counter& GetCounter(std::string_view name) {
  return CounterRegistry().GetOrCreate(name);
}

Histogram& GetHistogram(std::string_view name) {
  return HistogramRegistry().GetOrCreate(name);
}

std::vector<CounterSnapshot> SnapshotCounters() {
  std::vector<CounterSnapshot> out;
  CounterRegistry().ForEachSorted(
      [&out](Counter& c) { out.push_back({c.name(), c.value()}); });
  return out;
}

std::vector<CounterSnapshot> CounterDeltas(
    const std::vector<CounterSnapshot>& baseline) {
  std::vector<CounterSnapshot> out;
  auto base = baseline.begin();  // Both sides are sorted by name.
  for (CounterSnapshot& c : SnapshotCounters()) {
    while (base != baseline.end() && base->name < c.name) ++base;
    const uint64_t prev =
        base != baseline.end() && base->name == c.name ? base->value : 0;
    if (c.value > prev) out.push_back({std::move(c.name), c.value - prev});
  }
  return out;
}

std::vector<HistogramSnapshot> SnapshotHistograms() {
  std::vector<HistogramSnapshot> out;
  HistogramRegistry().ForEachSorted([&out](Histogram& h) {
    out.push_back({h.name(), h.count(), h.sum(), h.BucketCounts()});
  });
  return out;
}

void ResetAllCounters() {
  CounterRegistry().ForEachSorted([](Counter& c) { c.Reset(); });
  HistogramRegistry().ForEachSorted([](Histogram& h) { h.Reset(); });
}

}  // namespace xfair::obs
