// Speedup harness for the benches. RecordAlgoSpeedup times a *baseline
// algorithm* against the optimized one (both single-worker, so the ratio
// is purely algorithmic), then the optimized one with the pool at
// XFAIR_BENCH_THREADS workers (default 4).
//
// It writes BENCH_<name>.json in the working directory with the fields
// baseline_ms / optimized_ms / algo_speedup (single-core algorithm
// comparison) and serial_ms / parallel_ms / speedup (thread scaling of
// the shipped path; serial_ms is optimized_ms), so speedups are
// machine-readable artifacts of a bench run rather than numbers scraped
// from stdout. Determinism makes the comparisons honest: every run
// produces bit-identical results, so the only difference is wall time.
//
// After the timed measurements, the optimized workload runs once more
// with tracing force-enabled; the artifact then also carries "stages"
// (per-XFAIR_SPAN wall-time breakdown: count / total_ms / self_ms) and
// "counters" (the obs counters that advanced during that run). The timed
// numbers are never taken with tracing on.

#ifndef XFAIR_BENCH_BENCH_JSON_H_
#define XFAIR_BENCH_BENCH_JSON_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/obs/obs.h"
#include "src/util/parallel.h"

namespace xfair {
namespace bench_json_internal {

inline double TimeMs(const std::function<void()>& workload, int repeats) {
  using Clock = std::chrono::steady_clock;
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const auto start = Clock::now();
    workload();
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

inline size_t BenchThreads() {
  if (const char* env = std::getenv("XFAIR_BENCH_THREADS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 4;
}

inline obs::Json Ms(double ms) { return obs::Json::Fixed(ms, 3); }

/// Runs the workload once more with tracing force-enabled and adds its
/// "stages" (the span aggregate: total/self wall ms per XFAIR_SPAN name)
/// and "counters" (the counters that advanced during the run) to `*doc`.
/// Purely observational — the timed measurements never run with tracing
/// on.
inline void ProfileWorkload(const std::function<void()>& workload,
                            obs::Json* doc) {
  const std::vector<obs::CounterSnapshot> before = obs::SnapshotCounters();
  obs::FlushSpans();  // Discard anything recorded before the profile run.
  const bool was_tracing = obs::TracingEnabled();
  obs::SetTracingEnabled(true);
  workload();
  obs::SetTracingEnabled(was_tracing);
  (*doc)["stages"] = obs::Json::Raw(
      obs::StagesToJson(obs::AggregateStages(obs::FlushSpans())));
  obs::Json& counters = (*doc)["counters"];
  for (const obs::CounterSnapshot& c : obs::CounterDeltas(before)) {
    counters[c.name] = c.value;
  }
}

/// Adds the timing fields to `doc` (extra fields plus the profile) and
/// writes it as BENCH_<name>.json.
inline void WriteBenchJson(const std::string& name, double baseline_ms,
                           double optimized_ms, double parallel_ms,
                           size_t threads, obs::Json doc) {
  const double serial_ms = optimized_ms;
  const double algo_speedup =
      optimized_ms > 0.0 ? baseline_ms / optimized_ms : 0.0;
  const double speedup = parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;
  doc["bench"] = name;
  doc["baseline_ms"] = Ms(baseline_ms);
  doc["optimized_ms"] = Ms(optimized_ms);
  doc["algo_speedup"] = obs::Json::Fixed(algo_speedup, 3);
  doc["serial_ms"] = Ms(serial_ms);
  doc["parallel_ms"] = Ms(parallel_ms);
  doc["speedup"] = obs::Json::Fixed(speedup, 3);
  doc["threads"] = threads;
  doc["hardware_concurrency"] = std::thread::hardware_concurrency();
  const std::string path = "BENCH_" + name + ".json";
  if (Status st = obs::WriteTextFile(path, doc.Dump() + "\n"); !st.ok()) {
    std::fprintf(stderr, "bench_json: %s\n", st.ToString().c_str());
    return;
  }
  std::printf("[bench_json] %s: baseline %.1f ms, optimized %.1f ms "
              "(algo %.2fx); serial %.1f ms, %zu-thread %.1f ms "
              "(threads %.2fx) -> %s\n",
              name.c_str(), baseline_ms, optimized_ms, algo_speedup,
              serial_ms, threads, parallel_ms, speedup, path.c_str());
}

}  // namespace bench_json_internal

/// Measures a batch workload's throughput against a looped per-instance
/// equivalent (both pinned to one worker, best of `repeats`), and returns
/// the first-class throughput fields as an object for RecordAlgoSpeedup's
/// `extra`:
///
///   "<unit>_per_sec"         batch items per second,
///   "<unit>_per_sec_looped"  looped items per second,
///   "batch_speedup"          looped_ms / batch_ms,
///   "batch_ms"               batch wall time (the noise floor gates use),
///   "batch_items"            items per call.
///
/// When `reference` (the slow route the looped one replaced) is given, it
/// is timed the same way and two more fields are added:
///
///   "looped_algo_speedup"    reference_ms / looped_ms,
///   "looped_ms"              looped wall time (that ratio's noise floor).
///
/// Restores the pool to its environment default before returning.
inline obs::Json MeasureThroughputExtra(
    const char* unit, size_t items, const std::function<void()>& batch,
    const std::function<void()>& looped, int repeats = 3,
    const std::function<void()>& reference = nullptr) {
  SetParallelThreads(1);
  const double batch_ms = bench_json_internal::TimeMs(batch, repeats);
  const double looped_ms = bench_json_internal::TimeMs(looped, repeats);
  const double reference_ms =
      reference ? bench_json_internal::TimeMs(reference, repeats) : 0.0;
  SetParallelThreads(0);
  const double n = static_cast<double>(items);
  const double per_sec = batch_ms > 0.0 ? n * 1000.0 / batch_ms : 0.0;
  const double per_sec_looped =
      looped_ms > 0.0 ? n * 1000.0 / looped_ms : 0.0;
  const double batch_speedup = batch_ms > 0.0 ? looped_ms / batch_ms : 0.0;
  std::printf("[bench_json] %zu %s: batch %.2f ms (%.0f/s), looped %.2f ms "
              "(%.0f/s) -> batch %.2fx\n",
              items, unit, batch_ms, per_sec, looped_ms, per_sec_looped,
              batch_speedup);
  obs::Json doc = {
      {std::string(unit) + "_per_sec", obs::Json::Fixed(per_sec, 1)},
      {std::string(unit) + "_per_sec_looped",
       obs::Json::Fixed(per_sec_looped, 1)},
      {"batch_speedup", obs::Json::Fixed(batch_speedup, 3)},
      {"batch_ms", bench_json_internal::Ms(batch_ms)},
      {"batch_items", items}};
  if (reference) {
    const double looped_speedup =
        looped_ms > 0.0 ? reference_ms / looped_ms : 0.0;
    std::printf("[bench_json] reference %.2f ms -> looped %.2fx\n",
                reference_ms, looped_speedup);
    doc["looped_algo_speedup"] = obs::Json::Fixed(looped_speedup, 3);
    doc["looped_ms"] = bench_json_internal::Ms(looped_ms);
  }
  return doc;
}

/// Times `baseline` and `optimized` with the pool pinned to one worker —
/// so algo_speedup = baseline_ms / optimized_ms is a pure
/// algorithmic-improvement ratio, uncontaminated by threading — then
/// re-times `optimized` at XFAIR_BENCH_THREADS workers for the thread-
/// scaling fields, and writes BENCH_<name>.json: the members of `extra`
/// plus the timing and profile fields.
inline void RecordAlgoSpeedup(const std::string& name,
                              const std::function<void()>& baseline,
                              const std::function<void()>& optimized,
                              int repeats = 3, obs::Json extra = {}) {
  const size_t threads = bench_json_internal::BenchThreads();
  SetParallelThreads(1);
  const double baseline_ms = bench_json_internal::TimeMs(baseline, repeats);
  const double optimized_ms = bench_json_internal::TimeMs(optimized, repeats);
  SetParallelThreads(threads);
  const double parallel_ms = bench_json_internal::TimeMs(optimized, repeats);
  bench_json_internal::ProfileWorkload(optimized, &extra);
  SetParallelThreads(0);
  bench_json_internal::WriteBenchJson(name, baseline_ms, optimized_ms,
                                      parallel_ms, threads,
                                      std::move(extra));
}

}  // namespace xfair

#endif  // XFAIR_BENCH_BENCH_JSON_H_
