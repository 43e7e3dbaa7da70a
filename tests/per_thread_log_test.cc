// Tests for PerThreadLog<T> (src/obs/per_thread_log.h), the per-thread
// record log under the tracer, the flight recorder and the fairness
// monitor: both retention policies across block boundaries, snapshot vs
// drain, registration-order draining, and the release of shards whose
// thread exited or whose log was destroyed. The log is plain storage and
// does not depend on XFAIR_OBS, so these run in every build.

#include "src/obs/per_thread_log.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace xfair {
namespace {

using obs::PerThreadLog;
using Log = PerThreadLog<int>;

constexpr int kBlock = static_cast<int>(Log::kBlockSize);

std::vector<int> Range(int first, int last) {
  std::vector<int> out;
  for (int i = first; i < last; ++i) out.push_back(i);
  return out;
}

/// Appends `values` to `log` from a fresh thread and joins it.
void AppendFromThread(Log& log, const std::vector<int>& values) {
  std::thread([&] {
    for (int v : values) log.Append(v);
  }).join();
}

TEST(PerThreadLog, GrowingPolicyKeepsEveryRecordAcrossBlocks) {
  Log log;
  const int n = 3 * kBlock + 5;
  for (int i = 0; i < n; ++i) log.Append(i);
  EXPECT_EQ(log.Dropped(), 0u);
  std::vector<int> out;
  log.Drain(&out);
  EXPECT_EQ(out, Range(0, n));
  // Drained: the next drain starts empty and reuses the shard.
  out.clear();
  log.Append(7);
  log.Drain(&out);
  EXPECT_EQ(out, std::vector<int>{7});
  EXPECT_EQ(log.shard_count(), 1u);
}

TEST(PerThreadLog, FixedPolicyKeepsTrailingRecordsAndCountsDrops) {
  // One capacity inside a block and one that wraps across blocks.
  for (const int capacity : {10, kBlock + 7}) {
    Log log(static_cast<size_t>(capacity));
    const int n = 3 * kBlock + 11;
    for (int i = 0; i < n; ++i) log.Append(i);
    EXPECT_EQ(log.Snapshot(), Range(n - capacity, n)) << capacity;
    EXPECT_EQ(log.Dropped(), static_cast<uint64_t>(n - capacity));
    log.Reset();
    EXPECT_TRUE(log.Snapshot().empty());
    EXPECT_EQ(log.Dropped(), 0u);
    // Below capacity nothing is dropped.
    for (int i = 0; i < 5; ++i) log.Append(i);
    EXPECT_EQ(log.Snapshot(), Range(0, 5));
    EXPECT_EQ(log.Dropped(), 0u);
  }
}

TEST(PerThreadLog, SnapshotIsNonDestructive) {
  Log log;
  for (int i = 0; i < kBlock + 3; ++i) log.Append(i);
  const std::vector<int> first = log.Snapshot();
  EXPECT_EQ(first, Range(0, kBlock + 3));
  EXPECT_EQ(log.Snapshot(), first);
  std::vector<int> drained;
  log.Drain(&drained);
  EXPECT_EQ(drained, first);
  EXPECT_TRUE(log.Snapshot().empty());
}

TEST(PerThreadLog, DrainReturnsShardsInRegistrationOrder) {
  Log log;
  log.Append(1);  // This thread registers first...
  AppendFromThread(log, {10, 11});
  log.Append(2);  // ...so its later records still drain first.
  AppendFromThread(log, {20});
  std::vector<int> out;
  log.Drain(&out);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 10, 11, 20}));
  // The exited threads' shards were freed by the drain; a new thread
  // registers after the surviving one.
  EXPECT_EQ(log.shard_count(), 1u);
  AppendFromThread(log, {30});
  log.Append(3);
  out.clear();
  log.Drain(&out);
  EXPECT_EQ(out, (std::vector<int>{3, 30}));
}

TEST(PerThreadLog, ExitedThreadsShardLivesUntilDrainOrReset) {
  Log ring(4);
  AppendFromThread(ring, {1, 2, 3, 4, 5, 6});
  // The thread is gone, but its trailing records are still visible.
  EXPECT_EQ(ring.shard_count(), 1u);
  EXPECT_EQ(ring.Snapshot(), (std::vector<int>{3, 4, 5, 6}));
  EXPECT_EQ(ring.Dropped(), 2u);
  ring.Reset();
  EXPECT_EQ(ring.shard_count(), 0u);
  EXPECT_TRUE(ring.Snapshot().empty());
}

/// A record that counts its live instances, so a test can see whether a
/// log's blocks were freed.
struct Counted {
  static inline int live = 0;
  int value = 0;
  Counted() { ++live; }
  Counted(const Counted& other) : value(other.value) { ++live; }
  Counted& operator=(const Counted&) = default;
  ~Counted() { --live; }
};

TEST(PerThreadLog, DestroyedLogFreesShardsTheCacheStillNames) {
  const int before = Counted::live;
  for (int round = 0; round < 20; ++round) {
    // This thread's lookup cache names each log after its first append;
    // destroying the log must still free the shard, and a later log
    // (possibly at the same address) must not inherit it.
    PerThreadLog<Counted> log;
    Counted c;
    c.value = round;
    log.Append(c);
    const std::vector<Counted> kept = log.Snapshot();
    ASSERT_EQ(kept.size(), 1u);
    EXPECT_EQ(kept[0].value, round);
  }
  EXPECT_EQ(Counted::live, before);
}

}  // namespace
}  // namespace xfair
