// PerThreadLog<T>: the per-thread record log behind the tracer, the
// flight recorder and the fairness monitor's ingestion.
//
// Each thread that appends owns one shard. The owner writes into
// fixed-size blocks (stable addresses) and release-publishes the shard's
// write count without a lock; the log's mutex guards registration and the
// block lists, so the hot path takes it only when a block fills. Capacity
// 0 selects the growing policy (keep everything until Drain or Reset);
// N > 0 keeps each shard's trailing N records, overwriting the oldest,
// and counts the overwritten ones.
//
// Drain and Snapshot return the shards in registration order, each in
// append order; shards are never renumbered, so the order depends only on
// which thread first appended when. Drain, Snapshot and Reset must not
// run concurrently with appends (call them between parallel regions).
//
// A destroyed log frees every shard. A shard whose thread has exited is
// freed by the next Drain or Reset; until then Snapshot still shows it.
// Threads find their shard through a thread-local cache keyed on the
// log's process-unique id, so an entry naming a destroyed log never
// matches again.

#ifndef XFAIR_OBS_PER_THREAD_LOG_H_
#define XFAIR_OBS_PER_THREAD_LOG_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace xfair::obs {

namespace detail {

/// The calling thread's process-unique id; the thread-local shared_ptr
/// expires when the thread exits.
inline const std::shared_ptr<const uint64_t>& LogThreadToken() {
  static std::atomic<uint64_t> next{1};
  thread_local const std::shared_ptr<const uint64_t> token =
      std::make_shared<const uint64_t>(next.fetch_add(1));
  return token;
}

inline uint64_t NextLogUid() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1);
}

}  // namespace detail

template <typename T>
class PerThreadLog {
 public:
  static constexpr size_t kBlockSize = 1024;

  /// `capacity` 0: growing; N > 0: each shard keeps its trailing N.
  explicit PerThreadLog(size_t capacity = 0) : capacity_(capacity) {}
  PerThreadLog(const PerThreadLog&) = delete;
  PerThreadLog& operator=(const PerThreadLog&) = delete;

  /// Appends to the calling thread's shard, registering it on first use.
  void Append(const T& record) {
    Shard* s = nullptr;
    for (const auto& [log, shard] : cache_) {
      if (log == uid_) {
        s = shard;
        break;
      }
    }
    if (s == nullptr) s = Register();
    const uint64_t w = s->writes.load(std::memory_order_relaxed);
    const uint64_t slot = Slot(w);
    if (slot / kBlockSize >= s->blocks.size()) AddBlock(s);
    (*s->blocks[slot / kBlockSize])[slot % kBlockSize] = record;
    s->writes.store(w + 1, std::memory_order_release);
  }

  /// Appends every retained record to `out` (null: discards them), empties
  /// the shards and frees those of exited threads.
  void Drain(std::vector<T>* out) {
    std::lock_guard<std::mutex> guard(mutex_);
    for (const auto& s : shards_) {
      if (out != nullptr) CopyRetained(*s, out);
      s->writes.store(0, std::memory_order_release);
    }
    std::erase_if(shards_,
                  [](const auto& s) { return s->owner_alive.expired(); });
  }

  void Reset() { Drain(nullptr); }

  /// The retained records in Drain's order, leaving the log unchanged.
  std::vector<T> Snapshot() const {
    std::vector<T> out;
    std::lock_guard<std::mutex> guard(mutex_);
    for (const auto& s : shards_) CopyRetained(*s, &out);
    return out;
  }

  /// Records the fixed policy overwrote since the last Drain or Reset.
  uint64_t Dropped() const {
    std::lock_guard<std::mutex> guard(mutex_);
    uint64_t dropped = 0;
    for (const auto& s : shards_) {
      const uint64_t w = s->writes.load(std::memory_order_acquire);
      if (capacity_ != 0 && w > capacity_) dropped += w - capacity_;
    }
    return dropped;
  }

  /// Shards held: live appending threads plus exited ones not yet
  /// drained or reset.
  size_t shard_count() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return shards_.size();
  }

 private:
  using Block = std::array<T, kBlockSize>;

  struct Shard {
    uint64_t owner = 0;  ///< LogThreadToken value.
    std::weak_ptr<const uint64_t> owner_alive;
    std::atomic<uint64_t> writes{0};  ///< Appends since last emptied.
    std::vector<std::unique_ptr<Block>> blocks;
  };

  uint64_t Slot(uint64_t index) const {
    return capacity_ == 0 ? index : index % capacity_;
  }

  // The slow paths stay out of line so that Append inlines into
  // per-event loops such as the monitor's batch ingest.

  /// Cache miss: finds or registers the calling thread's shard and
  /// caches it (round-robin replacement).
  [[gnu::noinline]] Shard* Register() {
    const std::shared_ptr<const uint64_t>& me = detail::LogThreadToken();
    std::lock_guard<std::mutex> guard(mutex_);
    Shard* shard = nullptr;
    for (const auto& s : shards_) {
      if (s->owner == *me) shard = s.get();
    }
    if (shard == nullptr) {
      shards_.push_back(std::make_unique<Shard>());
      shard = shards_.back().get();
      shard->owner = *me;
      shard->owner_alive = me;
    }
    cache_[cache_victim_++ % cache_.size()] = {uid_, shard};
    return shard;
  }

  [[gnu::noinline]] void AddBlock(Shard* s) {
    auto block = std::make_unique<Block>();
    std::lock_guard<std::mutex> guard(mutex_);
    s->blocks.push_back(std::move(block));
  }

  /// Appends the shard's retained records, oldest first.
  void CopyRetained(const Shard& s, std::vector<T>* out) const {
    const uint64_t w = s.writes.load(std::memory_order_acquire);
    const uint64_t n = capacity_ == 0 || w < capacity_ ? w : capacity_;
    for (uint64_t i = w - n; i < w; ++i) {
      const uint64_t slot = Slot(i);
      out->push_back((*s.blocks[slot / kBlockSize])[slot % kBlockSize]);
    }
  }

  /// The calling thread's (log uid, shard) lookups, shared by every log
  /// of type T.
  static thread_local inline std::array<std::pair<uint64_t, Shard*>, 4>
      cache_{};
  static thread_local inline size_t cache_victim_ = 0;

  const uint64_t uid_ = detail::NextLogUid();
  const uint64_t capacity_;
  mutable std::mutex mutex_;  ///< Guards shards_ and every block list.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace xfair::obs

#endif  // XFAIR_OBS_PER_THREAD_LOG_H_
