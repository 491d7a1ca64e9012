// Minimal fixed-size thread pools.
//
// ThreadPool: one shared queue, used to parallelize benchmark sweeps and
// batch validation — embarrassingly parallel harness work where any worker
// may take any task.
//
// ShardedThreadPool: one deque per worker, used by the sharded scheduling
// service (src/service/). Every task has a *home* worker — a cache
// preference, not a correctness requirement — and per-worker deques avoid
// a shared-queue lock on the batch hot path. Idle workers — and the batch
// caller, via try_run_stealable() — take from a backlogged sibling's back
// end, so a hotspot shard under skewed machine→shard placement cannot
// serialize the whole batch (DESIGN.md §11).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <vector>

#include "telemetry/registry.hpp"

namespace reasched {

class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; returns a future for its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard lock(mutex_);
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Runs fn(i) for i in [0, count) across the pool and waits for all.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Pool with per-worker work-stealing deques. `workers` may be zero (a
/// valid pool that accepts no tasks — the single-shard service runs
/// everything inline on the caller).
class ShardedThreadPool {
 public:
  explicit ShardedThreadPool(std::size_t workers);
  ~ShardedThreadPool();

  ShardedThreadPool(const ShardedThreadPool&) = delete;
  ShardedThreadPool& operator=(const ShardedThreadPool&) = delete;

  /// Enqueues a task with home worker `home`: the home worker prefers it
  /// (front of its deque, submission order), but any idle worker — or the
  /// caller, via try_run_stealable() — may take it from the back. A
  /// hotspot shard's backlog then spreads to idle siblings instead of
  /// serializing behind one worker (DESIGN.md §11, ingestion under skewed
  /// machine→shard placement). The "svc.queue.depth.<home>" gauge counts
  /// the tasks waiting in each worker's deque.
  std::future<void> submit_stealable(std::size_t home, std::function<void()> fn);

  /// Runs one stealable task on the calling thread, if any is queued
  /// anywhere. Returns whether a task ran. The batch caller uses this to
  /// lend its own cycles while it waits on the batch's futures.
  bool try_run_stealable();

  /// Stealable tasks executed by a thread other than their home worker
  /// (process-lifetime, monotone).
  [[nodiscard]] std::uint64_t steals() const noexcept {
    return steals_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

 private:
  struct Worker {
    std::thread thread;
    std::mutex mutex;
    std::condition_variable cv;
    // Owner pops the front (submission order); thieves pop the back.
    std::deque<std::packaged_task<void()>> stealable;
    bool stopping = false;
    std::size_t index = 0;  // position in workers_
    /// "svc.queue.depth.<index>": tasks waiting in `stealable`. Unset when
    /// the telemetry record paths are compiled out.
    std::optional<telemetry::Gauge> depth;
  };

  void worker_loop(Worker& worker);
  /// Steals and runs one task from any worker except `exclude`
  /// (pass size() to scan all). Returns whether a task ran.
  bool steal_and_run(std::size_t exclude);

  // unique_ptr: Worker holds a mutex/cv and must not move when the vector
  // is built.
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Total queued stealable tasks — a wake hint for idle workers, exact
  /// only under the per-worker locks.
  std::atomic<std::size_t> stealable_count_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::size_t> steal_cursor_{0};  // scan start + victim rotation
};

}  // namespace reasched
