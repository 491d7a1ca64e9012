#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "telemetry/registry.hpp"
#include "util/assert.hpp"

namespace reasched {

#if RS_TELEM_COMPILED
namespace {

/// Per-worker queue-depth gauge ("svc.queue.depth.<k>"), interned when a
/// pool with that many workers is built, so only pools that actually run
/// pay for slots. Worker indexes beyond the named range share a catch-all —
/// the registry has a fixed gauge budget. Returned by value (a handle):
/// each worker caches its own, so the task path takes no lock.
telemetry::Gauge queue_depth_gauge(std::size_t index) {
  constexpr std::size_t kNamedQueues = 16;
  static std::mutex mutex;
  static std::vector<telemetry::Gauge> gauges;
  if (index > kNamedQueues) index = kNamedQueues;  // catch-all slot
  std::lock_guard lock(mutex);
  while (gauges.size() <= index) {
    const std::size_t k = gauges.size();
    gauges.emplace_back(k == kNamedQueues
                            ? std::string("svc.queue.depth.other")
                            : "svc.queue.depth." + std::to_string(k));
  }
  return gauges[index];
}

}  // namespace
#endif

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

ShardedThreadPool::ShardedThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    Worker& worker = *workers_.back();
    worker.index = i;
#if RS_TELEM_COMPILED
    worker.depth.emplace(queue_depth_gauge(i));
#endif
  }
  // Threads start only once workers_ is complete: a thief scans it without
  // a lock, so it must not grow under a running worker.
  for (auto& worker : workers_) {
    Worker& self = *worker;
    self.thread = std::thread([this, &self] { worker_loop(self); });
  }
}

ShardedThreadPool::~ShardedThreadPool() {
  for (auto& worker : workers_) {
    {
      std::lock_guard lock(worker->mutex);
      worker->stopping = true;
    }
    worker->cv.notify_one();
  }
  for (auto& worker : workers_) worker->thread.join();
}

std::future<void> ShardedThreadPool::submit_stealable(std::size_t home,
                                                      std::function<void()> fn) {
  RS_REQUIRE(home < workers_.size(),
             "ShardedThreadPool::submit_stealable: home worker out of range");
  Worker& worker = *workers_[home];
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> result = task.get_future();
  // Counted before the push, so a pop can never drive the gauge negative.
  RS_TELEM_GAUGE_ADD(*worker.depth, 1);
  {
    std::lock_guard lock(worker.mutex);
    worker.stealable.push_back(std::move(task));
    stealable_count_.fetch_add(1, std::memory_order_relaxed);
  }
  worker.cv.notify_one();
  // Wake one potential thief (rotating) so an idle sibling can help a
  // backlogged home without a full notify-all herd.
  if (workers_.size() > 1) {
    const std::size_t buddy =
        steal_cursor_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
    if (buddy != home) workers_[buddy]->cv.notify_one();
  }
  return result;
}

bool ShardedThreadPool::steal_and_run(std::size_t exclude) {
  if (stealable_count_.load(std::memory_order_relaxed) == 0) return false;
  const std::size_t n = workers_.size();
  const std::size_t start =
      steal_cursor_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t victim = (start + k) % n;
    if (victim == exclude) continue;
    Worker& worker = *workers_[victim];
    std::packaged_task<void()> task;
    {
      std::lock_guard lock(worker.mutex);
      if (!worker.stealable.empty()) {
        task = std::move(worker.stealable.back());
        worker.stealable.pop_back();
        stealable_count_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    if (task.valid()) {
      RS_TELEM_GAUGE_ADD(*worker.depth, -1);
      steals_.fetch_add(1, std::memory_order_relaxed);
      task();
      return true;
    }
  }
  return false;
}

bool ShardedThreadPool::try_run_stealable() { return steal_and_run(workers_.size()); }

void ShardedThreadPool::worker_loop(Worker& worker) {
  // After a fruitless steal scan the stealable-count hint may still be
  // nonzero (a sibling claimed the task first), so the next wait uses a
  // timeout instead of the hint to avoid a notify-free spin.
  bool scan_failed = false;
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(worker.mutex);
      const auto has_local = [&] {
        return worker.stopping || !worker.stealable.empty();
      };
      if (scan_failed) {
        worker.cv.wait_for(lock, std::chrono::milliseconds(1), has_local);
      } else {
        worker.cv.wait(lock, [&] {
          return has_local() ||
                 stealable_count_.load(std::memory_order_relaxed) > 0;
        });
      }
      if (!worker.stealable.empty()) {
        task = std::move(worker.stealable.front());
        worker.stealable.pop_front();
        stealable_count_.fetch_sub(1, std::memory_order_relaxed);
      } else if (worker.stopping) {
        return;
      }
    }
    if (task.valid()) {
      RS_TELEM_GAUGE_ADD(*worker.depth, -1);
      task();
      scan_failed = false;
      continue;
    }
    scan_failed = !steal_and_run(worker.index);
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    futures.push_back(submit([&fn, i] { fn(i); }));
  }
  for (auto& f : futures) f.get();
}

}  // namespace reasched
