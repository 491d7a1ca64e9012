// The repository's one worker pool: a fixed set of helper threads and one
// primitive, parallel_for. The calling thread always takes part, so a pool
// with zero workers is valid and runs every call inline.
//
// Used by the sharded scheduling service (src/service/) to fan the apply
// phase out over per-machine op lists, and by replay_sweep (src/sim/) for
// embarrassingly parallel harness work. Indices are claimed from one shared
// atomic counter, so no index has a home thread and any machine skew is
// absorbed by whichever thread is free (DESIGN.md §11).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace reasched {

class ThreadPool {
 public:
  /// Spawns `workers` helper threads; 0 is valid (every call runs inline).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(i) exactly once for every i in [0, count). The caller and up to
  /// size() workers claim indices from one shared counter; the call returns
  /// once every fn(i) has returned, without waiting for helpers that have
  /// not woken yet (a late helper finds no index left). If any fn(i) throws,
  /// the first exception is rethrown after every index has run. Returns the
  /// number of indices the calling thread ran. Safe to call concurrently
  /// from several threads.
  std::size_t parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

 private:
  struct Job;

  void worker_loop();
  /// Claims and runs indices of `job` until none is left; returns how many.
  static std::size_t run_indices(Job& job);

  std::mutex mutex_;  // guards queue_ and stopping_
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Job>> queue_;  // one entry per helper wanted
  bool stopping_ = false;
  std::vector<std::thread> workers_;  // last: the threads use the members above
};

}  // namespace reasched
