#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace reasched {

/// One parallel_for call. Helpers hold it through a shared_ptr, so a helper
/// that wakes after the call returned can still read `next` and drop it;
/// `fn` is dereferenced only for a claimed index, i.e. while the call is
/// still waiting for that index.
struct ThreadPool::Job {
  std::size_t count = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{0};  // next unclaimed index
  std::mutex mutex;
  std::condition_variable cv;  // signalled when done reaches count
  std::size_t done = 0;        // guarded by mutex: indices whose fn returned
  std::exception_ptr error;    // guarded by mutex: first exception fn threw
};

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
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
    std::shared_ptr<Job> job;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    run_indices(*job);
  }
}

std::size_t ThreadPool::run_indices(Job& job) {
  std::size_t ran = 0;
  for (std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed); i < job.count;
       i = job.next.fetch_add(1, std::memory_order_relaxed)) {
    std::exception_ptr error;
    try {
      (*job.fn)(i);
    } catch (...) {
      error = std::current_exception();
    }
    ++ran;
    std::lock_guard lock(job.mutex);
    if (error && !job.error) job.error = error;
    if (++job.done == job.count) job.cv.notify_one();
  }
  return ran;
}

std::size_t ThreadPool::parallel_for(std::size_t count,
                                     const std::function<void(std::size_t)>& fn) {
  if (count == 0) return 0;
  const auto job = std::make_shared<Job>();
  job->count = count;
  job->fn = &fn;
  // The caller takes one share itself, so at most count - 1 helpers help.
  const std::size_t helpers = std::min(workers_.size(), count - 1);
  if (helpers > 0) {
    {
      std::lock_guard lock(mutex_);
      queue_.insert(queue_.end(), helpers, job);
    }
    for (std::size_t h = 0; h < helpers; ++h) cv_.notify_one();
  }
  const std::size_t ran = run_indices(*job);
  std::unique_lock lock(job->mutex);
  job->cv.wait(lock, [&] { return job->done == count; });
  if (job->error) std::rethrow_exception(job->error);
  return ran;
}

}  // namespace reasched
