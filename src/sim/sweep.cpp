#include "sim/sweep.hpp"

#include <algorithm>
#include <thread>

#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace reasched {

std::vector<SimReport> replay_sweep(const std::vector<SweepJob>& jobs,
                                    unsigned threads) {
  for (const auto& job : jobs) {
    RS_REQUIRE(job.make_scheduler != nullptr && job.trace != nullptr,
               "replay_sweep: incomplete job");
  }
  std::vector<SimReport> reports(jobs.size());
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  ThreadPool pool(threads - 1);  // the caller is the last thread
  pool.parallel_for(jobs.size(), [&](std::size_t index) {
    const SweepJob& job = jobs[index];
    const auto scheduler = job.make_scheduler();
    reports[index] = replay_trace(*scheduler, *job.trace, job.options);
  });
  return reports;
}

}  // namespace reasched
