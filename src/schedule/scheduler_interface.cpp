#include "schedule/scheduler_interface.hpp"

#include "util/assert.hpp"

namespace reasched {

bool serve_request(IReallocScheduler& scheduler, const Request& request,
                   FlatHashSet<JobId>& rejected_ids, RequestStats& stats) {
  if (request.kind == RequestKind::kInsert) {
    try {
      stats = scheduler.insert(request.job, request.window);
    } catch (const InfeasibleError&) {
      rejected_ids.insert(request.job);
      return false;
    }
    rejected_ids.erase(request.job);  // id may be reused after a rejection
    return true;
  }
  // The job never entered the scheduler; its delete is moot.
  if (rejected_ids.erase(request.job) != 0) return false;
  stats = scheduler.erase(request.job);
  return true;
}

void IReallocScheduler::check_window(Window window) const {
  RS_REQUIRE(window.valid(), name() + "::insert: empty window");
}

BatchResult IReallocScheduler::apply(std::span<const Request> batch) {
  BatchResult result;
  result.stats.resize(batch.size());
  FlatHashSet<JobId> rejected_ids;  // inserts rejected within this batch
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (serve_request(*this, batch[i], rejected_ids, result.stats[i])) {
      result.total += result.stats[i];
    } else {
      result.rejected.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return result;
}

}  // namespace reasched
