#include "service/reallocating_scheduler.hpp"

#include "core/alignment.hpp"
#include "core/reservation_scheduler.hpp"
#include "util/assert.hpp"

namespace reasched {

ReallocatingScheduler::ReallocatingScheduler(unsigned machines, SchedulerOptions options)
    : inner_(machines,
             [options] { return std::make_unique<ReservationScheduler>(options); }),
      label_("reallocating-scheduler[m=" + std::to_string(machines) + "]") {}

ReallocatingScheduler::ReallocatingScheduler(unsigned machines,
                                             const ShardedScheduler::Factory& factory,
                                             std::string label)
    : inner_(machines, factory), label_(std::move(label)) {}

RequestStats ReallocatingScheduler::insert(JobId id, Window window) {
  RS_REQUIRE(window.valid(), "ReallocatingScheduler::insert: empty window");
  // §5: replace the window by its largest aligned sub-window. Lemma 10:
  // a 4γ-underallocated instance stays γ-underallocated under this shrink.
  return inner_.insert(id, aligned_shrink(window));
}

RequestStats ReallocatingScheduler::erase(JobId id) { return inner_.erase(id); }

}  // namespace reasched
