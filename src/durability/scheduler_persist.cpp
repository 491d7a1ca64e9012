#include "durability/scheduler_persist.hpp"

#include "core/reservation_scheduler.hpp"
#include "util/assert.hpp"

namespace reasched::durability {

namespace {

constexpr std::uint64_t kStateMagic = 0x5253534E41503031ULL;  // "RSSNAP01"
// Bumped on any change to the encoding. A snapshot of another version is
// refused, and recovery falls back to an older snapshot or a WAL replay.
constexpr std::uint32_t kStateVersion = 4;

void put_window_key(ByteSink& sink, const WindowKey& w) {
  sink.i64(w.start);
  sink.u8(w.span_log);
}

WindowKey get_window_key(ByteSource& source) {
  WindowKey w;
  w.start = source.i64();
  w.span_log = source.u8();
  return w;
}

}  // namespace

std::uint64_t SchedulerPersist::options_fingerprint(const SchedulerOptions& o) {
  // FNV-1a over the fields that shape placements and replay determinism.
  // The audit policy is deliberately absent: auditing never changes a
  // placement, so a snapshot written under one policy loads correctly
  // under another.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(o.gamma);
  mix(o.trimming ? 1 : 0);
  mix(static_cast<std::uint64_t>(o.overflow));
  mix(static_cast<std::uint64_t>(o.placement));
  mix(o.rebuild_batch);
  const unsigned count = o.levels.level_count();
  mix(count);
  for (unsigned level = 0; level < count; ++level) {
    mix(o.levels.max_span(level));
    if (level >= 1) mix(o.levels.interval_size(level));
  }
  return h;
}

bool SchedulerPersist::holds(const ReservationScheduler& s, JobId id,
                             const Window& window) {
  const ReservationScheduler::JobState* job = s.jobs_.find(id);
  return job != nullptr && job->original == window;
}

void SchedulerPersist::save(const ReservationScheduler& s, ByteSink& sink) {
  RS_REQUIRE(s.migration_ == nullptr,
             "SchedulerPersist::save: rebuild migration in flight (snapshot "
             "only at quiescent points)");
  sink.u64(kStateMagic);
  sink.u32(kStateVersion);
  sink.u64(options_fingerprint(s.options_));
  sink.u64(s.n_star_);
  sink.u64(s.parked_count_);
  sink.u64(s.audit_request_index_);

  s.jobs_.serialize(sink, [](ByteSink& out, const JobId& id,
                             const ReservationScheduler::JobState& job) {
    out.u64(id.value);
    put_window(out, job.original);
    put_window(out, job.window);
    out.u32(job.level);
    out.i64(job.slot);
    out.u8(job.parked ? 1 : 0);
  });

  sink.u64(s.levels_.size());
  for (const auto& ls : s.levels_) {
    ls.intervals.serialize(sink, [&](ByteSink& out, const Time& base,
                                     const ReservationScheduler::Interval& interval) {
      out.i64(base);
      // Sparse slot table: only slots carrying state. The counters and the
      // fulfillment cache are skipped — the first are recounted from the
      // cells on load, the second reloads kInvalid.
      std::uint32_t interesting = 0;
      for (u64 i = 0; i < ls.interval_size; ++i) {
        const auto& slot = interval.slots[i];
        if (slot.lower_occupied || slot.assigned) ++interesting;
      }
      out.u32(interesting);
      for (u64 i = 0; i < ls.interval_size; ++i) {
        const auto& slot = interval.slots[i];
        if (!slot.lower_occupied && !slot.assigned) continue;
        out.u32(static_cast<std::uint32_t>(i));
        out.u8(static_cast<std::uint8_t>((slot.lower_occupied ? 1 : 0) |
                                         (slot.assigned ? 2 : 0)));
        if (slot.assigned) out.u8(slot.cls);
      }
    });

    ls.windows.serialize(sink, [](ByteSink& out, const WindowKey& key,
                                  const ReservationScheduler::ActiveWindow& window) {
      put_window_key(out, key);
      out.u64(window.jobs);
      out.u64(window.claim_cursor);
      window.free_assigned.serialize(out,
                                     [](ByteSink& o, const Time& t) { o.i64(t); });
    });
  }
}

void SchedulerPersist::load(ReservationScheduler& s, ByteSource& source) {
  RS_REQUIRE(s.jobs_.empty() && s.migration_ == nullptr && s.retiring_.empty(),
             "SchedulerPersist::load: target must be freshly constructed");
  if (source.u64() != kStateMagic) throw CorruptInput("snapshot: bad state magic");
  if (source.u32() != kStateVersion) {
    throw CorruptInput("snapshot: unsupported state version");
  }
  if (source.u64() != options_fingerprint(s.options_)) {
    throw CorruptInput(
        "snapshot: scheduler options mismatch (saved under a different "
        "configuration)");
  }
  s.n_star_ = source.u64();
  s.parked_count_ = source.u64();
  s.audit_request_index_ = source.u64();

  s.jobs_.deserialize(source, [](ByteSource& in, JobId& id,
                                 ReservationScheduler::JobState& job) {
    id.value = in.u64();
    job.original = get_window(in);
    job.window = get_window(in);
    job.level = in.u32();
    job.slot = in.i64();
    job.parked = in.u8() != 0;
  });
  // The occupant map is the inverse of the job table's slots.
  s.occ_.reserve(s.jobs_.size());
  s.jobs_.for_each([&s](const JobId& id, const ReservationScheduler::JobState& job) {
    if (s.occ_.occupied(job.slot)) throw CorruptInput("snapshot: two jobs on one slot");
    s.occ_.place(job.slot, id);
  });

  const std::uint64_t level_count = source.u64();
  if (level_count != s.levels_.size()) {
    throw CorruptInput("snapshot: level-count mismatch");
  }
  for (unsigned level = 0; level < s.levels_.size(); ++level) {
    auto& ls = s.levels_[level];
    ls.intervals.deserialize(source, [&ls](ByteSource& in, Time& base,
                                           ReservationScheduler::Interval& interval) {
      base = in.i64();
      interval.base = base;
      if (ls.interval_size == 0) {
        throw CorruptInput("snapshot: interval on a level without intervals");
      }
      ReservationScheduler::carve_interval_block(ls, interval);
      // The counters are the cells', recounted as they load; each cell is
      // listed once, in ascending offset order.
      const std::uint32_t interesting = in.u32();
      for (std::uint32_t e = 0, next = 0; e < interesting; ++e) {
        const std::uint32_t offset = in.u32();
        if (offset >= ls.interval_size) {
          throw CorruptInput("snapshot: slot offset out of range");
        }
        if (offset < next) throw CorruptInput("snapshot: slot offsets not ascending");
        next = offset + 1;
        const std::uint8_t flags = in.u8();
        if (flags > 3) throw CorruptInput("snapshot: unknown slot flag bits");
        auto& slot = interval.slots[offset];
        slot.lower_occupied = (flags & 1) != 0;
        slot.assigned = (flags & 2) != 0;
        if (slot.lower_occupied) ++interval.lower_count;
        if (!slot.assigned) continue;
        // The class names the one window of its span holding the interval;
        // it indexes the per-class counters.
        const std::uint8_t cls = in.u8();
        if (cls >= ls.class_count()) throw CorruptInput("snapshot: slot class out of range");
        slot.cls = cls;
        ++interval.assigned_by_class[cls];
        interval.assigned_class_mask |= u64{1} << cls;
      }
    });

    ls.windows.deserialize(source, [&ls](ByteSource& in, WindowKey& key,
                                         ReservationScheduler::ActiveWindow& window) {
      key = get_window_key(in);
      // A key's span must be a class of its level (level 0 has none):
      // class_of indexes the census by it.
      if (ls.interval_size == 0 || key.span_log < ls.min_span_log ||
          key.span_log > ls.max_span_log) {
        throw CorruptInput("snapshot: window key is not a class of its level");
      }
      window.jobs = in.u64();
      window.claim_cursor = in.u64();
      window.free_assigned.deserialize(in, [](ByteSource& i, Time& t) { t = i.i64(); });
    });
    // The active-window census is the window keys'.
    ls.windows.for_each([&](const WindowKey& key, const ReservationScheduler::ActiveWindow&) {
      s.note_window_activated(level, ls.class_of(key));
    });
  }
  if (!source.exhausted()) throw CorruptInput("snapshot: trailing bytes");

  // The decode is exact; whether the state is one the scheduler could
  // have reached is the audit's call. It then reseeds an attached engine's
  // dirty-tracking shadows from the state it just verified.
  audit_decoded("snapshot: image fails the audit", [&s] { s.check_invariants(); });
  if (s.audit_engine_) s.reseed_audit_engine();
}

}  // namespace reasched::durability
