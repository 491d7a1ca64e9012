// Umbrella header for the reasched library — the public API of the
// reference implementation of "Reallocation Problems in Scheduling"
// (Bender, Farach-Colton, Fekete, Fineman, Gilbert; SPAA 2013).
//
// Quickstart:
//   reasched::ReallocatingScheduler scheduler(/*machines=*/4);
//   scheduler.insert(reasched::JobId{1}, reasched::Window{/*a=*/0, /*d=*/64});
//   auto stats = scheduler.erase(reasched::JobId{1});
//   // stats.reallocations, stats.migrations — per-request costs (§2).
#pragma once

#include "base/types.hpp"
#include "base/window.hpp"

#include "core/alignment.hpp"
#include "core/balance_ledger.hpp"
#include "core/incremental_rebuild.hpp"
#include "core/levels.hpp"
#include "core/naive_scheduler.hpp"
#include "core/reservation_scheduler.hpp"
#include "core/scheduler_options.hpp"
#include "core/window_key.hpp"

#include "baseline/greedy_repair_scheduler.hpp"
#include "baseline/opt_rebuild_scheduler.hpp"
#include "baseline/rigid_block_sim.hpp"

#include "durability/crashpoint.hpp"
#include "durability/recovery.hpp"
#include "durability/snapshot.hpp"
#include "durability/wal.hpp"

#include "ingest/admission.hpp"
#include "ingest/ingest_service.hpp"
#include "ingest/mpsc_ring.hpp"

#include "feasibility/edf.hpp"
#include "feasibility/hall.hpp"
#include "feasibility/matching.hpp"
#include "feasibility/underallocation.hpp"

#include "schedule/occupancy_index.hpp"
#include "schedule/render.hpp"
#include "schedule/schedule.hpp"
#include "schedule/scheduler_interface.hpp"
#include "schedule/slot_runs.hpp"
#include "schedule/validator.hpp"

#include "service/reallocating_scheduler.hpp"
#include "service/sharded_scheduler.hpp"

#include "workload/adversary.hpp"
#include "workload/churn.hpp"
#include "workload/doctor_office.hpp"
#include "workload/funnel.hpp"
#include "workload/trace_io.hpp"

#include "metrics/collector.hpp"
#include "sim/driver.hpp"
#include "sim/sweep.hpp"

#include "telemetry/histogram.hpp"
#include "telemetry/options.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/scraper.hpp"
#include "telemetry/trace_ring.hpp"

#include "util/flat_hash.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
