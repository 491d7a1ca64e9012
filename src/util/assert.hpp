// Contract macros for the reasched library.
//
// Three tiers, following the C++ Core Guidelines (I.6, E.12):
//   RS_REQUIRE   - precondition on the public API; always on, throws
//                  reasched::ContractViolation so callers can recover/test.
//   RS_CHECK     - internal invariant that is cheap to evaluate; always on.
//                  A failure indicates a bug in this library (or an
//                  instance that violates a documented feasibility
//                  requirement); throws reasched::InternalError.
//   RS_ASSERT    - expensive internal audit; compiled out unless
//                  REASCHED_AUDIT is defined (tests define it).
//
// Checking-gate matrix — who turns which verification on. The macro tier
// above is COMPILE-time gated; the audit subsystem (src/audit/) is
// RUNTIME gated, and the two axes are independent:
//
//   mechanism              compile-time gate   runtime gate
//   ---------------------  ------------------  ---------------------------
//   RS_REQUIRE / RS_CHECK  none (always on)    none (always on)
//   RS_ASSERT              REASCHED_AUDIT      none - zero cost when the
//                          (tests define it)   macro compiles out
//   full sweep audit()     none (always built) SchedulerOptions::audit_policy
//                                              {kFull, cadence} ({kFull, 1}
//                                              = every request), or an
//                                              explicit call
//   incremental audit      none (always built) SchedulerOptions::audit_policy
//                                              {kIncremental, cadence,
//                                              budget, differential}
//   RS_TELEM_* records     none (always built) TelemetryOptions (threaded
//   (src/telemetry/)                           through SchedulerOptions /
//                                              ShardedScheduler::Options /
//                                              SimOptions) flips process-
//                                              wide metric + trace gates;
//                                              span timing beyond 1-in-8
//                                              sampling arms with trace
//
// Consequences worth spelling out:
//   * A release build WITHOUT REASCHED_AUDIT still audits fully when asked
//     at runtime - the audit code is ordinary code, not RS_ASSERT bodies.
//   * A test build WITH REASCHED_AUDIT but the runtime gate off runs
//     only RS_CHECK plus the inline RS_ASSERT micro-asserts; no sweeps.
//   * "Audit off" (audit_policy.mode == kOff) must mean ZERO audit work -
//     no engine is allocated, no mutation events fire (one null-pointer
//     branch), no sweep ever runs. The bench smoke asserts
//     ReservationScheduler::audit_work().zero() stays true in that
//     configuration (bench_e15_audit --quick).
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace reasched {

/// Thrown when a public-API precondition is violated.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what) : std::logic_error(what) {}
};

/// Thrown when an internal invariant fails (library bug or infeasible input
/// surfaced in a place where no graceful policy applies).
class InternalError : public std::logic_error {
 public:
  explicit InternalError(const std::string& what) : std::logic_error(what) {}
};

/// Thrown by schedulers (under OverflowPolicy::kThrow) when the instance is
/// not sufficiently underallocated for the algorithm's guarantees.
class InfeasibleError : public std::runtime_error {
 public:
  explicit InfeasibleError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] inline void throw_contract(const char* expr, const char* file, int line,
                                        const std::string& msg) {
  std::ostringstream os;
  os << "precondition failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " - " << msg;
  throw ContractViolation(os.str());
}

[[noreturn]] inline void throw_internal(const char* expr, const char* file, int line,
                                        const std::string& msg) {
  std::ostringstream os;
  os << "invariant failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " - " << msg;
  throw InternalError(os.str());
}
}  // namespace detail

}  // namespace reasched

#define RS_REQUIRE(expr, msg)                                                \
  do {                                                                       \
    if (!(expr)) {                                                           \
      ::reasched::detail::throw_contract(#expr, __FILE__, __LINE__, (msg));  \
    }                                                                        \
  } while (0)

#define RS_CHECK(expr, msg)                                                  \
  do {                                                                       \
    if (!(expr)) {                                                           \
      ::reasched::detail::throw_internal(#expr, __FILE__, __LINE__, (msg));  \
    }                                                                        \
  } while (0)

#ifdef REASCHED_AUDIT
#define RS_ASSERT(expr, msg) RS_CHECK(expr, msg)
#else
#define RS_ASSERT(expr, msg) \
  do {                       \
  } while (0)
#endif
