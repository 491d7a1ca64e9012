// Trace replay CLI: turn the library into a command-line tool.
//
//   $ ./trace_replay <trace-file> [scheduler] [machines]
//       [--record-trace FILE] [--replay-trace FILE] [--churn N]
//       [--telemetry] [--trace] [--metrics-out FILE] [--trace-out FILE]
//       [--shards N] [--batch N] [--wal-dir DIR]
//
//   scheduler: reservation (default) | incremental | naive | edf-repair |
//              latest-fit | opt-rebuild | sharded
//
// Reads a request trace (see workload/trace_io.hpp for the format: lines of
// "I <id> <arrival> <deadline>" and "D <id>"), replays it with continuous
// validation, and prints the cost summary. Use `-` to read from stdin.
// Generate traces programmatically, dump one with write_trace(), or pass
// --churn N to synthesize an N-request churn workload in-process (omit
// <trace-file>).
//
// --replay-trace FILE reads the trace from a *binary* WAL-format file
// instead of the positional text trace (a durability log file works as-is:
// a crash's surviving request stream is a ready-made reproducer);
// --record-trace FILE writes the served stream to FILE in that format.
//
// Observability (DESIGN.md §10, §12): --telemetry turns on the process-wide
// metric registry, --trace additionally records span/instant events;
// --metrics-out FILE writes the Registry snapshot as JSON and --trace-out
// FILE writes a chrome://tracing-loadable trace (and implies --trace).
// Serving-grade plane (§12): --prom-out FILE writes the final Prometheus
// exposition; --scrape-interval MS runs the background Scraper during the
// replay; --scrape-out FILE appends its per-interval delta JSONL (rotating);
// --metrics-port PORT serves the exposition on 127.0.0.1 (0 = ephemeral,
// the bound port is printed):
//
//   $ ./trace_replay sharded 8 --churn 200000 --scrape-interval 100
//       --metrics-port 0 --prom-out metrics.prom --trace-out trace.json
//   ...then, while it runs:  curl http://127.0.0.1:<port>/metrics
// The `sharded` kind serves the trace through ShardedScheduler (--shards,
// --batch control the service shape; --wal-dir attaches the durability
// tier), so one run exercises request, rebuild-flip, rehash-drain,
// audit-drain, and WAL-fsync record sites:
//
//   $ ./trace_replay sharded 8 --churn 20000 --shards 4
//       --wal-dir /tmp/replay-wal --metrics-out metrics.json
//       --trace-out trace.json            (one command line)
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>

#include "reasched/reasched.hpp"

namespace {

struct CliOptions {
  unsigned shards = 4;
  std::size_t batch = 64;
  std::string wal_dir;
  reasched::telemetry::TelemetryOptions telemetry;
};

std::unique_ptr<reasched::IReallocScheduler> make_scheduler(const std::string& kind,
                                                            unsigned machines,
                                                            const CliOptions& cli) {
  using namespace reasched;
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  options.telemetry = cli.telemetry;
  if (kind == "reservation") {
    return std::make_unique<ReallocatingScheduler>(machines, options);
  }
  if (kind == "incremental") {
    return std::make_unique<ReallocatingScheduler>(
        machines,
        [options] { return std::make_unique<IncrementalRebuildScheduler>(options); },
        "incremental[m=" + std::to_string(machines) + "]");
  }
  if (kind == "naive") {
    return std::make_unique<ReallocatingScheduler>(
        machines, [] { return std::make_unique<NaiveScheduler>(); },
        "naive[m=" + std::to_string(machines) + "]");
  }
  if (kind == "edf-repair" || kind == "latest-fit") {
    const auto fit = kind == "edf-repair" ? GreedyRepairScheduler::Fit::kEarliest
                                          : GreedyRepairScheduler::Fit::kLatest;
    return std::make_unique<ReallocatingScheduler>(
        machines, [fit] { return std::make_unique<GreedyRepairScheduler>(fit); },
        kind + "[m=" + std::to_string(machines) + "]");
  }
  if (kind == "opt-rebuild") {
    return std::make_unique<OptRebuildScheduler>(machines);
  }
  if (kind == "sharded") {
    // The service pipeline with every instrumented tier live: incremental
    // audits at a visible cadence, partitioned rebuilds and incremental
    // rehash by default, and (with --wal-dir) the WAL.
    options.audit_policy.mode = audit::Mode::kIncremental;
    options.audit_policy.cadence = 64;
    ShardedScheduler::Options service;
    service.shards = cli.shards;
    service.telemetry = cli.telemetry;
    if (!cli.wal_dir.empty()) {
      durability::DurabilityPolicy wal;
      wal.dir = cli.wal_dir;
      wal.sync_every = 1;
      service.wal = wal;
    }
    return std::make_unique<ShardedScheduler>(
        machines, [options] { return std::make_unique<ReservationScheduler>(options); },
        service);
  }
  return nullptr;
}

/// Matches `--name VALUE` and `--name=VALUE`; advances i past a detached
/// value.
bool take_value(int argc, char** argv, int& i, const char* name, std::string& out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(argv[i], name, len) != 0) return false;
  if (argv[i][len] == '=') {
    out = argv[i] + len + 1;
    return true;
  }
  if (argv[i][len] == '\0' && i + 1 < argc) {
    out = argv[++i];
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace reasched;
  std::string record_path;
  std::string replay_path;
  std::string metrics_out;
  std::string trace_out;
  std::string prom_out;
  std::string scrape_interval_arg;
  std::string scrape_out;
  std::string metrics_port_arg;
  std::string shards_arg;
  std::string batch_arg;
  std::string churn_arg;
  CliOptions cli;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (take_value(argc, argv, i, "--record-trace", record_path) ||
        take_value(argc, argv, i, "--replay-trace", replay_path) ||
        take_value(argc, argv, i, "--metrics-out", metrics_out) ||
        take_value(argc, argv, i, "--trace-out", trace_out) ||
        take_value(argc, argv, i, "--prom-out", prom_out) ||
        take_value(argc, argv, i, "--scrape-interval", scrape_interval_arg) ||
        take_value(argc, argv, i, "--scrape-out", scrape_out) ||
        take_value(argc, argv, i, "--metrics-port", metrics_port_arg) ||
        take_value(argc, argv, i, "--wal-dir", cli.wal_dir) ||
        take_value(argc, argv, i, "--shards", shards_arg) ||
        take_value(argc, argv, i, "--batch", batch_arg) ||
        take_value(argc, argv, i, "--churn", churn_arg)) {
      continue;
    }
    if (std::strcmp(argv[i], "--telemetry") == 0) {
      cli.telemetry.enabled = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      cli.telemetry.trace = true;
    } else {
      positional.emplace_back(argv[i]);
    }
  }
  // Output files imply the corresponding recording tier.
  if (!metrics_out.empty()) cli.telemetry.enabled = true;
  if (!trace_out.empty()) cli.telemetry.trace = true;
  if (!prom_out.empty() || !scrape_interval_arg.empty() || !scrape_out.empty() ||
      !metrics_port_arg.empty()) {
    cli.telemetry.enabled = true;
  }

  const bool synthetic = !replay_path.empty() || !churn_arg.empty();
  if (positional.empty() && !synthetic) {
    std::cerr << "usage: " << argv[0]
              << " <trace-file|-> [reservation|incremental|naive|edf-repair|"
                 "latest-fit|opt-rebuild|sharded] [machines]\n"
                 "  [--record-trace FILE] [--replay-trace FILE] [--churn N]\n"
                 "  [--telemetry] [--trace] [--metrics-out FILE] "
                 "[--trace-out FILE]\n"
                 "  [--prom-out FILE] [--scrape-interval MS] "
                 "[--scrape-out FILE] [--metrics-port PORT]\n"
                 "  [--shards N] [--batch N] [--wal-dir DIR]\n"
                 "with --replay-trace or --churn the trace is synthetic;"
                 " omit <trace-file>\n";
    return 2;
  }
  std::size_t arg = 0;
  const std::string path = synthetic ? std::string{} : positional[arg++];
  const std::string kind = positional.size() > arg ? positional[arg++] : "reservation";
  unsigned machines = 1;
  if (positional.size() > arg) {
    try {
      machines = static_cast<unsigned>(std::stoul(positional[arg]));
    } catch (const std::exception&) {
      std::cerr << "bad machines argument: " << positional[arg]
                << " (with --replay-trace or --churn, omit <trace-file>)\n";
      return 2;
    }
  }
  try {
    if (!shards_arg.empty()) cli.shards = static_cast<unsigned>(std::stoul(shards_arg));
    if (!batch_arg.empty()) cli.batch = std::stoul(batch_arg);
  } catch (const std::exception&) {
    std::cerr << "bad --shards/--batch argument\n";
    return 2;
  }

  std::vector<Request> trace;
  try {
    if (!churn_arg.empty()) {
      ChurnParams params;
      params.seed = 1;
      params.requests = std::stoul(churn_arg);
      params.target_active = std::max<std::size_t>(64, params.requests / 8);
      params.machines = machines;
      trace = make_churn_trace(params);
    } else if (!replay_path.empty()) {
      trace = read_trace_wal(replay_path);
    } else if (path == "-") {
      trace = read_trace(std::cin);
    } else {
      std::ifstream file(path);
      if (!file) {
        std::cerr << "cannot open " << path << '\n';
        return 2;
      }
      trace = read_trace(file);
    }
  } catch (const ContractViolation& error) {
    std::cerr << "malformed trace: " << error.what() << '\n';
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "bad --churn argument: " << error.what() << '\n';
    return 2;
  }

  auto scheduler = make_scheduler(kind, machines, cli);
  if (!scheduler) {
    std::cerr << "unknown scheduler kind: " << kind << '\n';
    return 2;
  }

  SimOptions sim;
  sim.validate_every = 100;
  sim.record_trace = record_path;
  sim.record_latency = true;
  sim.telemetry = cli.telemetry;
  if (kind == "sharded") sim.batch_size = cli.batch;

  // Background observability plane for the duration of the replay.
  std::unique_ptr<telemetry::Scraper> scraper;
  if (!scrape_interval_arg.empty() || !scrape_out.empty() ||
      !metrics_port_arg.empty()) {
    telemetry::enable(cli.telemetry);
    telemetry::Scraper::Options scrape;
    try {
      if (!scrape_interval_arg.empty()) {
        scrape.interval_ms =
            static_cast<std::uint32_t>(std::stoul(scrape_interval_arg));
      }
      if (!metrics_port_arg.empty()) {
        scrape.port = std::stoi(metrics_port_arg);
      }
    } catch (const std::exception&) {
      std::cerr << "bad --scrape-interval/--metrics-port argument\n";
      return 2;
    }
    scrape.out_path = scrape_out;
    scraper = std::make_unique<telemetry::Scraper>(std::move(scrape));
    if (scraper->port() > 0) {
      std::cout << "serving metrics on http://127.0.0.1:" << scraper->port()
                << "/metrics\n";
    }
  }

  const auto report = replay_trace(*scheduler, trace, sim);
  if (kind == "sharded" && !cli.wal_dir.empty()) {
    static_cast<ShardedScheduler&>(*scheduler).sync_wal();
  }

  Table table("replay: " + scheduler->name());
  table.set_header({"metric", "value"});
  table.add_row({"requests", Table::num(report.metrics.requests())});
  table.add_row({"rejected (infeasible)", Table::num(report.metrics.rejected())});
  table.add_row({"mean reallocations", Table::num(report.metrics.reallocations().mean(), 4)});
  table.add_row({"p99 reallocations", Table::num(report.metrics.p99_reallocations())});
  table.add_row({"max reallocations", Table::num(report.metrics.max_reallocations())});
  table.add_row({"mean migrations", Table::num(report.metrics.migrations().mean(), 4)});
  table.add_row({"max migrations", Table::num(report.metrics.max_migrations())});
  table.add_row({"degraded placements", Table::num(report.metrics.degraded())});
  table.add_row({"rebuild events", Table::num(report.metrics.rebuilds())});
  const auto& latency = report.metrics.latency_hist();
  if (latency.total() > 0) {
    const char* unit = sim.batch_size > 0 ? " us/batch" : " us/req";
    const auto us = [](std::uint64_t ns) { return Table::num(ns / 1e3, 1); };
    table.add_row({"latency p50", us(latency.percentile(0.50)) + unit});
    table.add_row({"latency p99", us(latency.percentile(0.99)) + unit});
    table.add_row({"latency p999", us(latency.percentile(0.999)) + unit});
    table.add_row({"latency max", us(latency.max()) + unit});
  }
  table.add_row({"wall seconds", Table::num(report.seconds, 3)});
  table.print(std::cout);

  if (scraper != nullptr) {
    scraper->stop();
    std::cout << "scraper: " << scraper->scrapes() << " scrapes";
    if (!scrape_out.empty()) std::cout << ", deltas in " << scrape_out;
    std::cout << '\n';
  }
  if (!prom_out.empty()) {
    std::ofstream out(prom_out);
    if (!out) {
      std::cerr << "cannot write " << prom_out << '\n';
      return 2;
    }
    telemetry::Registry::global().write_prometheus(out);
    std::cout << "prometheus exposition written to " << prom_out << '\n';
  }
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (!out) {
      std::cerr << "cannot write " << metrics_out << '\n';
      return 2;
    }
    telemetry::Registry::global().write_snapshot_json(out);
    std::cout << "telemetry snapshot written to " << metrics_out << '\n';
  }
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    if (!out) {
      std::cerr << "cannot write " << trace_out << '\n';
      return 2;
    }
    telemetry::Registry::global().write_trace_json(out);
    std::cout << "chrome trace written to " << trace_out
              << " (load via chrome://tracing or tools/trace_summarize.py)\n";
  }

  if (!report.clean()) {
    std::cerr << "\nVALIDATION PROBLEM: " << report.first_issue << '\n';
    return 1;
  }
  std::cout << "\nschedule validated every 100 requests: OK\n";
  return 0;
}
