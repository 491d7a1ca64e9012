// Shared helpers for the experiment binaries (bench_e1 .. bench_e12).
//
// Every binary prints a paper-style table to stdout; pass --csv to emit
// machine-readable CSV instead, or --json[=path] to additionally write the
// results as a machine-readable JSON document (the BENCH_*.json baselines
// checked into the repo root are produced this way). The experiments and
// their mapping to the paper's claims are indexed in DESIGN.md §2 and
// EXPERIMENTS.md.
#pragma once

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "reasched/reasched.hpp"
#include "util/probe_group.hpp"

#ifndef REASCHED_BUILD_TYPE
#define REASCHED_BUILD_TYPE "unknown"  // set by CMakeLists.txt
#endif

namespace reasched::bench {

struct Args {
  bool csv = false;
  bool quick = false;  // smaller sweeps for smoke-testing
  bool json = false;   // write a JSON result document
  std::string json_path;  // destination; empty = binary-specific default
};

inline Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--csv") args.csv = true;
    if (arg == "--quick") args.quick = true;
    if (arg == "--json") args.json = true;
    if (arg.rfind("--json=", 0) == 0) {
      args.json = true;
      args.json_path = arg.substr(7);
    }
  }
  return args;
}

/// Flat row-oriented JSON document builder:
///   {"bench": "...", "meta": {...}, "rows": [{...}, {...}]}
/// Covers exactly what the BENCH_*.json baselines need — no dependency, no
/// nesting, insertion order preserved. The meta object records the build
/// flavor the numbers were produced under (probe dispatch arm, telemetry
/// compile gate, build type) and the host (core count, CPU model, as E21
/// records them) so a bench-gate failure names the baseline's provenance;
/// tools/bench_compare.py prints it and tolerates baselines that predate
/// it.
class JsonRows {
 public:
  explicit JsonRows(std::string bench_name) : bench_(std::move(bench_name)) {
    meta_.emplace_back("probe_backend", quote(probe::kBackendName));
    meta_.emplace_back("telemetry", quote(RS_TELEM_COMPILED ? "on" : "off"));
    meta_.emplace_back("build_type", quote(REASCHED_BUILD_TYPE));
    meta_.emplace_back("nproc", std::to_string(std::thread::hardware_concurrency()));
    meta_.emplace_back("cpu_model", quote(cpu_model()));
  }

  JsonRows& row() {
    rows_.emplace_back();
    return *this;
  }
  JsonRows& field(const std::string& key, const std::string& value) {
    rows_.back().emplace_back(key, quote(value));
    return *this;
  }
  JsonRows& field(const std::string& key, const char* value) {
    return field(key, std::string(value));
  }
  JsonRows& field(const std::string& key, bool value) {
    rows_.back().emplace_back(key, value ? "true" : "false");
    return *this;
  }
  JsonRows& field(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    rows_.back().emplace_back(key, buf);
    return *this;
  }
  template <class Int>
    requires std::is_integral_v<Int>
  JsonRows& field(const std::string& key, Int value) {
    rows_.back().emplace_back(key, std::to_string(value));
    return *this;
  }

  void write(std::ostream& os) const {
    os << "{\n  \"bench\": " << quote(bench_) << ",\n  \"meta\": {";
    for (std::size_t f = 0; f < meta_.size(); ++f) {
      if (f > 0) os << ", ";
      os << quote(meta_[f].first) << ": " << meta_[f].second;
    }
    os << "},\n  \"rows\": [\n";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      os << "    {";
      for (std::size_t f = 0; f < rows_[r].size(); ++f) {
        if (f > 0) os << ", ";
        os << quote(rows_[r][f].first) << ": " << rows_[r][f].second;
      }
      os << (r + 1 < rows_.size() ? "},\n" : "}\n");
    }
    os << "  ]\n}\n";
  }

  /// Writes to args.json_path (or `default_path`) when --json was passed.
  void emit(const Args& args, const std::string& default_path) const {
    if (!args.json) return;
    const std::string& path = args.json_path.empty() ? default_path : args.json_path;
    std::ofstream os(path);
    RS_REQUIRE(os.good(), "JsonRows::emit: cannot open output file");
    write(os);
    std::cerr << "wrote " << path << '\n';
  }

 private:
  /// The first "model name" line of /proc/cpuinfo ("Model" on ARM), or
  /// "unknown".
  static std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) != 0 && line.rfind("Model", 0) != 0) continue;
      const std::size_t colon = line.find(':');
      const std::size_t value = line.find_first_not_of(" \t", colon + 1);
      if (colon != std::string::npos && value != std::string::npos) {
        return line.substr(value);
      }
    }
    return "unknown";
  }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
    return out;
  }

  std::string bench_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

/// Per-request wall-clock sampler behind the standard latency block every
/// bench_e1* --json output carries (ISSUE 7): wrap the serve call, then
/// append the block to the row with latency_fields(). Buckets are the
/// telemetry tier's log-spaced HDR scheme (<= 3% relative error), so the
/// sampler is allocation-free no matter how long the run is.
class LatencySampler {
 public:
  template <class Fn>
  decltype(auto) sample(Fn&& fn) {
    const std::uint64_t start = telemetry::now_ns();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      hist_.record(telemetry::now_ns() - start);
    } else {
      decltype(auto) result = fn();
      hist_.record(telemetry::now_ns() - start);
      return result;
    }
  }
  void reset() noexcept { hist_ = telemetry::LatencyHistogram{}; }
  [[nodiscard]] const telemetry::LatencyHistogram& hist() const noexcept {
    return hist_;
  }

 private:
  telemetry::LatencyHistogram hist_;
};

/// The standard p50/p90/p99/p999/max latency block, in microseconds.
/// Omitted entirely when the histogram is empty (e.g. a mode that never
/// sampled), so baselines do not grow all-zero noise fields.
inline JsonRows& latency_fields(JsonRows& json,
                                const telemetry::LatencyHistogram& hist) {
  if (hist.total() == 0) return json;
  const auto us = [&](std::uint64_t ns) { return static_cast<double>(ns) / 1e3; };
  return json.field("latency_p50_us", us(hist.percentile(0.50)))
      .field("latency_p90_us", us(hist.percentile(0.90)))
      .field("latency_p99_us", us(hist.percentile(0.99)))
      .field("latency_p999_us", us(hist.percentile(0.999)))
      .field("latency_max_us", us(hist.max()));
}

inline void emit(const Table& table, const Args& args) {
  if (args.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
    std::cout << '\n';
  }
}

/// The scheduler roster most experiments compare.
struct Contender {
  std::string label;
  std::unique_ptr<IReallocScheduler> scheduler;
};

inline std::vector<Contender> standard_roster(unsigned machines,
                                              const SchedulerOptions& options) {
  std::vector<Contender> roster;
  roster.push_back({"reservation (paper)",
                    std::make_unique<ReallocatingScheduler>(machines, options)});
  roster.push_back(
      {"naive-pecking (Lemma 4)",
       std::make_unique<ReallocatingScheduler>(
           machines, [] { return std::make_unique<NaiveScheduler>(); }, "naive")});
  roster.push_back(
      {"edf-repair (classic)",
       std::make_unique<ReallocatingScheduler>(
           machines,
           [] {
             return std::make_unique<GreedyRepairScheduler>(
                 GreedyRepairScheduler::Fit::kEarliest);
           },
           "edf-repair")});
  roster.push_back({"opt-rebuild (offline)",
                    std::make_unique<OptRebuildScheduler>(machines)});
  return roster;
}

}  // namespace reasched::bench
