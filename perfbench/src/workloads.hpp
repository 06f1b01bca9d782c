#pragma once

// The benchmark's workload runner. A run synthesises the workload's inputs
// from the seed (excluded from every timing), then repeats the whole
// computation — a live LiveCluster::run_all_pairs, or a SimCluster run —
// until the measuring time is spent, and reports medians over the
// repeats. Each live repeat runs in a child process forked after the
// synthesis, so no repeat inherits the heap of the ones before it. Every
// live repeat passes the correctness gate.
//
// An untraced run reports the end-to-end metrics. A traced run alternates
// untraced and traced repeats: the traced ones record spans through the
// decorators and causal traces inside the program (trace_sample_n = 1),
// and give every per-layer number; the untraced ones give the base of
// telemetry.trace_overhead.

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "apps/json.hpp"
#include "decorators.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  rocket::apps::JsonValue params;  // the workload's parameter object
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::optional<Perturbation> perturb;
  std::string out_dir;  // result files, span dumps, journal scratch
};

struct RunResult {
  std::uint64_t attempted = 0;  // pairs over all repeats
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;    // by BENCHMARK.json name
  std::map<std::string, std::string> info;  // context recorded beside them
};

RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
