#pragma once
// The three workloads of the end-to-end benchmark (see perfbench/README.md
// for their make-up and the layer map):
//
//   serve-dvfs     the real ScoreServer on loopback TCP serving one DVFS
//                  RF (M=100, arena kernels): 4-row exact detection
//                  requests, closed then open loop;
//   serve-hpc      the same server serving HPC RF (JIT kernels), LR and
//                  SVM: 64-row estimate requests, linear models split
//                  evenly between the exact and fast tiers;
//   publish-churn  a DetectorRegistry with no socket: cold loads, hot
//                  swaps published by save_model + refresh(), and a seeded
//                  Zipf key sequence under a residency budget.
//
// Every workload also measures cold start and hot swap of the models it
// serves, so each run reports every end-to-end metric.

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace pb {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for artifacts (created and removed by the run).
  std::string work_dir;
  /// Where to write the run record / the spans; empty = not written.
  std::string record_path;
  std::string trace_path;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  ///< filled by the traced run only
  /// Extra record fields, already JSON-encoded ("key": value pairs).
  std::vector<std::pair<std::string, std::string>> record;
};

RunResult run_workload(const Args& args);

}  // namespace pb
