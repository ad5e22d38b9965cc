// hmd_perfbench: one run of one workload of the end-to-end benchmark.
//
//   hmd_perfbench --workload <serve-dvfs|serve-hpc|publish-churn>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 --work-dir <dir> [--record <path>] [--trace-out <path>]
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones. The
// run record (host and configuration fingerprint plus every figure) is
// written only to the --record path, and the spans only to --trace-out.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: hmd_perfbench --workload <name> --seed <n> --seconds "
               "<s> --trace <0|1> --work-dir <dir> [--record <path>] "
               "[--trace-out <path>]\n");
  std::exit(2);
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<pb::Metric>& metrics) {
  std::string out = "{";
  for (const pb::Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--record") {
      args.record_path = value;
    } else if (flag == "--trace-out") {
      args.trace_path = value;
    } else {
      usage();
    }
  }
  if (args.workload.empty() || args.work_dir.empty() || !(args.seconds > 0)) {
    usage();
  }

  pb::RunResult result;
  try {
    std::filesystem::create_directories(args.work_dir);
    result = pb::run_workload(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "hmd_perfbench: %s\n", error.what());
    std::filesystem::remove_all(args.work_dir);
    return 1;
  }
  std::filesystem::remove_all(args.work_dir);
  if (!result.first_error.empty()) {
    std::fprintf(stderr, "hmd_perfbench: first failure: %s\n",
                 result.first_error.c_str());
  }

  if (!args.trace_path.empty() && !pb::tracer().write(args.trace_path)) {
    std::fprintf(stderr, "hmd_perfbench: cannot write %s\n",
                 args.trace_path.c_str());
    return 1;
  }
  if (!args.record_path.empty()) {
    std::FILE* out = std::fopen(args.record_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "hmd_perfbench: cannot write %s\n",
                   args.record_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
                      "\"trace\": %s, \"correct\": %s, \"attempted\": %llu, "
                      "\"failed\": %llu",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed),
                 number(args.seconds).c_str(), args.trace ? "true" : "false",
                 result.correct ? "true" : "false",
                 static_cast<unsigned long long>(result.attempted),
                 static_cast<unsigned long long>(result.failed));
    for (const auto& [key, value] : result.record) {
      std::fprintf(out, ", \"%s\": %s", key.c_str(), value.c_str());
    }
    std::fprintf(out, ", \"end_to_end\": %s, \"per_layer\": %s}\n",
                 metrics_json(result.end_to_end).c_str(),
                 metrics_json(result.per_layer).c_str());
    std::fclose(out);
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              metrics_json(args.trace ? result.per_layer : result.end_to_end)
                  .c_str());
  return 0;
}
