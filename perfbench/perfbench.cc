// End-to-end benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out-dir <dir>
//
// Workloads: audit_lr_24k, audit_gbm_6k, stream_monitored (README.md).
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics of the traced run. Each metric goes to stdout as one
// table line (median, quartiles, sample count for timings); the last
// line is one JSON object {"correct", "attempted", "failed", "metrics"}.
// The exit code is non-zero when any output check failed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/bench.h"

namespace {

using perfbench::ModelKind;

bool ParseArgs(int argc, char** argv, perfbench::Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      o->workload = value;
    } else if (key == "--seed") {
      o->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      o->seconds = std::atof(value);
    } else if (key == "--trace") {
      o->trace = std::strcmp(value, "0") != 0;
    } else if (key == "--out-dir") {
      o->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && !o->out_dir.empty() &&
         o->seconds > 0.0;
}

void PrintResult(const perfbench::RunResult& r) {
  for (const perfbench::Metric& m : r.metrics) {
    std::printf("%-34s %16.6f %-14s", m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.has_summary) {
      std::printf(" median %.6g  q1 %.6g  q3 %.6g  n %zu", m.summary.median,
                  m.summary.q1, m.summary.q3, m.summary.n);
    }
    std::printf("\n");
  }
  for (const std::string& e : r.errors)
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.failed == 0 && r.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> --out-dir <dir>\n");
    return 2;
  }
  perfbench::RunResult result;
  if (options.workload == "audit_lr_24k") {
    perfbench::RunAuditWorkload({24000, ModelKind::kLogistic, 2}, options,
                                &result);
  } else if (options.workload == "audit_gbm_6k") {
    perfbench::RunAuditWorkload({6000, ModelKind::kGbm, 2}, options,
                                &result);
  } else if (options.workload == "stream_monitored") {
    perfbench::RunStreamWorkload(options, &result);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  PrintResult(result);
  return result.failed == 0 && result.attempted > 0 ? 0 : 1;
}
