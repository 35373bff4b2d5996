// perfbench: the AdapTraj end-to-end benchmark.
//
//   perfbench --workload <serve_fresh|serve_repeat|serve_lbebm>
//             --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// Prints the host, per-phase sent/succeeded/failed counts, every metric with
// its unit and sample count, and, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// and writes <out>/<workload>-seed<n>.trace.json (Chrome trace events) and
// .layers.tsv. Exits 1 when a correctness check fails, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <sys/stat.h>

#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--out <dir>]\nworkloads:");
  for (const auto& n : perfbench::WorkloadNames()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
}

// Makes every directory along `path` (relative paths only).
void MakeDirs(const std::string& path) {
  for (size_t i = 1; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') mkdir(path.substr(0, i).c_str(), 0755);
  }
}

// JSON has no infinity; a latency made infinite by failed requests is
// printed as a huge finite number (the failures also show in "failed").
double Finite(double v) { return std::isfinite(v) ? v : 1e12; }

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--out") {
      options.out_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  bool known = false;
  for (const auto& n : perfbench::WorkloadNames()) known = known || n == options.workload;
  if (!have_workload || !known || options.seconds <= 0.0 || argc % 2 == 0) {
    Usage();
    return 2;
  }
  if (options.trace) MakeDirs(options.out_dir);

  perfbench::RunResult result;
  try {
    result = perfbench::RunWorkload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const auto& line : result.report) std::printf("# %s\n", line.c_str());
  for (const auto& f : result.check_failures) std::printf("# CHECK FAILED: %s\n", f.c_str());
  for (const auto& m : result.metrics) {
    std::printf("metric %-30s %14.6g %-8s samples=%lld\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }
  const bool correct = result.check_failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), Finite(m.value), m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
