// mmdb_perfbench — the repository benchmark. One workload per run:
//
//   mmdb_perfbench --workload scan-100k|serve-sharded|ingest-disk
//                  --seed N --seconds S --trace 0|1 [--smoke]
//                  [--out-dir DIR]
//
// Inputs are generated from --seed before timing; answers are checked
// (a wrong answer exits 1). The untraced run prints the end-to-end
// metrics, the traced run (--trace 1) the per-layer metrics and a span
// dump. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "harness.h"

namespace mmdb::perfbench {
namespace {

int Usage() {
  std::cerr << "usage: mmdb_perfbench --workload "
               "scan-100k|serve-sharded|ingest-disk --seed N --seconds S "
               "--trace 0|1 [--smoke] [--out-dir DIR]\n";
  return 2;
}

int Run(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (value == nullptr) {
      return Usage();
    } else if (arg == "--workload") {
      options.workload = value;
      ++i;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      ++i;
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value);
      ++i;
    } else if (arg == "--trace") {
      options.trace = std::string(value) == "1";
      ++i;
    } else if (arg == "--out-dir") {
      options.out_dir = value;
      ++i;
    } else {
      return Usage();
    }
  }
  if (options.seconds <= 0) return Usage();
  std::error_code ignored;
  std::filesystem::create_directories(options.out_dir, ignored);

  // Each workload with the layers its traced run reports as 0 because
  // the workload never reaches them.
  struct Workload {
    const char* name;
    int (*run)(const RunOptions&, Report*);
    std::vector<std::string> bypassed;
  };
  const Workload workloads[] = {
      {"scan-100k", RunScan100k, {"net.", "shard.", "storage.", "loadgen."}},
      {"serve-sharded", RunServeSharded, {"storage."}},
      {"ingest-disk", RunIngestDisk, {"net.", "shard.", "service.", "loadgen."}},
  };
  const Workload* workload = nullptr;
  for (const Workload& w : workloads) {
    if (options.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return Usage();

  Report report;
  const int code = workload->run(options, &report);
  if (options.trace) {
    ReportBypassedLayers(workload->bypassed, &report);
  } else {
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  }
  report.Print();
  return code != 0 ? code : (report.correct() ? 0 : 1);
}

}  // namespace
}  // namespace mmdb::perfbench

int main(int argc, char** argv) {
  return mmdb::perfbench::Run(argc, argv);
}
