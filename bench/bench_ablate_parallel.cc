// Ablation D (beyond-paper): multi-threaded RBM scan scaling. The
// per-image BOUNDS folds are embarrassingly parallel, so a modern
// implementation can buy back much of instantiation-free query cost with
// cores — an axis the 2006 prototype did not have.

#include <algorithm>
#include <iostream>
#include <thread>

#include "bench_common.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace mmdb {
namespace {

int Run() {
  std::cout << "=== Ablation D: parallel RBM scan scaling (helmet data "
               "set, 1200 images, 85% edit-stored) ===\n"
            << "hardware threads available: "
            << std::thread::hardware_concurrency() << "\n\n";

  datasets::DatasetSpec spec;
  spec.kind = datasets::DatasetKind::kHelmets;
  spec.total_images = 1200;
  spec.edited_fraction = 0.85;
  spec.min_ops = 6;
  spec.max_ops = 12;
  spec.seed = 31337;
  datasets::DatasetStats stats;
  auto db = bench::BuildDatabase(spec, &stats);
  if (!db.ok()) {
    std::cerr << db.status().ToString() << "\n";
    return 1;
  }
  Rng rng(271);
  const auto workload = datasets::MakeGroundedRangeWorkload(
      (*db)->collection(), (*db)->quantizer(), datasets::HelmetPalette(),
      20, rng);

  TablePrinter table({"threads", "ms/query", "speedup vs 1 thread"});
  bench::JsonWriter json;
  json.BeginObject();
  json.Key("bench").String("ablate_parallel");
  json.Key("workload").BeginObject();
  json.Key("dataset").String("helmet");
  json.Key("total_images").Int(1200);
  json.Key("edited_fraction").Number(0.85);
  json.Key("queries").Int(20);
  json.Key("repeats").Int(7);
  json.Key("hardware_threads")
      .Int(static_cast<int64_t>(std::thread::hardware_concurrency()));
  json.EndObject();
  json.Key("points").BeginArray();
  double baseline = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    // The thread count reaches the scan through the database's shared
    // pool, so each point gets its own copy of the (seeded) corpus.
    DatabaseOptions options;
    options.query_threads = threads;
    auto threaded = MultimediaDatabase::Open(options);
    if (!threaded.ok() ||
        !datasets::BuildAugmentedDatabase(threaded->get(), spec).ok()) {
      return 1;
    }
    // Warm up, then take the median of 7 rounds.
    for (const RangeQuery& query : workload) {
      if (!(*threaded)->RunRange(query, QueryMethod::kParallelRbm).ok()) {
        return 1;
      }
    }
    std::vector<double> rounds;
    for (int r = 0; r < 7; ++r) {
      Stopwatch watch;
      for (const RangeQuery& query : workload) {
        const auto result =
            (*threaded)->RunRange(query, QueryMethod::kParallelRbm);
        if (!result.ok()) {
          std::cerr << result.status().ToString() << "\n";
          return 1;
        }
      }
      rounds.push_back(watch.ElapsedSeconds());
    }
    std::sort(rounds.begin(), rounds.end());
    const double per_query =
        rounds[rounds.size() / 2] / static_cast<double>(workload.size());
    if (threads == 1) baseline = per_query;
    table.AddRow({TablePrinter::Cell(threads),
                  TablePrinter::Cell(per_query * 1e3, 4),
                  TablePrinter::Cell(baseline / per_query, 2)});
    json.BeginObject();
    json.Key("threads").Int(threads);
    json.Key("avg_query_seconds").Number(per_query);
    json.Key("p50_round_seconds").Number(rounds[rounds.size() / 2]);
    json.Key("max_round_seconds").Number(rounds.back());
    json.Key("speedup_vs_serial").Number(baseline / per_query);
    json.EndObject();
  }
  table.Print(std::cout);
  json.EndArray();
  json.Key("registry").Raw(bench::RegistryJson());
  json.EndObject();
  if (!bench::WriteBenchReport("ablate_parallel", json.Take())) return 1;
  std::cout << "\nExpected shape: near-linear speedup until the thread "
               "count approaches the core count (the scan is "
               "embarrassingly parallel; chunk startup costs bound the "
               "tail). On a single-core machine extra threads can only "
               "add scheduling overhead, so ratios below 1.0 there are "
               "the correct reading, not a bug.\n";
  return 0;
}

}  // namespace
}  // namespace mmdb

int main() { return mmdb::Run(); }
