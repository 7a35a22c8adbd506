// Ablation C (DESIGN.md): BWM's cluster-skip only fires when a cluster's
// base image satisfies the query, so its advantage tracks the base-image
// hit rate. This sweep moves the query window to change selectivity.

#include <iostream>

#include "bench_common.h"
#include "util/table_printer.h"

namespace mmdb {
namespace {

int Run() {
  std::cout << "=== Ablation C: BWM speedup vs. query selectivity (flag "
               "data set, 80% edit-stored) ===\n\n";

  datasets::DatasetSpec spec;
  spec.kind = datasets::DatasetKind::kFlags;
  spec.total_images = 500;
  spec.edited_fraction = 0.8;
  spec.widening_probability = 0.8;
  spec.seed = 555;
  datasets::DatasetStats stats;
  auto db = bench::BuildDatabase(spec, &stats);
  if (!db.ok()) {
    std::cerr << db.status().ToString() << "\n";
    return 1;
  }

  TablePrinter table({"query range", "base hit rate %", "RBM (ms/query)",
                      "BWM (ms/query)", "speedup %", "skipped"});
  bench::JsonWriter json;
  json.BeginObject();
  json.Key("bench").String("ablate_selectivity");
  json.Key("workload").BeginObject();
  json.Key("dataset").String("flag");
  json.Key("total_images").Int(500);
  json.Key("edited_fraction").Number(0.8);
  json.Key("repeats").Int(7);
  json.EndObject();
  json.Key("points").BeginArray();
  const std::vector<Rgb> palette = datasets::FlagPalette();
  struct Window {
    double lo;
    double hi;
  };
  for (const Window& window : std::initializer_list<Window>{
           {0.0, 1.0}, {0.0, 0.5}, {0.1, 0.6}, {0.3, 0.8}, {0.6, 0.9},
           {0.9, 1.0}}) {
    std::vector<RangeQuery> workload;
    for (const Rgb& color : palette) {
      RangeQuery query;
      query.bin = (*db)->BinOf(color);
      query.min_fraction = window.lo;
      query.max_fraction = window.hi;
      workload.push_back(query);
    }
    // Base hit rate: how many (query, binary) pairs satisfy.
    int64_t hits = 0, pairs = 0;
    for (const RangeQuery& query : workload) {
      for (ObjectId id : (*db)->collection().binary_ids()) {
        ++pairs;
        if (query.Satisfies(
                (*db)->collection().FindBinary(id)->histogram.Fraction(
                    query.bin))) {
          ++hits;
        }
      }
    }
    const auto timed = bench::TimeMethodsInterleaved(
        **db, workload, {QueryMethod::kRbm, QueryMethod::kBwm}, 7);
    if (!timed.ok()) {
      std::cerr << timed.status().ToString() << "\n";
      return 1;
    }
    const bench::WorkloadTiming& rbm = (*timed)[0];
    const bench::WorkloadTiming& bwm = (*timed)[1];
    const double speedup =
        (1.0 - bwm.avg_query_seconds / rbm.avg_query_seconds) * 100.0;
    // Appended, not chained with operator+: GCC 12 at -O3 raises a false
    // -Wrestrict on the chain.
    std::string window_label = "[";
    window_label += TablePrinter::Cell(window.lo, 2);
    window_label += ", ";
    window_label += TablePrinter::Cell(window.hi, 2);
    window_label += "]";
    table.AddRow(
        {window_label,
         TablePrinter::Cell(100.0 * hits / pairs, 1),
         TablePrinter::Cell(rbm.avg_query_seconds * 1e3, 4),
         TablePrinter::Cell(bwm.avg_query_seconds * 1e3, 4),
         TablePrinter::Cell(speedup, 2),
         TablePrinter::Cell(bwm.stats.edited_images_skipped)});
    json.BeginObject();
    json.Key("window_min_fraction").Number(window.lo);
    json.Key("window_max_fraction").Number(window.hi);
    json.Key("base_hit_rate_pct")
        .Number(100.0 * static_cast<double>(hits) /
                static_cast<double>(pairs));
    json.Key("speedup_pct").Number(speedup);
    json.Key("rbm").BeginObject();
    bench::AddTimingFields(&json, rbm);
    json.EndObject();
    json.Key("bwm").BeginObject();
    bench::AddTimingFields(&json, bwm);
    json.EndObject();
    json.EndObject();
  }
  table.Print(std::cout);
  json.EndArray();
  json.Key("registry").Raw(bench::RegistryJson());
  json.EndObject();
  if (!bench::WriteBenchReport("ablate_selectivity", json.Take())) return 1;
  std::cout << "\nExpected shape: the higher the base hit rate, the more "
               "clusters BWM accepts wholesale and the larger the "
               "speedup.\n";
  return 0;
}

}  // namespace
}  // namespace mmdb

int main() { return mmdb::Run(); }
