// Planner benchmark: a 3-conjunct query whose conjuncts are written
// broadest-first, with one predicate ~100x more selective than the
// others. The unplanned processors (kRbm / kBwm) test the conjuncts as
// written. kPlanned orders them most-selective-first and runs the
// reordered conjunction through one scan: kBwm here, because every
// script is bound-widening and the Main component holds them all. Each
// bounded image folds the rules for all three bins in one walk
// whichever the order, so planned runs about as fast as bwm; the order
// shows in `rules_applied`, which counts the conjuncts tested up to the
// first that fails.
//
// Emits BENCH_planner.json with the per-method timings, the rendered
// plan, and the planned-vs-unplanned speedups. Exits non-zero when the
// methods' answer sizes differ.

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/plan.h"
#include "core/query_service.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace mmdb {
namespace {

/// ~1% of the binary images are mostly red; everything else is
/// blue/white mixes, and every edited script rides a blue base. A
/// `red >= 0.5` predicate is therefore ~100x more selective than the
/// broad window predicates next to it.
Result<std::unique_ptr<MultimediaDatabase>> BuildSkewedDatabase(
    int binaries, int edited, int ops_per_script) {
  MMDB_ASSIGN_OR_RETURN(std::unique_ptr<MultimediaDatabase> db,
                        MultimediaDatabase::Open());
  std::vector<ObjectId> blue_bases;
  const int rare = std::max(1, binaries / 100);
  for (int i = 0; i < binaries; ++i) {
    Image image(16, 16, i < rare ? colors::kRed : colors::kBlue);
    if (i >= rare) {
      // A varying white stripe so the broad predicates stay broad but
      // the per-bin distributions are not degenerate.
      image.Fill(Rect(0, 0, 16, 1 + (i % 8)), colors::kWhite);
    }
    MMDB_ASSIGN_OR_RETURN(const ObjectId id, db->InsertBinaryImage(image));
    if (i >= rare) blue_bases.push_back(id);
  }
  for (int i = 0; i < edited; ++i) {
    EditScript script;
    script.base_id = blue_bases[static_cast<size_t>(i) % blue_bases.size()];
    for (int op = 0; op < ops_per_script; ++op) {
      script.ops.emplace_back(op % 2 == 0
                                  ? ModifyOp{colors::kWhite, colors::kGreen}
                                  : ModifyOp{colors::kGreen, colors::kWhite});
    }
    MMDB_RETURN_IF_ERROR(db->InsertEditedImage(script).status());
  }
  return db;
}

struct MethodTiming {
  QueryMethod method = QueryMethod::kRbm;
  double avg_query_seconds = 0.0;
  QueryStats stats;
  size_t results = 0;
};

Result<MethodTiming> TimeConjunctive(const MultimediaDatabase& db,
                                     const ConjunctiveQuery& query,
                                     QueryMethod method, int repeats) {
  MethodTiming timing;
  timing.method = method;
  MMDB_RETURN_IF_ERROR(db.RunConjunctive(query, method).status());  // Warm.
  double total = 0.0;
  for (int round = 0; round < repeats; ++round) {
    Stopwatch watch;
    MMDB_ASSIGN_OR_RETURN(const QueryResult result,
                          db.RunConjunctive(query, method));
    total += watch.ElapsedSeconds();
    timing.stats = result.stats;
    timing.results = result.ids.size();
  }
  timing.avg_query_seconds = total / repeats;
  return timing;
}

int Run() {
  constexpr int kBinaries = 400;
  constexpr int kEdited = 400;
  constexpr int kOpsPerScript = 8;
  constexpr int kRepeats = 20;

  auto built = BuildSkewedDatabase(kBinaries, kEdited, kOpsPerScript);
  if (!built.ok()) {
    std::cerr << "bench_planner: " << built.status().ToString() << "\n";
    return 1;
  }
  const MultimediaDatabase& db = **built;

  // Written broadest-first: the order a naive author would type it.
  ConjunctiveQuery query;
  RangeQuery broad_white;
  broad_white.bin = db.BinOf(colors::kWhite);
  broad_white.min_fraction = 0.0;
  broad_white.max_fraction = 1.0;
  RangeQuery broad_blue;
  broad_blue.bin = db.BinOf(colors::kBlue);
  broad_blue.min_fraction = 0.0;
  broad_blue.max_fraction = 1.0;
  RangeQuery rare_red;
  rare_red.bin = db.BinOf(colors::kRed);
  rare_red.min_fraction = 0.5;
  rare_red.max_fraction = 1.0;
  query.conjuncts = {broad_white, broad_blue, rare_red};

  const QueryPlanner planner(db);
  const QueryPlan plan = planner.PlanConjunctive(query);
  std::cout << plan.Explain() << "\n";

  const QueryMethod methods[] = {QueryMethod::kRbm, QueryMethod::kBwm,
                                 QueryMethod::kPlanned};
  std::vector<MethodTiming> timings;
  for (QueryMethod method : methods) {
    auto timing = TimeConjunctive(db, query, method, kRepeats);
    if (!timing.ok()) {
      std::cerr << "bench_planner: " << QueryMethodName(method) << ": "
                << timing.status().ToString() << "\n";
      return 1;
    }
    timings.push_back(*timing);
  }

  // Identical result sets are the planner's contract; refuse to report
  // timings for diverging answers.
  for (const MethodTiming& timing : timings) {
    if (timing.results != timings.front().results) {
      std::cerr << "bench_planner: result size diverges for "
                << QueryMethodName(timing.method) << "\n";
      return 1;
    }
  }

  TablePrinter table({"method", "avg ms/query", "histograms", "bounded",
                      "rules"});
  for (const MethodTiming& timing : timings) {
    table.AddRow({std::string(QueryMethodName(timing.method)),
                  std::to_string(timing.avg_query_seconds * 1e3),
                  std::to_string(timing.stats.binary_images_checked),
                  std::to_string(timing.stats.edited_images_bounded),
                  std::to_string(timing.stats.rules_applied)});
  }
  table.Print(std::cout);

  const double planned = timings[2].avg_query_seconds;
  const double vs_rbm = timings[0].avg_query_seconds / planned;
  const double vs_bwm = timings[1].avg_query_seconds / planned;
  std::cout << "planned speedup: " << vs_rbm << "x vs rbm, " << vs_bwm
            << "x vs bwm\n";

  bench::JsonWriter json;
  json.BeginObject();
  json.Key("bench").String("planner");
  json.Key("dataset").BeginObject();
  json.Key("binary_images").Int(kBinaries);
  json.Key("edited_images").Int(kEdited);
  json.Key("ops_per_script").Int(kOpsPerScript);
  json.EndObject();
  json.Key("query").String(query.ToString());
  json.Key("plan").String(plan.Explain());
  json.Key("method").String(QueryMethodName(plan.method));
  json.Key("repeats").Int(kRepeats);
  json.Key("methods").BeginArray();
  for (const MethodTiming& timing : timings) {
    json.BeginObject();
    json.Key("method").String(QueryMethodName(timing.method));
    json.Key("avg_query_seconds").Number(timing.avg_query_seconds);
    json.Key("results").Int(static_cast<int64_t>(timing.results));
    json.Key("binary_images_checked")
        .Int(timing.stats.binary_images_checked);
    json.Key("edited_images_bounded")
        .Int(timing.stats.edited_images_bounded);
    json.Key("rules_applied").Int(timing.stats.rules_applied);
    json.EndObject();
  }
  json.EndArray();
  json.Key("planned_speedup_vs_rbm").Number(vs_rbm);
  json.Key("planned_speedup_vs_bwm").Number(vs_bwm);
  json.EndObject();
  if (!bench::WriteBenchReport("planner", json.Take())) return 1;
  return 0;
}

}  // namespace
}  // namespace mmdb

int main() { return mmdb::Run(); }
