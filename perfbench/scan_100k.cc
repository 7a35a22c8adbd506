// scan-100k: an embedded in-memory helmet corpus of 10^5 images, 80%
// stored as edit scripts. One caller runs a closed loop through
// QueryService::Execute: every grounded range window under kBwm, kRbm,
// kParallelRbm and kBwmIndexed, and a kPlanned conjunction every second
// window. Top-k similarity queries and GetImage calls are timed apart from
// the loop, between its rounds. Per-image scan work dominates and the
// working set dwarfs the CPU caches; net, shard and storage are bypassed.

#include <array>
#include <memory>

#include "core/plan.h"
#include "datasets/generators.h"
#include "harness.h"

namespace mmdb::perfbench {

namespace {

/// Top-k queries per untraced run. Each one bounds every bin of every
/// edited image (~2-3 s at 10^5 images, whatever the query), so a few
/// give a steady median.
constexpr int kKnnQueries = 4;
/// GetImage calls after each loop cycle: ~2000 a run, so the fetch tail
/// is the ~99.5th percentile, near the costliest scripts' fixed cost.
/// With ~500 the tail was the 98th percentile and swung 27% by seed.
constexpr int kFetchesPerCycle = 50;
/// Insert-probe chunks (one after each loop cycle while they last) and
/// images per chunk. Chunks of a few dozen images varied 5x in rate with
/// their scripts; a hundred or more keep the median chunk steady.
constexpr int kProbeChunks = 60;
constexpr int kProbeChunkImages = 120;

/// The corpus and its seeded query inputs, generated before any timing.
struct ScanFixture {
  std::unique_ptr<MultimediaDatabase> db;
  CorpusIds ids;
  SetupClock setup;
  /// A second, initially empty in-memory store whose insert rate the
  /// untraced run measures.
  std::unique_ptr<MultimediaDatabase> probe_db;
  std::unique_ptr<InsertProbe> probe;
  std::vector<RangeQuery> windows;
  std::vector<ConjunctiveQuery> conjunctions;
  /// kRbm signature of each conjunction, from the gate.
  std::vector<IdSignature> conjunction_refs;
  std::vector<SimilarityQuery> knn;
};

bool BuildFixture(const RunOptions& options, Rng& rng, Report* report,
                  ScanFixture* fx) {
  const int slices = options.smoke ? 4 : 10;
  CorpusSpec spec;
  spec.kind = datasets::DatasetKind::kHelmets;
  spec.images = (options.smoke ? 2000 : 100000) / slices;
  // 20% originals and 80% edit scripts, no materialized variants: set-up
  // then renders cheap originals instead of instantiating 10^4 variants.
  spec.base_fraction = 0.2;

  Stopwatch fixed;
  Result<std::unique_ptr<MultimediaDatabase>> opened =
      MultimediaDatabase::Open(DatabaseOptions{});
  if (!opened.ok()) {
    report->Wrong("open: " + opened.status().ToString());
    return false;
  }
  fx->db = std::move(opened).value();
  fx->setup.fixed = fixed.ElapsedSeconds();

  MultimediaDatabase* db = fx->db.get();
  if (!BuildCorpus(
          spec, slices, rng,
          [db](const Image& image) { return db->InsertBinaryImage(image); },
          [db](const EditScript& script) {
            return db->InsertEditedImage(script);
          },
          &fx->setup, &fx->ids, report)) {
    return false;
  }

  const std::vector<Rgb> palette = datasets::HelmetPalette();
  fx->windows = SpreadBySelectivity(
      datasets::MakeGroundedRangeWorkload(db->collection(), db->quantizer(),
                                          palette, 256, rng),
      db->collection());
  fx->conjunctions = SpreadBySelectivity(
      MakeConjunctions(db->collection(), db->quantizer(), palette, 64, rng),
      db->collection());
  fx->conjunctions.resize(8);
  fx->knn = MakeSimilarityQueries(db->collection(), kKnnQueries, 10, rng);

  Result<std::unique_ptr<MultimediaDatabase>> probe_db =
      MultimediaDatabase::Open(DatabaseOptions{});
  if (!probe_db.ok()) {
    report->Wrong("open: " + probe_db.status().ToString());
    return false;
  }
  fx->probe_db = std::move(probe_db).value();
  MultimediaDatabase* probed = fx->probe_db.get();
  spec.images = kProbeChunkImages;
  fx->probe = std::make_unique<InsertProbe>(
      spec, options.smoke ? 10 : kProbeChunks, rng,
      [probed](const Image& image) { return probed->InsertBinaryImage(image); },
      [probed](const EditScript& script) {
        return probed->InsertEditedImage(script);
      });
  return true;
}

/// Correctness gate, before any timing: on the first windows every
/// method returns kRbm's id set (kParallelRbm its exact order), and every
/// conjunction's kPlanned set equals its kRbm set.
bool Gate(QueryService& service, int windows, Report* report,
          ScanFixture* fx) {
  for (int w = 0; w < windows; ++w) {
    const RangeQuery& window = fx->windows[static_cast<size_t>(w)];
    const Result<QueryResult> rbm =
        service.Execute(QueryRequest::Range(window, QueryMethod::kRbm));
    if (!rbm.ok()) {
      report->Wrong("gate rbm: " + rbm.status().ToString());
      return false;
    }
    const IdSignature ref = Sign(rbm->ids);
    for (QueryMethod method :
         {QueryMethod::kBwm, QueryMethod::kBwmIndexed, QueryMethod::kPlanned,
          QueryMethod::kParallelRbm}) {
      const Result<QueryResult> got =
          service.Execute(QueryRequest::Range(window, method));
      const bool same =
          got.ok() && (method == QueryMethod::kParallelRbm
                           ? got->ids == rbm->ids
                           : Sign(got->ids).SameSet(ref));
      if (!same) {
        report->Wrong("gate: " + std::string(QueryMethodName(method)) +
                      " differs from rbm on " + window.ToString());
        return false;
      }
    }
  }
  for (const ConjunctiveQuery& conjunction : fx->conjunctions) {
    const Result<QueryResult> rbm = service.Execute(
        QueryRequest::Conjunctive(conjunction, QueryMethod::kRbm));
    const Result<QueryResult> planned = service.Execute(
        QueryRequest::Conjunctive(conjunction, QueryMethod::kPlanned));
    if (!rbm.ok() || !planned.ok() ||
        !Sign(planned->ids).SameSet(Sign(rbm->ids))) {
      report->Wrong("gate: planned differs from rbm on " +
                    conjunction.ToString());
      return false;
    }
    fx->conjunction_refs.push_back(Sign(rbm->ids));
  }
  return true;
}

/// The closed scan loop's samples; qps counts only its queries.
struct ScanTimes {
  Samples all, conj;
  std::array<Samples, kRangeMethods.size()> by_method;
  int64_t completed = 0;
  double seconds = 0.0;
};

/// One cycle of the closed loop: window `cycle` under every range method,
/// and on even cycles a kPlanned conjunction; answers checked.
void ScanCycle(size_t cycle, QueryService& service, const ScanFixture& fx,
               ScanTimes* t, Report* report) {
  const RangeQuery& window = fx.windows[cycle % fx.windows.size()];
  std::array<IdSignature, kRangeMethods.size()> sigs;
  for (size_t m = 0; m < kRangeMethods.size(); ++m) {
    Stopwatch call;
    const Result<QueryResult> got =
        service.Execute(QueryRequest::Range(window, kRangeMethods[m]));
    const double seconds = call.ElapsedSeconds();
    report->Attempt(got.ok());
    if (!got.ok()) continue;
    ++t->completed;
    t->all.Add(seconds);
    t->by_method[m].Add(seconds);
    sigs[m] = Sign(got->ids);
  }
  // kRbm (index 1) is the reference; kParallelRbm keeps its order.
  if (!sigs[0].SameSet(sigs[1]) || !sigs[3].SameSet(sigs[1]) ||
      !sigs[2].SameOrder(sigs[1])) {
    report->Wrong("methods disagree on " + window.ToString());
  }

  if (cycle % 2 == 1) return;
  const size_t c = (cycle / 2) % fx.conjunctions.size();
  Stopwatch call;
  const Result<QueryResult> planned = service.Execute(
      QueryRequest::Conjunctive(fx.conjunctions[c], QueryMethod::kPlanned));
  const double seconds = call.ElapsedSeconds();
  report->Attempt(planned.ok());
  if (!planned.ok()) return;
  ++t->completed;
  t->all.Add(seconds);
  t->conj.Add(seconds);
  if (!Sign(planned->ids).SameSet(fx.conjunction_refs[c])) {
    report->Wrong("planned differs from rbm on " +
                  fx.conjunctions[c].ToString());
  }
}

/// One top-k query, timed into `times` when its answer holds k matches.
void KnnQuery(const SimilarityQuery& query, QueryService& service,
              Samples* times, Report* report) {
  Stopwatch call;
  const Result<QueryResult> top =
      service.Execute(QueryRequest::Similarity(query));
  const double seconds = call.ElapsedSeconds();
  report->Attempt(top.ok());
  if (!top.ok()) return;
  if (top->ids.size() < query.k || top->matches.size() != top->ids.size()) {
    report->Wrong("similarity answer is short");
    return;
  }
  times->Add(seconds);
}

/// The untraced run: every end-to-end metric. The machine this runs on
/// slows for seconds at a time, so every measurement is spread over the
/// run: each loop cycle is followed by a few fetches and an insert-probe
/// chunk, and the loop is cut into one round per top-k query. qps counts
/// only the loop's own time.
void Measure(const RunOptions& options, QueryService& service, Rng& rng,
             ScanFixture* fx, Report* report) {
  ScanTimes scan;
  Samples knn;
  FetchTimes fetches;
  const size_t rounds = fx->knn.size();
  const double round_budget = 0.65 * options.seconds / rounds;
  size_t cycle = 0;
  for (size_t round = 0; round < rounds; ++round) {
    Stopwatch round_clock;
    for (size_t start = cycle;
         cycle < start + 2 || round_clock.ElapsedSeconds() < round_budget;
         ++cycle) {
      Stopwatch loop;
      ScanCycle(cycle, service, *fx, &scan, report);
      scan.seconds += loop.ElapsedSeconds();
      RunFetches([&](ObjectId id) { return fx->db->GetImage(id); }, *fx->db,
                 fx->ids.binary, fx->ids.edited, 0.0, kFetchesPerCycle, rng,
                 report, &fetches);
      if (!fx->probe->Chunk(report)) return;
    }
    KnnQuery(fx->knn[round], service, &knn, report);
  }

  report->Metric("setup_s", fx->setup.TotalSeconds(), "s");
  report->Metric("qps", static_cast<double>(scan.completed) / scan.seconds,
                 "1/s");
  report->Latency("query", scan.all, true);
  report->Latency("bwm", scan.by_method[0], false);
  report->Latency("rbm", scan.by_method[1], false);
  report->Latency("parallel", scan.by_method[2], false);
  report->Latency("indexed", scan.by_method[3], false);
  report->Latency("conj", scan.conj, false);
  report->Latency("knn", knn, false);
  report->Metric("ingest_images_per_s", fx->probe->ImagesPerSecond(),
                 "images/s");
  report->Latency("fetch", fetches.all, false);
}

/// The traced run: the service → facade → processor ladder over the same
/// mix, fine scan spans, and the per-layer counts.
void Trace(const RunOptions& options, QueryService& service, Rng& rng,
           ScanFixture* fx, Report* report) {
  Ladder ladder;
  BwmCounts bwm;
  std::shared_ptr<const CorpusStats> planner = fx->db->PlannerStats();
  int64_t rebuilds = 0;
  Samples planner_times;

  Stopwatch phase;
  for (size_t i = 0; i < 10 || phase.ElapsedSeconds() < 0.6 * options.seconds;
       ++i) {
    const QueryRequest request =
        LadderRequest(i, fx->windows, fx->conjunctions);
    Result<QueryResult> at_service = Status::Internal("not run");
    Result<QueryResult> at_facade = Status::Internal("not run");
    {
      obs::Span root = ladder.Request();
      ladder.Rung("service", [&] { at_service = service.Execute(request); });
      at_facade = RunLowerRungs(&ladder, *fx->db, request, report);
    }
    const bool ok = at_service.ok() && at_facade.ok();
    report->Attempt(ok);
    if (!ok) continue;
    if (at_service->ids != at_facade->ids) {
      report->Wrong("service and facade rungs disagree on " +
                    std::string(QueryMethodName(request.method)));
    }
    if (request.method == QueryMethod::kBwm) bwm.Add(*at_service);
    Stopwatch stats_call;
    std::shared_ptr<const CorpusStats> current = fx->db->PlannerStats();
    planner_times.Add(stats_call.ElapsedSeconds());
    if (current != planner) ++rebuilds;
    planner = std::move(current);
  }

  const auto run_bwm = [&](size_t i) {
    return service
        .Execute(QueryRequest::Range(fx->windows[i % fx->windows.size()],
                                     QueryMethod::kBwm))
        .ok();
  };
  ReportScanLayer(bwm, fx->ids.edited.size(), 8, run_bwm, report);
  ReportTraceOverhead(&ladder, 10, [&](size_t i) { return run_bwm(i / 2); },
                      report);

  const Result<QueryResult> top = fx->db->RunSimilarity(fx->knn[0]);
  report->Attempt(top.ok());
  FetchTimes fetches;
  RunFetches([&](ObjectId id) { return fx->db->GetImage(id); }, *fx->db,
             fx->ids.binary, fx->ids.edited, 0.0, 500, rng, report,
             &fetches);

  const QueryService::CounterSnapshot counters = service.Snapshot();
  report->Metric("service.self_ms", ladder.SelfMs("service", "facade"), "ms");
  report->Metric("service.queue_wait_ms",
                 counters.pool_tasks > 0
                     ? 1e3 * counters.total_queue_wait_seconds /
                           static_cast<double>(counters.pool_tasks)
                     : 0.0,
                 "ms");
  report->Metric("db.make_processor_us",
                 ladder.Times("make_processor").MedianMs() * 1e3, "us");
  report->Metric("planner.stats_ms", planner_times.MedianMs(), "ms");
  report->Metric("planner.rebuilds", static_cast<double>(rebuilds), "count");
  ReportNsPerImage(&ladder, static_cast<double>(fx->ids.size()), report);
  report->Metric("knn.candidates_per_query",
                 top.ok() ? static_cast<double>(top->matches.size()) /
                                static_cast<double>(fx->knn[0].k)
                          : 0.0,
                 "ratio");
  report->Metric("editops.instantiate_ms",
                 fetches.edited.MedianMs() - fetches.binary.MedianMs(), "ms");
  FinishTrace(options, ladder, fx->setup, report);
}

}  // namespace

int RunScan100k(const RunOptions& options, Report* report) {
  Rng rng(options.seed);
  ScanFixture fx;
  if (!BuildFixture(options, rng, report, &fx)) return 1;
  QueryService service(fx.db.get());
  if (!Gate(service, options.smoke ? 2 : 4, report, &fx)) return 1;
  if (options.trace) {
    Trace(options, service, rng, &fx, report);
  } else {
    Measure(options, service, rng, &fx, report);
  }
  return report->correct() ? 0 : 1;
}

}  // namespace mmdb::perfbench
