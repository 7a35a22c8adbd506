// ingest-disk: a disk-backed store (page file of >100 MB behind the
// default 256-frame, 1 MiB buffer pool) seeded at set-up. One thread runs
// timed batches: insert pre-rendered binary images and edit scripts
// (widening and Merge), Flush once, GetImage random binary and edited
// ids, then range, kPlanned conjunction and (every fourth batch) top-k
// queries that must see the new rows. The only workload that writes,
// and the only one whose data exceeds the program's own cache.

#include <algorithm>
#include <array>
#include <filesystem>
#include <memory>

#include "core/plan.h"
#include "datasets/generators.h"
#include "harness.h"

namespace mmdb::perfbench {

namespace {

constexpr int kBinaryPerBatch = 8;
constexpr int kEditedPerBatch = 24;
/// ~2000 fetches per run, as on the other workloads: fetch_p50_ms spread
/// 0.07–0.08 over ten seeds, and the printed tail (the 11th-largest) is
/// the ~99.5th percentile.
constexpr int kFetchesPerBatch = 8;
constexpr int kKnnEvery = 4;

/// One timed batch's inputs, generated before timing. Its binaries take
/// ids `first_id ..`, its scripts the ids after them.
struct Batch {
  ObjectId first_id = kInvalidObjectId;
  std::vector<Image> binaries;
  std::vector<EditScript> scripts;
};

struct IngestFixture {
  std::string path;
  std::unique_ptr<MultimediaDatabase> db;
  /// The seeded corpus, then every batch's images as they are inserted.
  CorpusIds ids;
  SetupClock setup;
  std::vector<Batch> batches;
};

void RemoveFiles(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
  std::filesystem::remove(path + ".journal", ignored);
}

double FileBytes(const std::string& path) {
  std::error_code error;
  const auto size = std::filesystem::file_size(path, error);
  return error ? 0.0 : static_cast<double>(size);
}

bool BuildFixture(const RunOptions& options, Rng& rng, Report* report,
                  IngestFixture* fx) {
  const int slices = 4;
  CorpusSpec spec;
  spec.kind = datasets::DatasetKind::kHelmets;
  spec.images = (options.smoke ? 400 : 5000) / slices;
  spec.base_fraction = 0.2;
  spec.edited_fraction = 0.6;

  fx->path = options.out_dir + "/ingest-disk.mmdb";
  RemoveFiles(fx->path);
  Stopwatch fixed;
  DatabaseOptions db_options;
  db_options.path = fx->path;
  Result<std::unique_ptr<MultimediaDatabase>> opened =
      MultimediaDatabase::Open(db_options);
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

  // Batch inputs: fresh helmet rasters, and scripts over the batch's own
  // and older binaries (Merge targets among the seeded ones).
  fixed.Restart();
  const std::vector<Rgb> palette = datasets::HelmetPalette();
  const std::vector<datasets::MergeTarget> merge_targets = fx->ids.targets;
  const int batches = std::max(8, static_cast<int>(options.seconds * 16));
  ObjectId next = catalog_keys::kFirstObjectId + fx->ids.size();
  std::vector<datasets::MergeTarget> targets = merge_targets;
  for (int b = 0; b < batches; ++b) {
    Batch batch;
    batch.first_id = next;
    for (GeneratedImage& generated :
         datasets::MakeHelmetImages(kBinaryPerBatch, rng)) {
      targets.push_back({next++, generated.image.width(),
                         generated.image.height()});
      batch.binaries.push_back(std::move(generated.image));
    }
    for (int e = 0; e < kEditedPerBatch; ++e) {
      const datasets::MergeTarget& base =
          targets[targets.size() - 1 - rng.Uniform(kBinaryPerBatch * 4)];
      batch.scripts.push_back(datasets::MakeRandomScript(
          base.id, base.width, base.height, rng.Bernoulli(0.8),
          static_cast<int>(rng.UniformInt(4, 10)), palette, merge_targets,
          rng));
      ++next;
    }
    fx->batches.push_back(std::move(batch));
  }
  fx->setup.fixed += fixed.ElapsedSeconds();
  return true;
}

/// Counter readings around the storage work of a run.
struct StorageCounters {
  int64_t pages_written = 0;
  int64_t journal_syncs = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t pages_read = 0;
  static StorageCounters Read() {
    StorageCounters c;
    c.pages_written = CounterValue("mmdb_disk_pages_written_total");
    c.journal_syncs = CounterValue("mmdb_journal_syncs_total");
    c.hits = CounterValue("mmdb_buffer_pool_hits_total");
    c.misses = CounterValue("mmdb_buffer_pool_misses_total");
    c.evictions = CounterValue("mmdb_buffer_pool_evictions_total");
    c.pages_read = CounterValue("mmdb_disk_pages_read_total");
    return c;
  }
  void AddDelta(const StorageCounters& from, const StorageCounters& to) {
    pages_written += to.pages_written - from.pages_written;
    journal_syncs += to.journal_syncs - from.journal_syncs;
    hits += to.hits - from.hits;
    misses += to.misses - from.misses;
    evictions += to.evictions - from.evictions;
    pages_read += to.pages_read - from.pages_read;
  }
};

/// Everything the batch loop measures; the untraced run reports the
/// end-to-end part, the traced run the per-layer part.
struct LoopTimes {
  Samples all, conj, knn, insert_binary, insert_edited, flush, planner;
  /// Per batch: its inserts plus its Flush.
  Samples batch_writes;
  std::array<Samples, kRangeMethods.size()> by_method;
  FetchTimes fetches;
  double loop_seconds = 0.0;
  int64_t images = 0;
  int64_t queries = 0;
  int64_t batches = 0;
  int64_t rebuilds = 0;
  int64_t knn_candidates = 0;  // similarity matches, over k per query
  StorageCounters writes;   // during inserts and flushes
  StorageCounters fetch_io;  // during GetImage
};

/// Runs one query at the facade, times it, and returns it.
Result<QueryResult> Timed(const MultimediaDatabase& db,
                          const QueryRequest& request, Samples* kind,
                          LoopTimes* t, Report* report) {
  Stopwatch call;
  Result<QueryResult> result = RunAtFacade(db, request);
  const double seconds = call.ElapsedSeconds();
  report->Attempt(result.ok());
  if (result.ok()) {
    ++t->queries;
    t->all.Add(seconds);
    kind->Add(seconds);
  }
  return result;
}

void BatchLoop(const RunOptions& options, Rng& rng, IngestFixture* fx,
               Report* report, LoopTimes* t) {
  MultimediaDatabase* db = fx->db.get();
  std::shared_ptr<const CorpusStats> planner = db->PlannerStats();
  Stopwatch loop;
  for (const Batch& batch : fx->batches) {
    if (t->batches >= 2 && loop.ElapsedSeconds() >= options.seconds) break;
    // Writes: inserts, then one Flush.
    const StorageCounters w0 = StorageCounters::Read();
    Stopwatch writes;
    bool inserted = true;
    for (size_t i = 0; i < batch.binaries.size(); ++i) {
      Stopwatch call;
      const Result<ObjectId> id = db->InsertBinaryImage(batch.binaries[i]);
      t->insert_binary.Add(call.ElapsedSeconds());
      inserted = inserted && id.ok() && *id == batch.first_id + i;
    }
    for (size_t i = 0; i < batch.scripts.size(); ++i) {
      Stopwatch call;
      const Result<ObjectId> id = db->InsertEditedImage(batch.scripts[i]);
      t->insert_edited.Add(call.ElapsedSeconds());
      inserted = inserted &&
                 id.ok() && *id == batch.first_id + batch.binaries.size() + i;
    }
    Stopwatch flush;
    const Status flushed = db->Flush();
    t->flush.Add(flush.ElapsedSeconds());
    t->batch_writes.Add(writes.ElapsedSeconds());
    t->writes.AddDelta(w0, StorageCounters::Read());
    report->Attempt(flushed.ok());
    if (!inserted) {
      report->Wrong("batch insert failed or got unexpected ids");
      return;
    }
    for (size_t i = 0; i < batch.binaries.size(); ++i) {
      fx->ids.binary.push_back(batch.first_id + i);
    }
    for (size_t i = 0; i < batch.scripts.size(); ++i) {
      fx->ids.edited.push_back(batch.first_id + batch.binaries.size() + i);
    }
    t->images += static_cast<int64_t>(batch.binaries.size() + batch.scripts.size());
    ++t->batches;

    Stopwatch stats_call;
    std::shared_ptr<const CorpusStats> current = db->PlannerStats();
    t->planner.Add(stats_call.ElapsedSeconds());
    if (current != planner) ++t->rebuilds;
    planner = std::move(current);

    // Reads through the buffer pool.
    const StorageCounters f0 = StorageCounters::Read();
    RunFetches([db](ObjectId id) { return db->GetImage(id); }, *db,
               fx->ids.binary, fx->ids.edited, 0.0, kFetchesPerBatch, rng,
               report, &t->fetches);
    t->fetch_io.AddDelta(f0, StorageCounters::Read());

    // Queries grounded in a new binary image, which must be in every
    // answer: a range window under each method, two conjunctions.
    const ObjectId fresh = batch.first_id + rng.Uniform(batch.binaries.size());
    const BinaryImageInfo* info = db->collection().FindBinary(fresh);
    std::vector<RangeQuery> windows;
    for (BinIndex bin = 0; bin < db->quantizer().BinCount(); ++bin) {
      const double f = info->histogram.Fraction(bin);
      if (f >= 0.05) {
        windows.push_back({bin, std::max(0.0, f - rng.UniformDouble(0.02, 0.2)),
                           std::min(1.0, f + rng.UniformDouble(0.02, 0.2))});
      }
    }
    for (size_t i = windows.size(); i > 1; --i) {
      std::swap(windows[i - 1], windows[rng.Uniform(i)]);
    }
    auto contains_fresh = [fresh](const QueryResult& r) {
      return std::find(r.ids.begin(), r.ids.end(), fresh) != r.ids.end();
    };
    IdSignature reference;
    for (size_t m = 0; m < kRangeMethods.size() && !windows.empty(); ++m) {
      const Result<QueryResult> got =
          Timed(*db, QueryRequest::Range(windows[0], kRangeMethods[m]),
                &t->by_method[m], t, report);
      if (!got.ok()) continue;
      const IdSignature sig = Sign(got->ids);
      if (m == 0) reference = sig;
      if (!contains_fresh(*got) || !sig.SameSet(reference)) {
        report->Wrong("range answer misses the new row or differs by method");
      }
    }
    // Two- and three-conjunct conjunctions over the image's distinct bins.
    for (size_t width = 2; width <= std::min<size_t>(3, windows.size()); ++width) {
      ConjunctiveQuery conjunction;
      conjunction.conjuncts.assign(windows.begin(), windows.begin() + width);
      const Result<QueryResult> got = Timed(
          *db, QueryRequest::Conjunctive(conjunction, QueryMethod::kPlanned),
          &t->conj, t, report);
      if (got.ok() && !contains_fresh(*got)) {
        report->Wrong("planned conjunction misses the new row");
      }
    }
    // A top-k query every few batches; like everywhere else, it counts in
    // neither qps nor query_*.
    if (t->batches % kKnnEvery == 1) {
      SimilarityQuery query;
      query.histogram = info->histogram;
      query.k = 10;
      Stopwatch call;
      const Result<QueryResult> got = db->RunSimilarity(query);
      const double seconds = call.ElapsedSeconds();
      report->Attempt(got.ok());
      if (!got.ok()) continue;
      if (!contains_fresh(*got)) {
        report->Wrong("similarity answer misses the new row");
      }
      t->knn.Add(seconds);
      t->knn_candidates += static_cast<int64_t>(got->matches.size());
    }
  }
  t->loop_seconds = loop.ElapsedSeconds();
}

/// After the last Flush: reopen the page file, check every inserted image
/// is present, and run the integrity check.
void Reopen(IngestFixture* fx, Report* report) {
  fx->db.reset();
  DatabaseOptions db_options;
  db_options.path = fx->path;
  Result<std::unique_ptr<MultimediaDatabase>> reopened =
      MultimediaDatabase::Open(db_options);
  if (!reopened.ok()) {
    report->Wrong("reopen: " + reopened.status().ToString());
    return;
  }
  fx->db = std::move(reopened).value();
  const AugmentedCollection& collection = fx->db->collection();
  for (ObjectId id : fx->ids.binary) {
    if (collection.FindBinary(id) == nullptr) {
      report->Wrong("binary image " + std::to_string(id) + " lost on reopen");
      return;
    }
  }
  for (ObjectId id : fx->ids.edited) {
    if (collection.FindEdited(id) == nullptr) {
      report->Wrong("edited image " + std::to_string(id) + " lost on reopen");
      return;
    }
  }
  const auto integrity = fx->db->VerifyIntegrity();
  if (!integrity.ok()) {
    report->Wrong("integrity: " + integrity.status().ToString());
  }
}

void ReportEndToEnd(const IngestFixture& fx, const LoopTimes& t,
                    Report* report) {
  report->Metric("setup_s", fx.setup.TotalSeconds(), "s");
  report->Metric("qps", static_cast<double>(t.queries) / t.loop_seconds, "1/s");
  report->Latency("query", t.all, true);
  report->Latency("bwm", t.by_method[0], false);
  report->Latency("rbm", t.by_method[1], false);
  report->Latency("parallel", t.by_method[2], false);
  report->Latency("indexed", t.by_method[3], false);
  report->Latency("conj", t.conj, false);
  report->Latency("knn", t.knn, false);
  // The middle half of the batches: a few batches stalled behind the
  // shared disk would otherwise dominate a plain total.
  report->Metric("ingest_images_per_s",
                 (kBinaryPerBatch + kEditedPerBatch) /
                     (t.batch_writes.InterquartileMeanMs() / 1e3),
                 "images/s");
  // The fetch tail is printed, not reported: it is too noisy to bound
  // (perfbench/README.md).
  report->Latency("fetch", t.fetches.all, false);
}

void ReportLayers(const RunOptions& options, IngestFixture* fx,
                  const LoopTimes& t, Report* report) {
  MultimediaDatabase* db = fx->db.get();
  // Ladder over conjunctions and ranges on the final corpus: facade →
  // processor (this workload has no service, wire or coordinator).
  Ladder ladder;
  Rng rng(options.seed + 1);
  const std::vector<RangeQuery> windows = datasets::MakeGroundedRangeWorkload(
      db->collection(), db->quantizer(), datasets::HelmetPalette(), 16, rng);
  const std::vector<ConjunctiveQuery> conjunctions = MakeConjunctions(
      db->collection(), db->quantizer(), datasets::HelmetPalette(), 8, rng);
  BwmCounts bwm;
  const double images = static_cast<double>(fx->ids.size());
  for (size_t i = 0; i < 40; ++i) {
    const QueryRequest request = LadderRequest(i, windows, conjunctions);
    Result<QueryResult> at_facade = Status::Internal("not run");
    {
      obs::Span root = ladder.Request();
      at_facade = RunLowerRungs(&ladder, *db, request, report);
    }
    report->Attempt(at_facade.ok());
    if (at_facade.ok() && request.method == QueryMethod::kBwm) {
      bwm.Add(*at_facade);
    }
  }
  const auto run_bwm = [&](size_t i) {
    return db->RunRange(windows[i % windows.size()], QueryMethod::kBwm).ok();
  };
  ReportScanLayer(bwm, fx->ids.edited.size(), windows.size(), run_bwm, report);
  ReportTraceOverhead(&ladder, 20, [&](size_t i) { return run_bwm(i / 2); },
                      report);

  const auto per = [](double total, double count) {
    return count > 0 ? total / count : 0.0;
  };
  const double fetches = static_cast<double>(t.fetches.all.count());
  report->Metric("db.make_processor_us", ladder.Times("make_processor").MedianMs() * 1e3,
                 "us");
  report->Metric("planner.stats_ms", t.planner.MedianMs(), "ms");
  report->Metric("planner.rebuilds",
                 per(static_cast<double>(t.rebuilds), static_cast<double>(t.batches)),
                 "count");
  ReportNsPerImage(&ladder, images, report);
  report->Metric("knn.candidates_per_query",
                 per(static_cast<double>(t.knn_candidates),
                     10.0 * static_cast<double>(t.knn.count())),
                 "ratio");
  report->Metric("storage.insert_binary_us", t.insert_binary.MedianMs() * 1e3, "us");
  report->Metric("storage.insert_edited_us", t.insert_edited.MedianMs() * 1e3, "us");
  report->Metric("storage.flush_ms", t.flush.MedianMs(), "ms");
  report->Metric("storage.pages_written_per_image",
                 per(static_cast<double>(t.writes.pages_written),
                     static_cast<double>(t.images)),
                 "count");
  report->Metric("storage.journal_syncs_per_batch",
                 per(static_cast<double>(t.writes.journal_syncs),
                     static_cast<double>(t.batches)),
                 "count");
  report->Metric("storage.bytes_per_image",
                 (FileBytes(fx->path) + FileBytes(fx->path + ".journal")) / images, "B");
  report->Metric("storage.pool_hit_ratio",
                 per(static_cast<double>(t.fetch_io.hits),
                     static_cast<double>(t.fetch_io.hits + t.fetch_io.misses)),
                 "ratio");
  report->Metric("storage.pages_read_per_fetch",
                 per(static_cast<double>(t.fetch_io.pages_read), fetches), "count");
  report->Metric("storage.evictions_per_fetch",
                 per(static_cast<double>(t.fetch_io.evictions), fetches), "count");
  report->Metric("editops.instantiate_ms",
                 t.fetches.edited.MedianMs() - t.fetches.binary.MedianMs(), "ms");
  FinishTrace(options, ladder, fx->setup, report);
}

}  // namespace

int RunIngestDisk(const RunOptions& options, Report* report) {
  Rng rng(options.seed);
  IngestFixture fx;
  if (!BuildFixture(options, rng, report, &fx)) return 1;
  LoopTimes times;
  BatchLoop(options, rng, &fx, report, &times);
  if (options.trace) {
    ReportLayers(options, &fx, times, report);
  } else {
    ReportEndToEnd(fx, times, report);
  }
  Reopen(&fx, report);
  fx.db.reset();
  RemoveFiles(fx.path);
  return report->correct() ? 0 : 1;
}

}  // namespace mmdb::perfbench
