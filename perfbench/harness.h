// Shared machinery of the mmdb benchmark: the command line, the one
// percentile rule every latency uses, the result report, seeded corpus
// and query generation, and the benchmark-owned span ladder.

#ifndef MMDB_PERFBENCH_HARNESS_H_
#define MMDB_PERFBENCH_HARNESS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/query.h"
#include "core/query_service.h"
#include "datasets/augment.h"
#include "image/image.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace mmdb::perfbench {

/// The range access paths every workload times.
inline constexpr std::array<QueryMethod, 4> kRangeMethods = {
    QueryMethod::kBwm, QueryMethod::kRbm, QueryMethod::kParallelRbm,
    QueryMethod::kBwmIndexed};

/// One benchmark invocation.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured region.
  double seconds = 10.0;
  /// true: the traced run, which reports the per-layer metrics.
  bool trace = false;
  /// Toy corpus sizes, for the benchmark's own smoke test.
  bool smoke = false;
  /// Where span dumps and the ingest page file go (inside the checkout).
  std::string out_dir = ".bench_build";
};

/// Latency samples under the benchmark's one percentile rule: a latency
/// is its median plus its tail, the highest percentile that still has at
/// least ten samples beyond it (the 11th-largest sample), printed with
/// that percentile and the sample count.
class Samples {
 public:
  void Add(double seconds) { values_.push_back(seconds); }
  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double MedianMs() const;
  /// Mean of the middle half of the samples, in ms. Where a run's samples
  /// split between a fast and a slow stretch of the machine, it blends the
  /// two, while the median jumps to whichever holds more samples.
  double InterquartileMeanMs() const;
  /// The tail in ms; `percentile` (when non-null) receives its rank.
  double TailMs(double* percentile = nullptr) const;
  void Append(const Samples& other);

 private:
  std::vector<double> Sorted() const;
  std::vector<double> values_;
};

/// The run's outcome: counted operations, correctness, and named metrics,
/// printed as human-readable lines followed by one JSON line.
class Report {
 public:
  /// Counts one attempted operation; `ok == false` counts it failed.
  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// A wrong answer: counts a failure and marks the run incorrect.
  void Wrong(const std::string& what);
  bool correct() const { return correct_; }

  /// Sets (or replaces) one named metric.
  void Metric(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const {
    for (const auto& metric : metrics_) {
      if (metric.first == name) return true;
    }
    return false;
  }
  /// `<prefix>_p50_ms` and (when `with_tail`) `<prefix>_tail_ms`, plus a
  /// human-readable line naming the tail's percentile and sample count.
  void Latency(const std::string& prefix, const Samples& samples,
               bool with_tail);
  void Note(const std::string& line);

  /// Prints the notes, then the final JSON object line.
  void Print() const;

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::string> notes_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// Resident-set high-water mark (VmHWM) of this process, in MB.
double PeakRssMb();

/// Current value of a counter in `obs::Registry::Default()`.
int64_t CounterValue(const char* name);

/// Order-independent fingerprint of an id set, and an order-dependent one
/// for the processors whose order is part of their contract.
struct IdSignature {
  size_t size = 0;
  uint64_t set_hash = 0;
  uint64_t order_hash = 0;
  bool SameSet(const IdSignature& o) const {
    return size == o.size && set_hash == o.set_hash;
  }
  bool SameOrder(const IdSignature& o) const {
    return SameSet(o) && order_hash == o.order_hash;
  }
};
IdSignature Sign(const std::vector<ObjectId>& ids);

/// A corpus slice generated ahead of timing: rendered rasters and edit
/// scripts in insertion order. Ids are assigned sequentially, so item i
/// is stored under `first_id + i`.
struct CorpusItem {
  bool edited = false;
  Image image;
  EditScript script;
};
struct CorpusSpec {
  datasets::DatasetKind kind = datasets::DatasetKind::kHelmets;
  int images = 1000;
  double edited_fraction = 0.8;
  double base_fraction = 0.1;
  double widening_probability = 0.8;
  int min_ops = 4;
  int max_ops = 10;
  /// Raster side (helmets) or width (flags, 3:2); 0 keeps the default.
  int32_t side = 0;
};

/// Renders one self-contained slice (its own base images, Merge targets
/// and materialized variants) whose ids start at `first_id`.
std::vector<CorpusItem> RenderSlice(const CorpusSpec& spec, ObjectId first_id,
                                    Rng& rng);

/// Set-up timing of a corpus built in equal slices: each slice is
/// rendered and inserted in turn, and a phase's time is reported as
/// slices × its median per-slice time, which is steadier than one sum.
struct SetupClock {
  std::vector<double> render;
  std::vector<double> insert;
  /// One-off set-up work outside the slices (opening stores, servers).
  double fixed = 0.0;
  double RenderSeconds() const;
  double InsertSeconds() const;
  double TotalSeconds() const;
};

/// The ids a corpus build assigned, by how each image is stored, and the
/// binary images' shapes as Merge targets.
struct CorpusIds {
  std::vector<ObjectId> binary;
  std::vector<ObjectId> edited;
  std::vector<datasets::MergeTarget> targets;
  size_t size() const { return binary.size() + edited.size(); }
};

using InsertBinary = std::function<Result<ObjectId>(const Image&)>;
using InsertEdited = std::function<Result<ObjectId>(const EditScript&)>;

/// Builds a corpus of `slices` slices of `spec` with ids from
/// `catalog_keys::kFirstObjectId`: each slice is rendered, then inserted
/// through `insert_binary` / `insert_edited`, both timed into `setup`.
/// Every insert must return its expected id. Returns false (after
/// `report->Wrong`) on any failure.
bool BuildCorpus(const CorpusSpec& spec, int slices, Rng& rng,
                 const InsertBinary& insert_binary,
                 const InsertEdited& insert_edited, SetupClock* setup,
                 CorpusIds* ids, Report* report);

/// Measures a store's insert rate across a whole run: pre-rendered,
/// self-contained chunks (each a slice of `chunk_spec`) go in one per
/// `Chunk()` call, between the run's other work, and the rate is the mean
/// of the middle half of the chunk rates. A rate taken in one burst swung
/// with the few seconds it ran in; spread over the run, a slow stretch
/// moves only some chunks.
class InsertProbe {
 public:
  InsertProbe(const CorpusSpec& chunk_spec, int chunks, Rng& rng,
              InsertBinary insert_binary, InsertEdited insert_edited);
  /// Inserts the next chunk, if one is left. Returns false (after
  /// `report->Wrong`) on a failed insert.
  bool Chunk(Report* report);
  /// Images per second: the interquartile mean of the chunk rates.
  double ImagesPerSecond() const;

 private:
  std::vector<std::vector<CorpusItem>> chunks_;
  size_t next_ = 0;
  ObjectId next_id_;
  InsertBinary insert_binary_;
  InsertEdited insert_edited_;
  std::vector<double> rates_;
};

/// 2–3-conjunct conjunctions grounded in stored binary images, over
/// distinct bins.
std::vector<ConjunctiveQuery> MakeConjunctions(
    const AugmentedCollection& collection, const ColorQuantizer& quantizer,
    const std::vector<Rgb>& palette, int count, Rng& rng);

/// Reorders `queries` so that every prefix covers the same spread of
/// selectivities: they are ranked by the share of binary images that
/// satisfy them, then visited in bit-reversed rank order. A run that
/// only reaches the first n queries then still sees a representative
/// mix of cheap and expensive ones, whatever the seed.
std::vector<RangeQuery> SpreadBySelectivity(std::vector<RangeQuery> queries,
                                            const AugmentedCollection& corpus);
std::vector<ConjunctiveQuery> SpreadBySelectivity(
    std::vector<ConjunctiveQuery> queries, const AugmentedCollection& corpus);

/// Top-k queries whose signature is a stored binary image's histogram.
std::vector<SimilarityQuery> MakeSimilarityQueries(
    const AugmentedCollection& collection, int count, uint32_t k, Rng& rng);

/// The benchmark's own tracer: every sampled request gets one root span
/// and one child span per rung of the entry-point ladder, recorded in a
/// private registry and dumped as JSON at the end of the traced run.
class Ladder {
 public:
  explicit Ladder(size_t ring_capacity = 1 << 16);

  /// Opens a sampled request's root span; rungs timed while it lives
  /// become its children.
  obs::Span Request() { return obs::Span(Category("request"), 0); }

  /// Times `body` as rung `rung` (a child span of the open request) and
  /// records its wall time; returns the seconds.
  double Rung(const std::string& rung, const std::function<void()>& body);

  /// Records a time measured inside a rung (e.g. the slowest shard).
  void Record(const std::string& name, double seconds) {
    seconds_[name].Add(seconds);
  }
  const Samples& Times(const std::string& name) { return seconds_[name]; }
  /// Median of `upper` minus median of `lower`, in ms (0 if either is
  /// missing).
  double SelfMs(const std::string& upper, const std::string& lower);

  /// Writes the captured spans to `path`; false on I/O failure.
  bool Dump(const std::string& path) const;
  size_t spans() const { return tracer_.RecentSpans().size(); }

 private:
  obs::SpanCategory* Category(const std::string& name);

  obs::Registry registry_;
  obs::Tracer tracer_;
  std::map<std::string, Samples> seconds_;
};

/// The two lowest rungs of the ladder, for range and conjunctive
/// requests: the facade's `Run*` call, and a fresh `MakeProcessor`
/// processor's `Run*` (`make_seconds` receives the MakeProcessor time).
Result<QueryResult> RunAtFacade(const MultimediaDatabase& db,
                                const QueryRequest& request);
Result<QueryResult> RunAtProcessor(const MultimediaDatabase& db,
                                   const QueryRequest& request,
                                   double* make_seconds);

/// The i-th request of the ladder's mix: window i / 5 under each of
/// `kRangeMethods` in turn, then conjunction i / 5 under kPlanned.
QueryRequest LadderRequest(size_t i, const std::vector<RangeQuery>& windows,
                           const std::vector<ConjunctiveQuery>& conjunctions);

/// Times the rungs "facade" and "processor" of `request` on `db` inside
/// the caller's open request, and records "make_processor" and
/// "processor.<method>". Returns the facade's answer; a processor answer
/// with another id set is reported wrong.
Result<QueryResult> RunLowerRungs(Ladder* ladder, const MultimediaDatabase& db,
                                  const QueryRequest& request, Report* report);

/// Reports `scan.<method>_ns_per_image` for every range method: the
/// median "processor.<method>" time over `images`.
void ReportNsPerImage(Ladder* ladder, double images, Report* report);

/// `GetImage` latencies, overall and split by how the image is stored.
struct FetchTimes {
  Samples all;
  Samples binary;
  Samples edited;
};

/// Fetches ids drawn uniformly from the corpus for `budget_seconds` (at
/// least `min_fetches` fetches). A fetched binary raster must re-extract
/// to the histogram `reference` catalogs for it; an edited one must
/// instantiate to a non-empty raster.
void RunFetches(const std::function<Result<Image>(ObjectId)>& get,
                const MultimediaDatabase& reference,
                const std::vector<ObjectId>& binary_ids,
                const std::vector<ObjectId>& edited_ids,
                double budget_seconds, int min_fetches, Rng& rng,
                Report* report, FetchTimes* times);

/// Work counters summed over a traced run's kBwm answers.
struct BwmCounts {
  QueryStats stats;
  int64_t ids = 0;
  int64_t queries = 0;
  void Add(const QueryResult& result) {
    stats += result.stats;
    ids += static_cast<int64_t>(result.ids.size());
    ++queries;
  }
};

/// Reports the scan-layer counts (`scan.*_per_query`, `scan.accept_ratio`
/// over `edited_images`), then issues `queries` kBwm queries through
/// `run_bwm(i)` with fine spans on and reports how `bwm.rule_walk` and
/// `bwm.cluster_accept` split `bwm.scan`.
void ReportScanLayer(const BwmCounts& counts, size_t edited_images,
                     size_t queries, const std::function<bool(size_t)>& run_bwm,
                     Report* report);

/// Reports `obs.trace_overhead_pct`: `run(i)` for 2 × `pairs` calls,
/// every second one inside a ladder request and rung.
void ReportTraceOverhead(Ladder* ladder, size_t pairs,
                         const std::function<bool(size_t)>& run,
                         Report* report);

/// Reports `setup.render_s` / `setup.insert_s` and writes the span dump
/// to `<out_dir>/spans-<workload>.json`.
void FinishTrace(const RunOptions& options, const Ladder& ladder,
                 const SetupClock& setup, Report* report);

/// Completes a traced run's report: the per-layer metrics of the layers
/// named in `bypassed` (name prefixes such as "net.") read 0, and
/// `failed_ratio` is failed over attempted operations. Any other
/// per-layer metric the workload did not set stays missing, so the smoke
/// test catches a layer that went unmeasured.
void ReportBypassedLayers(const std::vector<std::string>& bypassed,
                          Report* report);

/// Runs the named workload; returns the process exit code.
int RunScan100k(const RunOptions& options, Report* report);
int RunServeSharded(const RunOptions& options, Report* report);
int RunIngestDisk(const RunOptions& options, Report* report);

}  // namespace mmdb::perfbench

#endif  // MMDB_PERFBENCH_HARNESS_H_
