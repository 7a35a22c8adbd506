#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>

#include "datasets/generators.h"
#include "image/editor.h"
#include "storage/catalog.h"

namespace mmdb::perfbench {

namespace {

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Mean of the middle half of `values` (the median for fewer than four).
double InterquartileMeanOf(std::vector<double> values) {
  if (values.size() < 4) return MedianOf(std::move(values));
  std::sort(values.begin(), values.end());
  const size_t quarter = values.size() / 4;
  double sum = 0.0;
  for (size_t i = quarter; i < values.size() - quarter; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * quarter);
}

/// Every per-layer metric with its unit; a traced run reports each one,
/// 0 where its workload bypasses the layer.
const std::vector<std::pair<const char*, const char*>>& PerLayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> kMetrics = {
      {"net.self_ms", "ms"},
      {"net.bytes_per_query", "B"},
      {"shard.self_ms", "ms"},
      {"shard.hedges_per_query", "count"},
      {"shard.hedge_win_ratio", "ratio"},
      {"service.self_ms", "ms"},
      {"service.queue_wait_ms", "ms"},
      {"db.make_processor_us", "us"},
      {"planner.stats_ms", "ms"},
      {"planner.rebuilds", "count"},
      {"scan.bwm_ns_per_image", "ns"},
      {"scan.rbm_ns_per_image", "ns"},
      {"scan.parallel_ns_per_image", "ns"},
      {"scan.indexed_ns_per_image", "ns"},
      {"scan.binary_checked_per_query", "count"},
      {"scan.bounded_per_query", "count"},
      {"scan.accepted_per_query", "count"},
      {"scan.rules_per_query", "count"},
      {"scan.ids_per_query", "count"},
      {"scan.accept_ratio", "ratio"},
      {"scan.rule_walk_share", "ratio"},
      {"scan.cluster_accept_share", "ratio"},
      {"scan.other_share", "ratio"},
      {"knn.candidates_per_query", "ratio"},
      {"storage.insert_binary_us", "us"},
      {"storage.insert_edited_us", "us"},
      {"storage.flush_ms", "ms"},
      {"storage.pages_written_per_image", "count"},
      {"storage.journal_syncs_per_batch", "count"},
      {"storage.bytes_per_image", "B"},
      {"storage.pool_hit_ratio", "ratio"},
      {"storage.pages_read_per_fetch", "count"},
      {"storage.evictions_per_fetch", "count"},
      {"editops.instantiate_ms", "ms"},
      {"setup.render_s", "s"},
      {"setup.insert_s", "s"},
      {"loadgen.late_p99_ms", "ms"},
      {"obs.trace_overhead_pct", "%"},
      {"failed_ratio", "ratio"},
  };
  return kMetrics;
}

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

std::vector<double> Samples::Sorted() const {
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

double Samples::MedianMs() const { return MedianOf(values_) * 1e3; }

double Samples::InterquartileMeanMs() const {
  return InterquartileMeanOf(values_) * 1e3;
}

double Samples::TailMs(double* percentile) const {
  const std::vector<double> sorted = Sorted();
  const size_t n = sorted.size();
  if (n == 0) {
    if (percentile != nullptr) *percentile = 0.0;
    return 0.0;
  }
  // The 11th-largest sample has exactly ten beyond it; with fewer than
  // eleven samples no percentile qualifies and the maximum stands in.
  const size_t index = n > 10 ? n - 11 : n - 1;
  if (percentile != nullptr) {
    *percentile = 100.0 * static_cast<double>(index + 1) /
                  static_cast<double>(n);
  }
  return sorted[index] * 1e3;
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

void Report::Wrong(const std::string& what) {
  ++attempted_;
  ++failed_;
  correct_ = false;
  Note("WRONG: " + what);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& [existing, entry] : metrics_) {
    if (existing == name) {
      entry = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::Latency(const std::string& prefix, const Samples& samples,
                     bool with_tail) {
  Metric(prefix + "_p50_ms", samples.MedianMs(), "ms");
  double percentile = 0.0;
  const double tail = samples.TailMs(&percentile);
  if (with_tail) Metric(prefix + "_tail_ms", tail, "ms");
  char line[256];
  if (samples.count() > 10) {
    std::snprintf(line, sizeof(line),
                  "%-10s n=%-7zu p50 %10.4f ms   tail p%.2f %10.4f ms (10 "
                  "samples beyond)",
                  prefix.c_str(), samples.count(), samples.MedianMs(),
                  percentile, tail);
  } else {
    std::snprintf(line, sizeof(line),
                  "%-10s n=%-7zu p50 %10.4f ms   tail = max %10.4f ms (too "
                  "few samples for a percentile)",
                  prefix.c_str(), samples.count(), samples.MedianMs(), tail);
  }
  Note(line);
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Print() const {
  for (const std::string& line : notes_) std::cout << line << "\n";
  std::cout << "{\"correct\": " << (correct_ ? "true" : "false")
            << ", \"attempted\": " << attempted_
            << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    char value[64];
    const double v = std::isfinite(entry.first) ? entry.first : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    std::cout << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
              << value << ", \"unit\": \"" << entry.second << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

int64_t CounterValue(const char* name) {
  return obs::Registry::Default().GetCounter(name, "")->Value();
}

IdSignature Sign(const std::vector<ObjectId>& ids) {
  IdSignature sig;
  sig.size = ids.size();
  for (ObjectId id : ids) {
    sig.set_hash += Mix64(id);
    sig.order_hash = Mix64(sig.order_hash ^ id);
  }
  return sig;
}

std::vector<CorpusItem> RenderSlice(const CorpusSpec& spec, ObjectId first_id,
                                    Rng& rng) {
  const int base_count =
      std::max(1, static_cast<int>(std::lround(spec.images * spec.base_fraction)));
  const int variant_count = spec.images - base_count;
  const int script_count = std::min(
      variant_count,
      static_cast<int>(std::lround(spec.images * spec.edited_fraction)));

  std::vector<GeneratedImage> bases;
  if (spec.kind == datasets::DatasetKind::kFlags) {
    const int32_t width = spec.side > 0 ? spec.side : 120;
    bases = datasets::MakeFlagImages(base_count, rng, width, width * 2 / 3);
  } else {
    bases = datasets::MakeHelmetImages(base_count, rng,
                                       spec.side > 0 ? spec.side : 96);
  }

  std::vector<CorpusItem> items;
  items.reserve(static_cast<size_t>(spec.images));
  std::vector<datasets::MergeTarget> targets;
  for (GeneratedImage& generated : bases) {
    const ObjectId id = first_id + items.size();
    targets.push_back({id, generated.image.width(), generated.image.height()});
    CorpusItem item;
    item.image = std::move(generated.image);
    items.push_back(std::move(item));
  }
  // Materialized variants instantiate against the slice's own rasters.
  const Editor editor([&items, first_id](ObjectId id) -> Result<Image> {
    if (id < first_id || id - first_id >= items.size() ||
        items[id - first_id].edited) {
      return Status::NotFound("not a rendered base image");
    }
    return items[id - first_id].image;
  });
  const std::vector<Rgb> palette = datasets::PaletteFor(spec.kind);
  for (int i = 0; i < variant_count; ++i) {
    const size_t base = rng.Uniform(targets.size());
    const bool widening = rng.Bernoulli(spec.widening_probability);
    const int ops = static_cast<int>(rng.UniformInt(spec.min_ops, spec.max_ops));
    EditScript script = datasets::MakeRandomScript(
        targets[base].id, targets[base].width, targets[base].height, widening,
        ops, palette, targets, rng);
    CorpusItem item;
    if (i < script_count) {
      item.edited = true;
      item.script = std::move(script);
    } else {
      Result<Image> variant = editor.Instantiate(items[base].image, script);
      // A variant that fails to instantiate is stored as its base's copy;
      // generated scripts always instantiate, so this never fires.
      item.image = variant.ok() ? std::move(variant).value() : items[base].image;
    }
    items.push_back(std::move(item));
  }
  return items;
}

namespace {

/// Inserts `items` in order; each must get id `first_id + i`. Returns
/// false (after `report->Wrong`) on any failure.
bool InsertSlice(const std::vector<CorpusItem>& items, ObjectId first_id,
                 const InsertBinary& insert_binary,
                 const InsertEdited& insert_edited, Report* report) {
  for (size_t i = 0; i < items.size(); ++i) {
    const Result<ObjectId> id = items[i].edited ? insert_edited(items[i].script)
                                                : insert_binary(items[i].image);
    if (!id.ok() || *id != first_id + i) {
      report->Wrong("insert of image " + std::to_string(first_id + i) + ": " +
                    (id.ok() ? "unexpected id" : id.status().ToString()));
      return false;
    }
  }
  return true;
}

}  // namespace

bool BuildCorpus(const CorpusSpec& spec, int slices, Rng& rng,
                 const InsertBinary& insert_binary,
                 const InsertEdited& insert_edited, SetupClock* setup,
                 CorpusIds* ids, Report* report) {
  ObjectId next = catalog_keys::kFirstObjectId;
  for (int s = 0; s < slices; ++s) {
    Stopwatch render;
    const std::vector<CorpusItem> items = RenderSlice(spec, next, rng);
    setup->render.push_back(render.ElapsedSeconds());
    Stopwatch insert;
    if (!InsertSlice(items, next, insert_binary, insert_edited, report)) {
      return false;
    }
    setup->insert.push_back(insert.ElapsedSeconds());
    for (const CorpusItem& item : items) {
      if (item.edited) {
        ids->edited.push_back(next);
      } else {
        ids->binary.push_back(next);
        ids->targets.push_back({next, item.image.width(), item.image.height()});
      }
      ++next;
    }
  }
  return true;
}

InsertProbe::InsertProbe(const CorpusSpec& chunk_spec, int chunks, Rng& rng,
                         InsertBinary insert_binary,
                         InsertEdited insert_edited)
    : next_id_(catalog_keys::kFirstObjectId),
      insert_binary_(std::move(insert_binary)),
      insert_edited_(std::move(insert_edited)) {
  ObjectId first = next_id_;
  for (int c = 0; c < chunks; ++c) {
    chunks_.push_back(RenderSlice(chunk_spec, first, rng));
    first += chunks_.back().size();
  }
}

bool InsertProbe::Chunk(Report* report) {
  if (next_ == chunks_.size()) return true;
  std::vector<CorpusItem> items = std::move(chunks_[next_++]);
  Stopwatch insert;
  if (!InsertSlice(items, next_id_, insert_binary_, insert_edited_, report)) {
    return false;
  }
  rates_.push_back(static_cast<double>(items.size()) / insert.ElapsedSeconds());
  next_id_ += items.size();
  return true;
}

double InsertProbe::ImagesPerSecond() const {
  return InterquartileMeanOf(rates_);
}

double SetupClock::RenderSeconds() const {
  return static_cast<double>(render.size()) * MedianOf(render);
}
double SetupClock::InsertSeconds() const {
  return static_cast<double>(insert.size()) * MedianOf(insert);
}
double SetupClock::TotalSeconds() const {
  std::vector<double> slices(render.size());
  for (size_t i = 0; i < slices.size(); ++i) slices[i] = render[i] + insert[i];
  return static_cast<double>(slices.size()) * MedianOf(slices) + fixed;
}

std::vector<ConjunctiveQuery> MakeConjunctions(
    const AugmentedCollection& collection, const ColorQuantizer& quantizer,
    const std::vector<Rgb>& palette, int count, Rng& rng) {
  std::vector<ConjunctiveQuery> out;
  const std::vector<ObjectId>& binaries = collection.binary_ids();
  for (int i = 0; i < count; ++i) {
    const BinaryImageInfo* example =
        collection.FindBinary(binaries[rng.Uniform(binaries.size())]);
    std::vector<BinIndex> heavy;
    for (BinIndex bin = 0; bin < quantizer.BinCount(); ++bin) {
      if (example->histogram.Fraction(bin) >= 0.05) heavy.push_back(bin);
    }
    const size_t want = 2 + rng.Uniform(2);
    ConjunctiveQuery query;
    std::set<BinIndex> used;
    while (query.conjuncts.size() < want) {
      RangeQuery conjunct;
      if (!heavy.empty()) {
        const size_t pick = rng.Uniform(heavy.size());
        conjunct.bin = heavy[pick];
        heavy.erase(heavy.begin() + static_cast<std::ptrdiff_t>(pick));
        const double f = example->histogram.Fraction(conjunct.bin);
        conjunct.min_fraction = std::max(0.0, f - rng.UniformDouble(0.05, 0.3));
        conjunct.max_fraction = std::min(1.0, f + rng.UniformDouble(0.05, 0.3));
      } else {
        // Out of heavy bins: an "at most" predicate on a palette color.
        conjunct.bin = quantizer.BinOf(palette[rng.Uniform(palette.size())]);
        conjunct.min_fraction = 0.0;
        conjunct.max_fraction = rng.UniformDouble(0.3, 0.9);
      }
      if (used.insert(conjunct.bin).second) query.conjuncts.push_back(conjunct);
    }
    out.push_back(std::move(query));
  }
  return out;
}

namespace {

bool Satisfies(const RangeQuery& query, const ColorHistogram& histogram) {
  return query.Satisfies(histogram.Fraction(query.bin));
}

bool Satisfies(const ConjunctiveQuery& query,
               const ColorHistogram& histogram) {
  return query.Satisfies(
      [&histogram](BinIndex bin) { return histogram.Fraction(bin); });
}

template <typename Query>
std::vector<Query> SpreadBySelectivityImpl(std::vector<Query> queries,
                                           const AugmentedCollection& corpus) {
  std::vector<std::pair<int64_t, size_t>> ranked;
  for (size_t i = 0; i < queries.size(); ++i) {
    int64_t hits = 0;
    for (ObjectId id : corpus.binary_ids()) {
      hits += Satisfies(queries[i], corpus.FindBinary(id)->histogram) ? 1 : 0;
    }
    ranked.emplace_back(hits, i);
  }
  std::sort(ranked.begin(), ranked.end());
  size_t bits = 0;
  while ((size_t{1} << bits) < ranked.size()) ++bits;
  std::vector<Query> out;
  for (size_t i = 0; i < (size_t{1} << bits); ++i) {
    size_t reversed = 0;
    for (size_t b = 0; b < bits; ++b) {
      if (i & (size_t{1} << b)) reversed |= size_t{1} << (bits - 1 - b);
    }
    if (reversed < ranked.size()) {
      out.push_back(std::move(queries[ranked[reversed].second]));
    }
  }
  return out;
}

}  // namespace

std::vector<RangeQuery> SpreadBySelectivity(std::vector<RangeQuery> queries,
                                            const AugmentedCollection& corpus) {
  return SpreadBySelectivityImpl(std::move(queries), corpus);
}

std::vector<ConjunctiveQuery> SpreadBySelectivity(
    std::vector<ConjunctiveQuery> queries, const AugmentedCollection& corpus) {
  return SpreadBySelectivityImpl(std::move(queries), corpus);
}

std::vector<SimilarityQuery> MakeSimilarityQueries(
    const AugmentedCollection& collection, int count, uint32_t k, Rng& rng) {
  std::vector<SimilarityQuery> out;
  const std::vector<ObjectId>& binaries = collection.binary_ids();
  for (int i = 0; i < count; ++i) {
    SimilarityQuery query;
    query.histogram =
        collection.FindBinary(binaries[rng.Uniform(binaries.size())])->histogram;
    query.k = k;
    out.push_back(std::move(query));
  }
  return out;
}

Ladder::Ladder(size_t ring_capacity) : tracer_(&registry_, ring_capacity) {}

obs::SpanCategory* Ladder::Category(const std::string& name) {
  return tracer_.Intern("ladder." + name);
}

double Ladder::Rung(const std::string& rung, const std::function<void()>& body) {
  Stopwatch watch;
  {
    obs::Span span(Category(rung));
    body();
  }
  const double seconds = watch.ElapsedSeconds();
  seconds_[rung].Add(seconds);
  return seconds;
}

double Ladder::SelfMs(const std::string& upper, const std::string& lower) {
  if (seconds_[upper].empty() || seconds_[lower].empty()) return 0.0;
  return seconds_[upper].MedianMs() - seconds_[lower].MedianMs();
}

bool Ladder::Dump(const std::string& path) const {
  std::ofstream out(path);
  tracer_.DumpRecentJson(out);
  return static_cast<bool>(out);
}

Result<QueryResult> RunAtFacade(const MultimediaDatabase& db,
                                const QueryRequest& request) {
  if (const RangeQuery* range = request.range()) {
    return db.RunRange(*range, request.method);
  }
  if (const ConjunctiveQuery* conjunctive = request.conjunctive()) {
    return db.RunConjunctive(*conjunctive, request.method);
  }
  return db.RunSimilarity(*request.similarity());
}

Result<QueryResult> RunAtProcessor(const MultimediaDatabase& db,
                                   const QueryRequest& request,
                                   double* make_seconds) {
  Stopwatch make;
  MMDB_ASSIGN_OR_RETURN(std::unique_ptr<QueryProcessor> processor,
                        db.MakeProcessor(request.method));
  *make_seconds = make.ElapsedSeconds();
  if (const RangeQuery* range = request.range()) {
    return processor->RunRange(*range, QueryContext{});
  }
  if (const ConjunctiveQuery* conjunctive = request.conjunctive()) {
    return processor->RunConjunctive(*conjunctive, QueryContext{});
  }
  return Status::InvalidArgument("similarity queries have no processor rung");
}

QueryRequest LadderRequest(size_t i, const std::vector<RangeQuery>& windows,
                           const std::vector<ConjunctiveQuery>& conjunctions) {
  const size_t slot = i % (kRangeMethods.size() + 1);
  const size_t query = i / (kRangeMethods.size() + 1);
  if (slot < kRangeMethods.size()) {
    return QueryRequest::Range(windows[query % windows.size()],
                               kRangeMethods[slot]);
  }
  return QueryRequest::Conjunctive(conjunctions[query % conjunctions.size()],
                                   QueryMethod::kPlanned);
}

Result<QueryResult> RunLowerRungs(Ladder* ladder, const MultimediaDatabase& db,
                                  const QueryRequest& request, Report* report) {
  Result<QueryResult> at_facade = Status::Internal("not run");
  Result<QueryResult> at_processor = Status::Internal("not run");
  double make_seconds = 0.0;
  ladder->Rung("facade", [&] { at_facade = RunAtFacade(db, request); });
  const double processor = ladder->Rung("processor", [&] {
    at_processor = RunAtProcessor(db, request, &make_seconds);
  });
  ladder->Record("make_processor", make_seconds);
  ladder->Record("processor." + std::string(QueryMethodName(request.method)),
                 processor);
  if (!at_processor.ok()) return at_processor.status();
  if (at_facade.ok() &&
      !Sign(at_processor->ids).SameSet(Sign(at_facade->ids))) {
    report->Wrong("facade and processor rungs disagree on " +
                  std::string(QueryMethodName(request.method)));
  }
  return at_facade;
}

void ReportNsPerImage(Ladder* ladder, double images, Report* report) {
  for (QueryMethod method : kRangeMethods) {
    const std::string name(QueryMethodName(method));
    // "parallel-rbm" reports as scan.parallel_*, "bwm-indexed" as
    // scan.indexed_*.
    const std::string metric = method == QueryMethod::kParallelRbm ? "parallel"
                               : method == QueryMethod::kBwmIndexed
                                   ? "indexed"
                                   : name;
    report->Metric("scan." + metric + "_ns_per_image",
                   ladder->Times("processor." + name).MedianMs() * 1e6 / images,
                   "ns");
  }
}

void RunFetches(const std::function<Result<Image>(ObjectId)>& get,
                const MultimediaDatabase& reference,
                const std::vector<ObjectId>& binary_ids,
                const std::vector<ObjectId>& edited_ids,
                double budget_seconds, int min_fetches, Rng& rng,
                Report* report, FetchTimes* times) {
  const size_t total = binary_ids.size() + edited_ids.size();
  Stopwatch phase;
  for (int i = 0; i < min_fetches || phase.ElapsedSeconds() < budget_seconds;
       ++i) {
    const size_t pick = rng.Uniform(total);
    const bool edited = pick >= binary_ids.size();
    const ObjectId id =
        edited ? edited_ids[pick - binary_ids.size()] : binary_ids[pick];
    Stopwatch call;
    const Result<Image> image = get(id);
    const double seconds = call.ElapsedSeconds();
    if (!image.ok()) {
      report->Attempt(false);
      continue;
    }
    bool right = !image->Empty();
    if (right && !edited) {
      const BinaryImageInfo* info = reference.collection().FindBinary(id);
      right = info != nullptr &&
              ExtractHistogram(*image, reference.quantizer()).counts() ==
                  info->histogram.counts();
    }
    if (!right) {
      report->Wrong("GetImage(" + std::to_string(id) + ") returned a wrong image");
      continue;
    }
    report->Attempt(true);
    times->all.Add(seconds);
    (edited ? times->edited : times->binary).Add(seconds);
  }
}

namespace {

/// Sum of one `Tracer::Default()` span site's recorded seconds.
double SpanSeconds(const std::string& name) {
  for (const auto& summary : obs::Tracer::Default().Summaries()) {
    if (summary.name == name) return summary.seconds.sum;
  }
  return 0.0;
}

double Ratio(double part, double whole) { return whole > 0 ? part / whole : 0.0; }

}  // namespace

void ReportScanLayer(const BwmCounts& counts, size_t edited_images,
                     size_t queries, const std::function<bool(size_t)>& run_bwm,
                     Report* report) {
  const auto per_query = [&](int64_t total) {
    return Ratio(static_cast<double>(total), static_cast<double>(counts.queries));
  };
  report->Metric("scan.binary_checked_per_query",
                 per_query(counts.stats.binary_images_checked), "count");
  report->Metric("scan.bounded_per_query",
                 per_query(counts.stats.edited_images_bounded), "count");
  report->Metric("scan.accepted_per_query",
                 per_query(counts.stats.edited_images_skipped), "count");
  report->Metric("scan.rules_per_query", per_query(counts.stats.rules_applied),
                 "count");
  report->Metric("scan.ids_per_query", per_query(counts.ids), "count");
  report->Metric("scan.accept_ratio",
                 Ratio(per_query(counts.stats.edited_images_skipped),
                       static_cast<double>(edited_images)),
                 "ratio");

  // Fine spans (one per rule walk, one per accepted cluster) are timed
  // only while detail is on, so only these queries pay for them.
  obs::Tracer::SetDetailEnabled(true);
  const double scan0 = SpanSeconds("bwm.scan");
  const double walk0 = SpanSeconds("bwm.rule_walk");
  const double accept0 = SpanSeconds("bwm.cluster_accept");
  for (size_t i = 0; i < queries; ++i) report->Attempt(run_bwm(i));
  obs::Tracer::SetDetailEnabled(false);
  const double scan = SpanSeconds("bwm.scan") - scan0;
  const double walk = SpanSeconds("bwm.rule_walk") - walk0;
  const double accept = SpanSeconds("bwm.cluster_accept") - accept0;
  report->Metric("scan.rule_walk_share", Ratio(walk, scan), "ratio");
  report->Metric("scan.cluster_accept_share", Ratio(accept, scan), "ratio");
  report->Metric("scan.other_share",
                 scan > 0 ? 1.0 - (walk + accept) / scan : 0.0, "ratio");
}

void ReportTraceOverhead(Ladder* ladder, size_t pairs,
                         const std::function<bool(size_t)>& run,
                         Report* report) {
  Samples plain, traced;
  for (size_t i = 0; i < 2 * pairs; ++i) {
    Stopwatch call;
    if (i % 2 == 0) {
      report->Attempt(run(i));
      plain.Add(call.ElapsedSeconds());
    } else {
      obs::Span root = ladder->Request();
      ladder->Rung("overhead", [&] { report->Attempt(run(i)); });
      traced.Add(call.ElapsedSeconds());
    }
  }
  report->Metric(
      "obs.trace_overhead_pct",
      100.0 * Ratio(traced.MedianMs() - plain.MedianMs(), plain.MedianMs()),
      "%");
}

void FinishTrace(const RunOptions& options, const Ladder& ladder,
                 const SetupClock& setup, Report* report) {
  report->Metric("setup.render_s", setup.RenderSeconds(), "s");
  report->Metric("setup.insert_s", setup.InsertSeconds(), "s");
  const std::string dump =
      options.out_dir + "/spans-" + options.workload + ".json";
  if (!ladder.Dump(dump)) report->Note("could not write " + dump);
  report->Note("span dump: " + dump + " (" + std::to_string(ladder.spans()) +
               " spans)");
}

void ReportBypassedLayers(const std::vector<std::string>& bypassed,
                          Report* report) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    for (const std::string& layer : bypassed) {
      if (std::string(name).rfind(layer, 0) == 0 && !report->Has(name)) {
        report->Metric(name, 0.0, unit);
      }
    }
  }
  report->Metric("failed_ratio",
                 report->attempted() > 0
                     ? static_cast<double>(report->failed()) /
                           static_cast<double>(report->attempted())
                     : 0.0,
                 "ratio");
}

}  // namespace mmdb::perfbench
