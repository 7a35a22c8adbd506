#include "core/query_metrics.h"

#include <map>
#include <string>

#include "core/database.h"
#include "obs/metrics.h"

namespace mmdb {

namespace {

struct MethodInstruments {
  obs::Counter* range_queries = nullptr;
  obs::Counter* conjunctive_queries = nullptr;
  obs::Counter* similarity_queries = nullptr;
  obs::Counter* failures = nullptr;
  obs::Counter* results = nullptr;
  obs::Counter* binary_checked = nullptr;
  obs::Counter* bounds_runs = nullptr;
  obs::Counter* cluster_skips = nullptr;
  obs::Counter* rules_applied = nullptr;
  obs::Counter* instantiations = nullptr;
  obs::Counter* corrupt_skips = nullptr;
};

MethodInstruments BuildInstruments(const std::string& name) {
  obs::Registry& registry = obs::Registry::Default();
  MethodInstruments instruments;
  instruments.range_queries = registry.GetCounter(
      "mmdb_queries_total", "Queries answered, by access path and kind.",
      {{"method", name}, {"kind", "range"}});
  instruments.conjunctive_queries = registry.GetCounter(
      "mmdb_queries_total", "Queries answered, by access path and kind.",
      {{"method", name}, {"kind", "conjunctive"}});
  instruments.similarity_queries = registry.GetCounter(
      "mmdb_queries_total", "Queries answered, by access path and kind.",
      {{"method", name}, {"kind", "similarity"}});
  instruments.failures = registry.GetCounter(
      "mmdb_query_failures_total", "Queries that returned an error.",
      {{"method", name}});
  instruments.results = registry.GetCounter(
      "mmdb_query_results_total", "Result ids returned to callers.",
      {{"method", name}});
  instruments.binary_checked = registry.GetCounter(
      "mmdb_query_binary_images_checked_total",
      "Binary images whose stored histogram was consulted.",
      {{"method", name}});
  instruments.bounds_runs = registry.GetCounter(
      "mmdb_query_bounds_runs_total",
      "Edited images for which the BOUNDS rule fold ran.",
      {{"method", name}});
  instruments.cluster_skips = registry.GetCounter(
      "mmdb_query_cluster_skips_total",
      "Edited images accepted from a BWM Main cluster without touching "
      "their operations.",
      {{"method", name}});
  instruments.rules_applied = registry.GetCounter(
      "mmdb_query_rules_applied_total",
      "Individual operation rules applied across all BOUNDS runs.",
      {{"method", name}});
  instruments.instantiations = registry.GetCounter(
      "mmdb_query_instantiations_total",
      "Edited images materialized by the instantiation baseline.",
      {{"method", name}});
  instruments.corrupt_skips = registry.GetCounter(
      "mmdb_query_corrupt_images_skipped_total",
      "Images excluded from answers because their stored blob failed "
      "verification.",
      {{"method", name}});
  return instruments;
}

/// One instrument set per access path, interned on first use. QueryMethod
/// is a closed enum, so the whole table is built once (thread-safe magic
/// static) and lookups after that are lock-free.
const MethodInstruments& InstrumentsFor(QueryMethod method) {
  static const std::map<QueryMethod, MethodInstruments>* const table = [] {
    auto* out = new std::map<QueryMethod, MethodInstruments>();
    for (QueryMethod m : kQueryMethods) {
      out->emplace(m, BuildInstruments(std::string(QueryMethodName(m))));
    }
    return out;
  }();
  return table->at(method);
}

/// Similarity queries have no access-path choice; they get their own
/// instrument set under `method="similarity"`.
const MethodInstruments& SimilarityInstruments() {
  static const MethodInstruments* const instruments =
      new MethodInstruments(BuildInstruments("similarity"));
  return *instruments;
}

}  // namespace

void RecordQueryMetrics(QueryMethod method, QueryKind kind,
                        const Result<QueryResult>& result) {
  if constexpr (!obs::kObsEnabled) {
    (void)method;
    (void)kind;
    (void)result;
    return;
  }
  const MethodInstruments& instruments = kind == QueryKind::kSimilarity
                                             ? SimilarityInstruments()
                                             : InstrumentsFor(method);
  switch (kind) {
    case QueryKind::kRange:
      instruments.range_queries->Increment();
      break;
    case QueryKind::kConjunctive:
      instruments.conjunctive_queries->Increment();
      break;
    case QueryKind::kSimilarity:
      instruments.similarity_queries->Increment();
      break;
  }
  if (!result.ok()) {
    static obs::Counter* const deadline_exceeded =
        obs::Registry::Default().GetCounter(
            "mmdb_query_deadline_exceeded_total",
            "Queries cut short because their deadline expired.");
    static obs::Counter* const cancelled = obs::Registry::Default().GetCounter(
        "mmdb_query_cancelled_total",
        "Queries cut short by a caller's cancel token.");
    instruments.failures->Increment();
    if (result.status().code() == StatusCode::kDeadlineExceeded) {
      deadline_exceeded->Increment();
    } else if (result.status().code() == StatusCode::kCancelled) {
      cancelled->Increment();
    }
    return;
  }
  const QueryStats& stats = result->stats;
  instruments.results->Increment(static_cast<int64_t>(result->ids.size()));
  instruments.binary_checked->Increment(stats.binary_images_checked);
  instruments.bounds_runs->Increment(stats.edited_images_bounded);
  instruments.cluster_skips->Increment(stats.edited_images_skipped);
  instruments.rules_applied->Increment(stats.rules_applied);
  instruments.instantiations->Increment(stats.images_instantiated);
  instruments.corrupt_skips->Increment(stats.corrupt_images_skipped);
}

}  // namespace mmdb
