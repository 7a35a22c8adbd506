#ifndef MMDB_CORE_PLAN_H_
#define MMDB_CORE_PLAN_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/query.h"
#include "core/query_processor.h"
#include "util/result.h"

namespace mmdb {

struct QueryRequest;

/// Where a selectivity estimate came from.
enum class SelectivitySource {
  /// Exact per-bin occupancy of every stored binary histogram.
  kExact,
  /// Fractions sampled from a bounded subset of edited images' base
  /// histograms.
  kSampled,
};

inline const char* SelectivitySourceName(SelectivitySource source) {
  return source == SelectivitySource::kExact ? "exact" : "sampled";
}

/// Corpus statistics the planner estimates selectivity from: per-bin
/// fraction distributions (fixed-bucket histograms) for the binary side
/// (exact, from every stored histogram) and the edited side (sampled
/// through base histograms), plus the scan-size parameters the cost
/// model needs.
class CorpusStats {
 public:
  /// Equal-width fraction buckets per bin; in-range mass is pro-rated
  /// linearly within partial buckets.
  static constexpr int kBuckets = 32;

  /// Scans the collection once. At most 128 edited images are sampled
  /// (their base histograms stand in for the edited fractions, which
  /// would each cost a full rule fold to bound exactly).
  static CorpusStats Collect(const MultimediaDatabase& db);

  /// Estimated fraction of stored images whose `query.bin` fraction lies
  /// in [min_fraction, max_fraction]; weights the binary and edited
  /// estimates by population. Sets `*source` (when non-null) to how the
  /// dominant side was estimated.
  double Selectivity(const RangeQuery& query,
                     SelectivitySource* source = nullptr) const;

  int64_t binary_count() const { return binary_count_; }
  int64_t edited_count() const { return edited_count_; }
  /// Edited images classified into the BWM Main component, as a fraction
  /// of all edited images (drives the cluster-skip term).
  double main_fraction() const { return main_fraction_; }
  double avg_ops() const { return avg_ops_; }
  int32_t bin_count() const { return static_cast<int32_t>(binary_buckets_.size()); }

 private:
  using Buckets = std::array<int64_t, kBuckets>;

  static double BucketMass(const Buckets& buckets, int64_t total, double lo,
                           double hi);

  int64_t binary_count_ = 0;
  int64_t edited_count_ = 0;
  int64_t sampled_edited_ = 0;
  double main_fraction_ = 0.0;
  double avg_ops_ = 0.0;
  /// One fraction-distribution histogram per bin, each side.
  std::vector<Buckets> binary_buckets_;
  std::vector<Buckets> sampled_buckets_;
};

/// One conjunct's planning decision.
struct PlannedPredicate {
  RangeQuery predicate;
  /// Estimated fraction of stored images satisfying the predicate.
  double selectivity = 1.0;
  SelectivitySource source = SelectivitySource::kSampled;
  /// Access path chosen for this predicate (meaningful for the driver;
  /// residual predicates are filtered, not scanned).
  QueryMethod method = QueryMethod::kBwm;
  /// Cost-model units for this step.
  double estimated_cost = 0.0;
};

/// An ordered execution plan: `steps[0]` drives the scan with its chosen
/// access method, later steps filter the driver's survivors
/// most-selective-first.
struct QueryPlan {
  std::vector<PlannedPredicate> steps;
  /// Corpus shape the estimates were made against.
  int64_t binary_count = 0;
  int64_t edited_count = 0;
  double avg_ops = 0.0;
  double main_fraction = 0.0;
  /// Estimated images surviving the driver (feeding the first residual).
  double estimated_driver_results = 0.0;

  const PlannedPredicate& driver() const { return steps.front(); }

  /// Human-readable rendering of the plan (the `--explain` output).
  std::string Explain() const;
};

/// The cost-based planner: estimates per-predicate selectivity from
/// `CorpusStats`, orders conjuncts most-selective-first, and picks the
/// driver's access method as the cheaper of the semantics-preserving
/// candidates (kRbm / kBwm — the conventional and clustered scans;
/// kInstantiate is costed for comparison but never chosen, because its
/// edited-image answers are exact rather than bounded and would change
/// the result set). Costs come from the fixed, Fig 3/4-calibrated cost
/// model in plan.cc.
class QueryPlanner {
 public:
  explicit QueryPlanner(CorpusStats stats);

  /// Convenience: plans against `db`'s cached corpus statistics
  /// (`MultimediaDatabase::PlannerStats`), so building a planner per
  /// query costs a snapshot copy, not a collection scan.
  explicit QueryPlanner(const MultimediaDatabase& db);

  /// Plans a conjunction (empty conjunctions are the caller's error and
  /// plan as a no-step plan).
  QueryPlan PlanConjunctive(const ConjunctiveQuery& query) const;

  /// Plans a single predicate (a one-conjunct conjunction).
  QueryPlan PlanRange(const RangeQuery& query) const;

  /// Scan cost of answering one predicate with `method` (the Fig 3/4
  /// curves in cost-model units).
  double MethodCost(QueryMethod method, double selectivity) const;

  const CorpusStats& stats() const { return stats_; }

 private:
  CorpusStats stats_;
};

/// The `QueryMethod::kPlanned` access path: plans the query, runs the
/// driving predicate with the chosen sub-processor, then filters the
/// survivors through the residual conjuncts (exact fractions for binary
/// images, rule-fold bounds for edited ones). Returns the same result
/// *sets* as kRbm / kBwm; result order follows the driver's scan.
class PlannedQueryProcessor : public QueryProcessor {
 public:
  /// Borrows `db` (which must outlive the processor); snapshots the
  /// database's cached corpus stats at construction, so the per-query
  /// processor build stays cheap.
  explicit PlannedQueryProcessor(const MultimediaDatabase* db);

  Result<QueryResult> RunConjunctive(const ConjunctiveQuery& query,
                                     const QueryContext& ctx) const override;

  const QueryPlanner& planner() const { return planner_; }

 private:
  const MultimediaDatabase* db_;
  QueryPlanner planner_;
};

/// Renders the execution strategy for any request shape: the cost-based
/// plan for range / conjunctive payloads (whatever `request.method` says,
/// with a note when the request would not use it), or the scan shape for
/// a similarity payload. Validates the payload against `db` first.
Result<std::string> ExplainQuery(const MultimediaDatabase& db,
                                 const QueryRequest& request);

}  // namespace mmdb

#endif  // MMDB_CORE_PLAN_H_
