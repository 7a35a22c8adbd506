#ifndef MMDB_CORE_PLAN_H_
#define MMDB_CORE_PLAN_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/query.h"
#include "core/query_processor.h"
#include "util/result.h"

namespace mmdb {

struct QueryRequest;

/// Corpus statistics the planner estimates selectivity from: per-bin
/// fraction distributions (fixed-bucket histograms) for the binary side
/// (from every stored histogram) and the edited side (sampled through
/// base histograms), plus the corpus shape the plan reports.
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
  /// estimates by population.
  double Selectivity(const RangeQuery& query) const;

  int64_t binary_count() const { return binary_count_; }
  int64_t edited_count() const { return edited_count_; }
  /// Edited images classified into the BWM Main component, as a fraction
  /// of all edited images (picks the plan's scan).
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

/// One conjunct and its estimated selectivity.
struct PlannedPredicate {
  RangeQuery predicate;
  /// Estimated fraction of stored images satisfying the predicate.
  double selectivity = 1.0;
};

/// A conjunction ordered most-selective-first, and the scan that runs
/// it as one conjunction.
struct QueryPlan {
  /// The conjuncts in evaluation order.
  std::vector<PlannedPredicate> steps;
  /// kBwm when the Main component holds edited images, else kRbm.
  QueryMethod method = QueryMethod::kRbm;
  /// Corpus shape the estimates were made against.
  int64_t binary_count = 0;
  int64_t edited_count = 0;
  double avg_ops = 0.0;
  double main_fraction = 0.0;

  /// Human-readable rendering of the plan (the `--explain` output).
  std::string Explain() const;
};

/// The planner: estimates per-predicate selectivity from `CorpusStats`,
/// orders the conjuncts most-selective-first (the scan tests them in
/// that order and stops at the first that fails), and picks the scan.
/// kBwm accepts a Main cluster whose base satisfies the whole
/// conjunction without a rule fold, so it is the scan whenever the Main
/// component holds edited images; without any, kBwm and kRbm do the
/// same work and the plan names kRbm.
class QueryPlanner {
 public:
  /// Plans against `db`'s cached corpus statistics
  /// (`MultimediaDatabase::PlannerStats`) and shares that snapshot, so
  /// building a planner per query copies neither the statistics nor scans
  /// the collection.
  explicit QueryPlanner(const MultimediaDatabase& db);

  /// Plans a conjunction (empty conjunctions are the caller's error and
  /// plan as a no-step plan).
  QueryPlan PlanConjunctive(const ConjunctiveQuery& query) const;

  /// Plans a single predicate (a one-conjunct conjunction).
  QueryPlan PlanRange(const RangeQuery& query) const;

  const CorpusStats& stats() const { return *stats_; }

 private:
  std::shared_ptr<const CorpusStats> stats_;
};

/// The `QueryMethod::kPlanned` access path: plans the query, then runs
/// the reordered conjunction through the plan's scan
/// (`MultimediaDatabase::MakeProcessor(plan.method)`). Returns that
/// scan's ids in its walk order; the set equals kRbm's and kBwm's.
class PlannedQueryProcessor : public QueryProcessor {
 public:
  /// Borrows `db` (which must outlive the processor); shares the
  /// database's cached corpus stats at construction, so the per-query
  /// processor build stays cheap.
  explicit PlannedQueryProcessor(const MultimediaDatabase* db);

  Result<QueryResult> RunConjunctive(const ConjunctiveQuery& query,
                                     const QueryContext& ctx) const override;

 private:
  const MultimediaDatabase* db_;
  QueryPlanner planner_;
};

/// Renders the execution strategy for any request shape: the plan for
/// range / conjunctive payloads (whatever `request.method` says,
/// with a note when the request would not use it), or the scan shape for
/// a similarity payload. Validates the payload against `db` first.
Result<std::string> ExplainQuery(const MultimediaDatabase& db,
                                 const QueryRequest& request);

}  // namespace mmdb

#endif  // MMDB_CORE_PLAN_H_
