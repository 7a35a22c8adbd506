#include "core/plan.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <utility>

#include "core/collection.h"
#include "core/query_service.h"
#include "core/scan.h"
#include "core/similarity.h"

namespace mmdb {

namespace {

/// Fixed-precision helpers for the Explain rendering.
std::string Fixed(double value, int digits = 1) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

/// The relative costs the planner charges, in units of one Table 1 rule
/// application. The ratios are calibrated from the paper's Figures 3/4:
/// instantiating an edited image costs orders of magnitude more than
/// folding its rules, and accepting a Main-cluster member is ~an order
/// of magnitude cheaper than one rule fold.
struct CostModel {
  /// One rule application during a BOUNDS fold.
  static constexpr double kRuleCost = 1.0;
  /// One stored-histogram fraction test (conventional binary scan).
  static constexpr double kHistogramProbe = 0.25;
  /// Accepting one Main-component member without touching its script.
  static constexpr double kClusterSkip = 0.05;
  /// Materializing one edited image (the kInstantiate baseline).
  static constexpr double kInstantiateFactor = 400.0;
  /// One exact residual-conjunct test on a driver survivor.
  static constexpr double kResidualFilter = 0.25;
};

/// Edited images whose base histograms `CorpusStats::Collect` samples.
constexpr int64_t kSampleLimit = 128;

int BucketOf(double fraction) {
  const int bucket = static_cast<int>(fraction * CorpusStats::kBuckets);
  return std::clamp(bucket, 0, CorpusStats::kBuckets - 1);
}

/// Driver candidates, cheapest-first on ties (strict `<` keeps the
/// earlier entry). kInstantiate is deliberately absent: its edited-image
/// answers are exact rather than bounded, so choosing it would change
/// the planned result set.
constexpr QueryMethod kDriverCandidates[] = {QueryMethod::kRbm,
                                             QueryMethod::kBwm};

}  // namespace

CorpusStats CorpusStats::Collect(const MultimediaDatabase& db) {
  CorpusStats stats;
  const AugmentedCollection& collection = db.collection();
  const int32_t bins = db.quantizer().BinCount();
  stats.binary_buckets_.assign(static_cast<size_t>(bins), Buckets{});
  stats.sampled_buckets_.assign(static_cast<size_t>(bins), Buckets{});
  stats.binary_count_ = static_cast<int64_t>(collection.BinaryCount());
  stats.edited_count_ = static_cast<int64_t>(collection.EditedCount());

  for (ObjectId id : collection.binary_ids()) {
    const BinaryImageInfo* info = collection.FindBinary(id);
    for (BinIndex bin = 0; bin < bins; ++bin) {
      ++stats.binary_buckets_[static_cast<size_t>(bin)]
                             [BucketOf(info->histogram.Fraction(bin))];
    }
  }

  int64_t total_ops = 0;
  for (ObjectId id : collection.edited_ids()) {
    const EditedImageInfo* info = collection.FindEdited(id);
    total_ops += static_cast<int64_t>(info->script.ops.size());
    if (stats.sampled_edited_ >= kSampleLimit) continue;
    // The base histogram stands in for the edited image's fractions; an
    // exact figure would cost a full rule fold per sampled image.
    const BinaryImageInfo* base = collection.FindBinary(info->script.base_id);
    if (base == nullptr) continue;
    ++stats.sampled_edited_;
    for (BinIndex bin = 0; bin < bins; ++bin) {
      ++stats.sampled_buckets_[static_cast<size_t>(bin)]
                              [BucketOf(base->histogram.Fraction(bin))];
    }
  }

  if (stats.edited_count_ > 0) {
    stats.avg_ops_ = static_cast<double>(total_ops) /
                     static_cast<double>(stats.edited_count_);
    stats.main_fraction_ = static_cast<double>(db.bwm_index().MainEditedCount()) /
                           static_cast<double>(stats.edited_count_);
  }
  return stats;
}

double CorpusStats::BucketMass(const Buckets& buckets, int64_t total,
                               double lo, double hi) {
  if (total <= 0) return 1.0;
  // A point query still has mass: widen it to one representable sliver so
  // equality predicates estimate as narrow, not impossible.
  hi = std::max(hi, lo + 1e-6);
  constexpr double kWidth = 1.0 / kBuckets;
  double mass = 0.0;
  for (int b = 0; b < kBuckets; ++b) {
    const double bucket_lo = b * kWidth;
    const double bucket_hi = bucket_lo + kWidth;
    const double overlap =
        std::min(hi, bucket_hi) - std::max(lo, bucket_lo);
    if (overlap <= 0.0) continue;
    mass += static_cast<double>(buckets[static_cast<size_t>(b)]) *
            std::min(1.0, overlap / kWidth);
  }
  return mass / static_cast<double>(total);
}

double CorpusStats::Selectivity(const RangeQuery& query,
                                SelectivitySource* source) const {
  if (source != nullptr) {
    *source = binary_count_ > 0 ? SelectivitySource::kExact
                                : SelectivitySource::kSampled;
  }
  if (query.bin < 0 || query.bin >= bin_count()) return 1.0;
  const size_t bin = static_cast<size_t>(query.bin);
  const double lo = query.min_fraction;
  const double hi = query.max_fraction;
  const double sel_binary = BucketMass(binary_buckets_[bin], binary_count_,
                                       lo, hi);
  const double sel_edited =
      sampled_edited_ > 0
          ? BucketMass(sampled_buckets_[bin], sampled_edited_, lo, hi)
          : sel_binary;
  const double population =
      static_cast<double>(binary_count_ + edited_count_);
  if (population <= 0.0) return 1.0;
  return (sel_binary * static_cast<double>(binary_count_) +
          sel_edited * static_cast<double>(edited_count_)) /
         population;
}

QueryPlanner::QueryPlanner(CorpusStats stats) : stats_(std::move(stats)) {}

QueryPlanner::QueryPlanner(const MultimediaDatabase& db)
    : QueryPlanner(*db.PlannerStats()) {}

double QueryPlanner::MethodCost(QueryMethod method, double selectivity) const {
  const double binary = static_cast<double>(stats_.binary_count());
  const double edited = static_cast<double>(stats_.edited_count());
  const double avg_ops = stats_.avg_ops();
  const double main = stats_.main_fraction();
  const double edited_rbm = edited * avg_ops * CostModel::kRuleCost;
  const double edited_bwm =
      edited * (main * CostModel::kClusterSkip +
                (1.0 - main) * avg_ops * CostModel::kRuleCost);
  switch (method) {
    case QueryMethod::kInstantiate:
      return binary * CostModel::kHistogramProbe +
             edited * CostModel::kInstantiateFactor;
    case QueryMethod::kRbm:
    case QueryMethod::kParallelRbm:
      return binary * CostModel::kHistogramProbe + edited_rbm;
    case QueryMethod::kBwm:
    case QueryMethod::kBwmIndexed:
      return binary * CostModel::kHistogramProbe + edited_bwm;
    case QueryMethod::kPlanned:
      break;
  }
  // kPlanned (or anything unknown) costs what its best candidate costs.
  double best = MethodCost(kDriverCandidates[0], selectivity);
  for (QueryMethod candidate : kDriverCandidates) {
    best = std::min(best, MethodCost(candidate, selectivity));
  }
  return best;
}

QueryPlan QueryPlanner::PlanConjunctive(const ConjunctiveQuery& query) const {
  QueryPlan plan;
  plan.binary_count = stats_.binary_count();
  plan.edited_count = stats_.edited_count();
  plan.avg_ops = stats_.avg_ops();
  plan.main_fraction = stats_.main_fraction();

  plan.steps.reserve(query.conjuncts.size());
  for (const RangeQuery& conjunct : query.conjuncts) {
    PlannedPredicate step;
    step.predicate = conjunct;
    step.selectivity = stats_.Selectivity(conjunct, &step.source);
    plan.steps.push_back(step);
  }
  // Most-selective-first; stable so equal estimates keep query order.
  std::stable_sort(plan.steps.begin(), plan.steps.end(),
                   [](const PlannedPredicate& a, const PlannedPredicate& b) {
                     return a.selectivity < b.selectivity;
                   });
  if (plan.steps.empty()) return plan;

  PlannedPredicate& driver = plan.steps.front();
  driver.method = kDriverCandidates[0];
  driver.estimated_cost = MethodCost(driver.method, driver.selectivity);
  for (QueryMethod candidate : kDriverCandidates) {
    const double cost = MethodCost(candidate, driver.selectivity);
    if (cost < driver.estimated_cost) {
      driver.method = candidate;
      driver.estimated_cost = cost;
    }
  }

  const double population =
      static_cast<double>(plan.binary_count + plan.edited_count);
  plan.estimated_driver_results = driver.selectivity * population;
  double survivors = plan.estimated_driver_results;
  const double binary_share =
      population > 0.0
          ? static_cast<double>(plan.binary_count) / population
          : 0.0;
  for (size_t i = 1; i < plan.steps.size(); ++i) {
    PlannedPredicate& step = plan.steps[i];
    step.method = driver.method;  // Residuals ride the driver's scan.
    const double surviving_binary = survivors * binary_share;
    const double surviving_edited = survivors * (1.0 - binary_share);
    step.estimated_cost =
        surviving_binary * CostModel::kResidualFilter +
        surviving_edited * plan.avg_ops * CostModel::kRuleCost;
    survivors *= step.selectivity;
  }
  return plan;
}

QueryPlan QueryPlanner::PlanRange(const RangeQuery& query) const {
  ConjunctiveQuery conjunctive;
  conjunctive.conjuncts.push_back(query);
  return PlanConjunctive(conjunctive);
}

std::string QueryPlan::Explain() const {
  std::string out = "query plan (" + std::to_string(steps.size()) +
                    (steps.size() == 1 ? " predicate" : " predicates") +
                    " over " + std::to_string(binary_count) + " binary + " +
                    std::to_string(edited_count) + " edited images, avg " +
                    Fixed(avg_ops) + " ops/script, " +
                    Fixed(main_fraction * 100.0) + "% Main)\n";
  for (size_t i = 0; i < steps.size(); ++i) {
    const PlannedPredicate& step = steps[i];
    out += "  step " + std::to_string(i + 1) + ": " +
           (i == 0 ? "scan   " : "filter ") + step.predicate.ToString() +
           "\n";
    out += "          selectivity " + Fixed(step.selectivity, 4) + " (" +
           SelectivitySourceName(step.source) + ")";
    if (i == 0) {
      out += " · method " + std::string(QueryMethodName(step.method));
    }
    out += " · est. cost " + Fixed(step.estimated_cost) + "\n";
  }
  out += "  estimated driver survivors: " +
         Fixed(estimated_driver_results) + " of " +
         std::to_string(binary_count + edited_count) + "\n";
  return out;
}

PlannedQueryProcessor::PlannedQueryProcessor(const MultimediaDatabase* db)
    : db_(db), planner_(*db) {}

Result<QueryResult> PlannedQueryProcessor::RunConjunctive(
    const ConjunctiveQuery& query, const QueryContext& ctx) const {
  if (query.conjuncts.empty()) {
    return Status::InvalidArgument("conjunctive query has no conjuncts");
  }
  const QueryPlan plan = planner_.PlanConjunctive(query);
  MMDB_ASSIGN_OR_RETURN(std::unique_ptr<QueryProcessor> processor,
                        db_->MakeProcessor(plan.driver().method));
  MMDB_ASSIGN_OR_RETURN(
      QueryResult driven,
      processor->RunRange(plan.driver().predicate, ctx));
  if (plan.steps.size() == 1) return driven;

  // Residual filter over the driver's survivors: exact fractions for
  // binary images, the scan kernel's per-image rule fold for edited ones,
  // so the planned result set equals the unplanned one.
  ConjunctiveQuery residual;
  for (size_t i = 1; i < plan.steps.size(); ++i) {
    residual.conjuncts.push_back(plan.steps[i].predicate);
  }
  CancelCheck check(ctx);
  const AugmentedCollection& collection = db_->collection();
  const EditedImageBounder bounder(collection, db_->rule_engine());
  QueryResult out;
  out.stats = driven.stats;
  for (ObjectId id : driven.ids) {
    MMDB_RETURN_IF_ERROR(AnnotateInterrupt(ctx, out, check.Check()));
    if (const BinaryImageInfo* binary = collection.FindBinary(id)) {
      ++out.stats.binary_images_checked;
      if (residual.Satisfies(
              [&](BinIndex bin) { return binary->histogram.Fraction(bin); })) {
        out.ids.push_back(id);
      }
      continue;
    }
    const EditedImageInfo* edited = collection.FindEdited(id);
    if (edited == nullptr) continue;  // Deleted between scan and filter.
    MMDB_RETURN_IF_ERROR(AnnotateInterrupt(
        ctx, out,
        bounder.Bound(*edited, residual.conjuncts, check.enabled_or_null(),
                      &out)));
  }
  return out;
}

Result<std::string> ExplainQuery(const MultimediaDatabase& db,
                                 const QueryRequest& request) {
  const BinIndex bins = db.quantizer().BinCount();
  if (const SimilarityQuery* similarity = request.similarity()) {
    MMDB_RETURN_IF_ERROR(ValidateSimilarity(*similarity, bins));
    const std::shared_ptr<const CorpusStats> stats_snapshot =
        db.PlannerStats();
    const CorpusStats& stats = *stats_snapshot;
    std::string out = "similarity scan (" + similarity->ToString() + ")\n";
    out += "  " + std::to_string(stats.binary_count()) +
           " binary images: exact L1 histogram distances\n";
    out += "  " + std::to_string(stats.edited_count()) +
           " edited images: provable [lo, hi] distance intervals (one " +
           std::to_string(bins) + "-bin rule fold each, avg " +
           Fixed(stats.avg_ops()) + " ops)\n";
    out += "  cutoff: k-th smallest guaranteed distance (k=" +
           std::to_string(similarity->k) + "); no false negatives\n";
    return out;
  }

  const ConjunctiveQuery conjunctive =
      request.range() != nullptr ? ConjunctiveQuery{{*request.range()}}
                                 : *request.conjunctive();
  MMDB_RETURN_IF_ERROR(ValidateConjunctive(conjunctive, bins));
  const QueryPlanner planner(db);
  std::string out = planner.PlanConjunctive(conjunctive).Explain();
  if (request.method != QueryMethod::kPlanned) {
    out += "  note: request method is '" +
           std::string(QueryMethodName(request.method)) +
           "'; the plan above runs under method 'planned'\n";
  }
  return out;
}

}  // namespace mmdb
