#include "core/plan.h"

#include <algorithm>
#include <cstdio>

#include "core/collection.h"
#include "core/query_service.h"

namespace mmdb {

namespace {

/// Fixed-precision helpers for the Explain rendering.
std::string Fixed(double value, int digits = 1) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

/// Edited images whose base histograms `CorpusStats::Collect` samples.
constexpr int64_t kSampleLimit = 128;

int BucketOf(double fraction) {
  const int bucket = static_cast<int>(fraction * CorpusStats::kBuckets);
  return std::clamp(bucket, 0, CorpusStats::kBuckets - 1);
}

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
    stats.main_fraction_ = static_cast<double>(collection.MainEditedCount()) /
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

double CorpusStats::Selectivity(const RangeQuery& query) const {
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

QueryPlanner::QueryPlanner(const MultimediaDatabase& db)
    : stats_(db.PlannerStats()) {}

QueryPlan QueryPlanner::PlanConjunctive(const ConjunctiveQuery& query) const {
  QueryPlan plan;
  plan.binary_count = stats_->binary_count();
  plan.edited_count = stats_->edited_count();
  plan.avg_ops = stats_->avg_ops();
  plan.main_fraction = stats_->main_fraction();
  plan.method =
      plan.main_fraction > 0.0 ? QueryMethod::kBwm : QueryMethod::kRbm;

  plan.steps.reserve(query.conjuncts.size());
  for (const RangeQuery& conjunct : query.conjuncts) {
    plan.steps.push_back({conjunct, stats_->Selectivity(conjunct)});
  }
  // Most-selective-first; stable so equal estimates keep query order.
  std::stable_sort(plan.steps.begin(), plan.steps.end(),
                   [](const PlannedPredicate& a, const PlannedPredicate& b) {
                     return a.selectivity < b.selectivity;
                   });
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
                    Fixed(main_fraction * 100.0) + "% Main) · method " +
                    std::string(QueryMethodName(method)) + "\n";
  for (size_t i = 0; i < steps.size(); ++i) {
    out += "  conjunct " + std::to_string(i + 1) + ": " +
           steps[i].predicate.ToString() + " · selectivity " +
           Fixed(steps[i].selectivity, 4) + "\n";
  }
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
  ConjunctiveQuery ordered;
  ordered.conjuncts.reserve(plan.steps.size());
  for (const PlannedPredicate& step : plan.steps) {
    ordered.conjuncts.push_back(step.predicate);
  }
  MMDB_ASSIGN_OR_RETURN(std::unique_ptr<QueryProcessor> scan,
                        db_->MakeProcessor(plan.method));
  return scan->RunConjunctive(ordered, ctx);
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
