#include "core/similarity.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mmdb {

namespace {

/// Optimistic distance first; ids break ties, so the order is total.
bool ByOptimistic(const SimilarityMatch& a, const SimilarityMatch& b) {
  if (a.distance_lo != b.distance_lo) return a.distance_lo < b.distance_lo;
  return a.id < b.id;
}

/// `L1Distance` between the query and a binary image without building
/// either normalized vector: the same terms, summed in the same bin
/// order, so the distance keeps its bits.
double BinaryDistance(const std::vector<double>& query_fractions,
                      const ColorHistogram& histogram) {
  double sum = 0.0;
  for (size_t i = 0; i < query_fractions.size(); ++i) {
    sum += std::fabs(query_fractions[i] -
                     histogram.Fraction(static_cast<BinIndex>(i)));
  }
  return sum;
}

}  // namespace

std::vector<SimilarityMatch> TopKCandidates(
    std::vector<SimilarityMatch> matches, size_t k) {
  double cutoff = -1.0;  // k == 0: distances are >= 0, so none is kept.
  if (k > matches.size()) {
    cutoff = std::numeric_limits<double>::infinity();
  } else if (k > 0) {
    std::vector<double> guaranteed;
    guaranteed.reserve(matches.size());
    for (const SimilarityMatch& match : matches) {
      guaranteed.push_back(match.distance_hi);
    }
    std::nth_element(guaranteed.begin(),
                     guaranteed.begin() + static_cast<ptrdiff_t>(k - 1),
                     guaranteed.end());
    cutoff = guaranteed[k - 1];
  }
  std::erase_if(matches, [cutoff](const SimilarityMatch& match) {
    return match.distance_lo > cutoff;
  });
  std::sort(matches.begin(), matches.end(), ByOptimistic);
  return matches;
}

SimilaritySearcher::SimilaritySearcher(const AugmentedCollection* collection,
                                       const RuleEngine* engine)
    : collection_(collection), engine_(engine) {}

SimilarityMatch SimilaritySearcher::DistanceInterval(
    ObjectId id, const std::vector<double>& query_fractions,
    const BoundsRow& bounds) {
  SimilarityMatch match;
  match.id = id;
  for (size_t i = 0; i < query_fractions.size(); ++i) {
    const double q = query_fractions[i];
    const FractionBounds bin = bounds.Fraction(i);
    const double lo = bin.min_fraction;
    const double hi = bin.max_fraction;
    // Per-bin |x - q| is minimized at the interval point closest to q and
    // maximized at the farthest endpoint.
    double bin_lo = 0.0;
    if (q < lo) {
      bin_lo = lo - q;
    } else if (q > hi) {
      bin_lo = q - hi;
    }
    const double bin_hi = std::max(std::fabs(q - lo), std::fabs(q - hi));
    match.distance_lo += bin_lo;
    match.distance_hi += bin_hi;
  }
  // Both histograms are distributions, so the true L1 distance is at most
  // 2 regardless of how loose the per-bin intervals are (the interval
  // model ignores the sum-to-one constraint; this clamp restores it).
  match.distance_hi = std::min(match.distance_hi, 2.0);
  return match;
}

Result<std::vector<SimilarityMatch>> SimilaritySearcher::ScoreAll(
    const ColorHistogram& query, QueryStats* stats,
    const QueryContext& context) const {
  CancelCheck check(context);
  const std::vector<double> query_fractions = query.Normalized();
  const int64_t bins = engine_->quantizer().BinCount();
  const std::vector<ObjectId>& edited_ids = collection_->edited_ids();
  const BoundsColumn& rows = collection_->edited_bounds();
  if (rows.size() != edited_ids.size() ||
      (rows.size() > 0 && rows.bins() < query_fractions.size())) {
    return Status::Corruption("bounds rows do not cover the edited images");
  }
  // An interrupt records work counters only: no candidate is final
  // before the cutoff.
  QueryResult progress;
  std::vector<SimilarityMatch> all;
  all.reserve(collection_->BinaryCount() + edited_ids.size());
  const Status walked = [&]() -> Status {
    for (ObjectId id : collection_->binary_ids()) {
      MMDB_RETURN_IF_ERROR(check.Check());
      const BinaryImageInfo* binary = collection_->FindBinary(id);
      SimilarityMatch match;
      match.id = id;
      match.distance_lo = match.distance_hi =
          BinaryDistance(query_fractions, binary->histogram);
      match.exact = true;
      all.push_back(match);
      ++progress.stats.binary_images_checked;
    }
    for (size_t i = 0; i < edited_ids.size(); ++i) {
      MMDB_RETURN_IF_ERROR(check.Check());
      const BoundsRow row = rows[i];
      all.push_back(DistanceInterval(edited_ids[i], query_fractions, row));
      ++progress.stats.edited_images_bounded;
      progress.stats.rules_applied += row.ops * bins;
    }
    return Status::OK();
  }();
  MMDB_RETURN_IF_ERROR(AnnotateInterrupt(context, progress, walked));
  if (stats != nullptr) *stats += progress.stats;
  return all;
}

Result<std::vector<SimilarityMatch>> SimilaritySearcher::Knn(
    const ColorHistogram& query, size_t k, QueryStats* stats,
    const QueryContext& context) const {
  MMDB_ASSIGN_OR_RETURN(std::vector<SimilarityMatch> all,
                        ScoreAll(query, stats, context));
  return TopKCandidates(std::move(all), k);
}

Result<SimilaritySearcher::RangeAnswer> SimilaritySearcher::WithinDistance(
    const ColorHistogram& query, double radius, QueryStats* stats) const {
  if (!(radius >= 0.0)) {  // Also rejects NaN, which compares false.
    return Status::InvalidArgument("similarity radius must be >= 0");
  }
  MMDB_ASSIGN_OR_RETURN(std::vector<SimilarityMatch> all,
                        ScoreAll(query, stats, QueryContext{}));
  RangeAnswer answer;
  for (const SimilarityMatch& match : all) {
    if (match.distance_hi <= radius) {
      answer.certain.push_back(match);
    } else if (match.distance_lo <= radius) {
      answer.candidates.push_back(match);
    }
  }
  std::sort(answer.certain.begin(), answer.certain.end(), ByOptimistic);
  std::sort(answer.candidates.begin(), answer.candidates.end(), ByOptimistic);
  return answer;
}

}  // namespace mmdb
