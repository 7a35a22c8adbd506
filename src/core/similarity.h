#ifndef MMDB_CORE_SIMILARITY_H_
#define MMDB_CORE_SIMILARITY_H_

#include <vector>

#include "core/cancel.h"
#include "core/collection.h"
#include "core/histogram.h"
#include "core/query.h"  // SimilarityMatch lives with the query model.
#include "core/rules.h"
#include "util/result.h"

namespace mmdb {

/// The top-k candidate rule, shared by the single store and the sharded
/// merge: keeps every match whose optimistic distance (`distance_lo`)
/// does not exceed the k-th smallest guaranteed distance (`distance_hi`)
/// — nothing else can be among the true k nearest — sorted by
/// (distance_lo, id). A k beyond the match count keeps every match; k = 0
/// keeps none. Ids must be distinct.
std::vector<SimilarityMatch> TopKCandidates(
    std::vector<SimilarityMatch> matches, size_t k);

/// Similarity (nearest-neighbor) search over an augmented database — the
/// extension the paper lists as future work (Section 6).
///
/// Binary images are ranked by exact L1 histogram distance. For edited
/// images the searcher folds the Table 1 rules once over the script for
/// every histogram bin together (`FoldRules`) to get per-bin fraction
/// intervals, then derives a provable interval
/// [distance_lo, distance_hi] on the L1 distance. The k-NN result is the
/// candidate set that provably contains the true k nearest images:
/// every image whose optimistic distance does not exceed the k-th best
/// guaranteed distance.
///
/// A searcher owns a Merge-target resolver and the fold's state, both
/// reused across images, so use one searcher per thread.
class SimilaritySearcher {
 public:
  /// Referents must outlive the searcher.
  SimilaritySearcher(const AugmentedCollection* collection,
                     const RuleEngine* engine);

  /// Per-bin fraction intervals for an edited image: one fold over every
  /// bin, equal bin for bin to a fold over that bin alone. A non-null
  /// `check` is consulted before every operation.
  Result<std::pair<std::vector<double>, std::vector<double>>> AllBinBounds(
      const EditedImageInfo& info, CancelCheck* check = nullptr) const;

  /// Interval on the L1 distance between `query` (normalized fractions)
  /// and an edited image with per-bin fraction bounds [lo, hi].
  static SimilarityMatch DistanceInterval(
      ObjectId id, const std::vector<double>& query_fractions,
      const std::vector<double>& lo, const std::vector<double>& hi);

  /// k-NN candidate search (see class comment): `TopKCandidates` over
  /// every stored image. `stats` counts the rule work performed.
  /// `context` (when limited) is honored cooperatively per image and per
  /// operation, and an interrupt records the work done so far in
  /// `context.interrupt` — the range-query processors' contract.
  Result<std::vector<SimilarityMatch>> Knn(
      const ColorHistogram& query, size_t k, QueryStats* stats = nullptr,
      const QueryContext& context = {}) const;

  /// Answer of a similarity range query ("everything within L1 distance
  /// `radius` of the query"). `certain` images provably qualify
  /// (distance upper bound <= radius); `candidates` may qualify (lower
  /// bound <= radius < upper bound) and would need instantiation to
  /// settle. Together they contain every true match — the same
  /// no-false-negative contract as the color range queries.
  struct RangeAnswer {
    std::vector<SimilarityMatch> certain;
    std::vector<SimilarityMatch> candidates;
  };

  /// Runs a similarity range query without instantiating anything. A
  /// negative or NaN `radius` is InvalidArgument.
  Result<RangeAnswer> WithinDistance(const ColorHistogram& query,
                                     double radius,
                                     QueryStats* stats = nullptr) const;

 private:
  /// Scores every stored image, binary ids then edited ids: the exact L1
  /// distance of a binary image, the interval of an edited one.
  Result<std::vector<SimilarityMatch>> ScoreAll(
      const ColorHistogram& query, QueryStats* stats,
      const QueryContext& context) const;

  const AugmentedCollection* collection_;
  const RuleEngine* engine_;
  const CollectionTargetResolver resolver_;
  /// Every bin of the engine's quantizer, in order.
  const std::vector<BinIndex> all_bins_;
  mutable RuleState state_;
};

}  // namespace mmdb

#endif  // MMDB_CORE_SIMILARITY_H_
