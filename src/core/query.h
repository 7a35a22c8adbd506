#ifndef MMDB_CORE_QUERY_H_
#define MMDB_CORE_QUERY_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/histogram.h"
#include "core/quantizer.h"
#include "editops/edit_ops.h"
#include "util/status.h"

namespace mmdb {

/// Formats a fraction with enough digits to round-trip through `strtod`
/// exactly — `ToString()` renderings below are re-parseable by
/// `ParseQuery` without changing the query they denote.
inline std::string FormatFraction(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// A color range query: "retrieve all images whose fraction of pixels in
/// histogram bin `bin` lies in [min_fraction, max_fraction]" — e.g. the
/// paper's "Retrieve all images that are at least 25% blue" is
/// `{BinOf(blue), 0.25, 1.0}`. Both endpoints are inclusive.
struct RangeQuery {
  BinIndex bin = 0;
  double min_fraction = 0.0;
  double max_fraction = 1.0;

  /// True iff a fraction value satisfies the query.
  bool Satisfies(double fraction) const {
    return fraction >= min_fraction && fraction <= max_fraction;
  }

  /// Rendered in the `ParseQuery` grammar, so the output re-parses to an
  /// equivalent query: `color(12) between 0.25 and 1`.
  std::string ToString() const {
    return "color(" + std::to_string(bin) + ") between " +
           FormatFraction(min_fraction) + " and " +
           FormatFraction(max_fraction);
  }
};

/// A conjunction of range predicates over distinct bins, e.g. "at least
/// 25% blue AND at most 10% red". An image satisfies the query iff it
/// satisfies every conjunct.
struct ConjunctiveQuery {
  std::vector<RangeQuery> conjuncts;

  /// True iff the fractions (indexed by bin) satisfy every conjunct.
  template <typename FractionFn>
  bool Satisfies(FractionFn&& fraction_of_bin) const {
    for (const RangeQuery& conjunct : conjuncts) {
      if (!conjunct.Satisfies(fraction_of_bin(conjunct.bin))) return false;
    }
    return true;
  }

  /// Rendered in the `ParseQuery` grammar (conjuncts joined by `and`),
  /// so the output re-parses to an equivalent query.
  std::string ToString() const {
    std::string out;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (i) out += " and ";
      out += conjuncts[i].ToString();
    }
    return out;
  }
};

/// A top-k nearest-histogram query: "retrieve the k stored images whose
/// color histogram is closest (L1) to this one". Over an augmented
/// database the answer carries provable `[distance_lo, distance_hi]`
/// intervals — exact for binary images, rule-derived for edited ones —
/// and is the candidate set that provably contains the true k nearest.
struct SimilarityQuery {
  /// The query signature; its bin count must match the database
  /// quantizer.
  ColorHistogram histogram;
  uint32_t k = 10;

  /// Rendered in the `ParseQuery` grammar when the histogram has a
  /// single occupied bin (`nearest(12, 10)`); a multi-bin signature has
  /// no grammar form and renders descriptively.
  std::string ToString() const {
    BinIndex occupied = 0;
    int occupied_bins = 0;
    for (BinIndex bin = 0; bin < histogram.BinCount(); ++bin) {
      if (histogram.Count(bin) > 0) {
        occupied = bin;
        ++occupied_bins;
      }
    }
    if (occupied_bins == 1) {
      return "nearest(" + std::to_string(occupied) + ", " +
             std::to_string(k) + ")";
    }
    return "nearest(<" + std::to_string(histogram.BinCount()) +
           "-bin histogram>, " + std::to_string(k) + ")";
  }
};

/// The one check of a range or conjunctive payload against a database
/// of `bin_count` bins, shared by the query paths and `ExplainQuery`: at
/// least one conjunct, every bin in range, every window non-empty. A
/// range query is checked as a one-conjunct conjunction.
Status ValidateConjunctive(const ConjunctiveQuery& query, BinIndex bin_count);

/// The one check of a top-k payload: k > 0, one count per database bin,
/// and some pixel mass.
Status ValidateSimilarity(const SimilarityQuery& query, BinIndex bin_count);

/// One similarity-search answer. For binary images the L1 distance to the
/// query is exact (`lo == hi`); for edited images it is an interval
/// derived from the per-bin rule bounds without instantiation.
struct SimilarityMatch {
  ObjectId id = kInvalidObjectId;
  double distance_lo = 0.0;
  double distance_hi = 0.0;
  bool exact = false;

  /// Conservative sort key (optimistic distance).
  double Optimistic() const { return distance_lo; }
};

/// The three shapes a query payload can take. Doubles as the label of
/// per-kind metrics (`QueryKindName`).
enum class QueryKind { kRange, kConjunctive, kSimilarity };

inline const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kRange:
      return "range";
    case QueryKind::kConjunctive:
      return "conjunctive";
    case QueryKind::kSimilarity:
      return "similarity";
  }
  return "unknown";
}

/// Work counters reported by the query processors; the performance
/// evaluation reads these alongside wall-clock time to explain *why* BWM
/// is faster (rules skipped, scripts never touched).
struct QueryStats {
  /// Binary images whose stored histogram was consulted.
  int64_t binary_images_checked = 0;
  /// Edited images for which the BOUNDS algorithm ran.
  int64_t edited_images_bounded = 0;
  /// Edited images accepted from a Main-component cluster without touching
  /// their operations (BWM only).
  int64_t edited_images_skipped = 0;
  /// Individual operation rules applied across all BOUNDS runs.
  int64_t rules_applied = 0;
  /// Edited images instantiated (InstantiationMethod only).
  int64_t images_instantiated = 0;
  /// Images excluded from the answer because their stored blob (raster or
  /// edit script) failed checksum verification; the query still succeeds
  /// over the readable remainder.
  int64_t corrupt_images_skipped = 0;

  QueryStats& operator+=(const QueryStats& other) {
    binary_images_checked += other.binary_images_checked;
    edited_images_bounded += other.edited_images_bounded;
    edited_images_skipped += other.edited_images_skipped;
    rules_applied += other.rules_applied;
    images_instantiated += other.images_instantiated;
    corrupt_images_skipped += other.corrupt_images_skipped;
    return *this;
  }
};

/// A query answer: matching object ids (binary and edited, in processor
/// order) plus the work counters. Similarity queries additionally fill
/// `matches` with one distance interval per id, in the same order.
struct QueryResult {
  std::vector<ObjectId> ids;
  /// Empty for range / conjunctive queries; parallel to `ids` for
  /// similarity queries.
  std::vector<SimilarityMatch> matches;
  QueryStats stats;
};

}  // namespace mmdb

#endif  // MMDB_CORE_QUERY_H_
