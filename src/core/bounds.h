#ifndef MMDB_CORE_BOUNDS_H_
#define MMDB_CORE_BOUNDS_H_

#include <vector>

#include "core/cancel.h"
#include "core/rules.h"
#include "editops/edit_ops.h"
#include "util/result.h"

namespace mmdb {

/// Bounds on the fraction of pixels of an image that map to a histogram
/// bin: the paper's range [BOUNDmin/imagesize, BOUNDmax/imagesize].
struct FractionBounds {
  double min_fraction = 0.0;
  double max_fraction = 0.0;

  /// True iff this range intersects [lo, hi] — i.e. the image *may*
  /// satisfy the query; disjoint ranges prove it cannot (no false
  /// negatives, paper Section 3.2).
  bool Overlaps(double lo, double hi) const {
    return max_fraction >= lo && min_fraction <= hi;
  }
};

/// The BOUNDS algorithm: computes fraction bounds for histogram bin `hb`
/// of the edited image described by `script`, by folding the Table 1
/// rules over every operation. Requires the referenced base image's exact
/// bin count and dimensions (both read from the catalog, never from
/// pixels).
///
/// `resolver` is consulted only for Merge operations with non-null
/// targets.
///
/// A non-null `check` is consulted between operations, so a long edit
/// script honors deadlines and cancellation mid-walk (the interrupt
/// status propagates out like any rule error).
Result<FractionBounds> ComputeBounds(const RuleEngine& engine,
                                     const EditScript& script, BinIndex hb,
                                     int64_t base_hb_count,
                                     int32_t base_width, int32_t base_height,
                                     const TargetBoundsResolver& resolver,
                                     CancelCheck* check = nullptr);

/// As `ComputeBounds`, but returns the final raw rule state (pixel-count
/// bounds, exact size and dimensions) for callers that need more than the
/// fractions (e.g. the recursive merge-target resolver).
Result<RuleState> ComputeRuleState(const RuleEngine& engine,
                                   const EditScript& script, BinIndex hb,
                                   int64_t base_hb_count, int32_t base_width,
                                   int32_t base_height,
                                   const TargetBoundsResolver& resolver,
                                   CancelCheck* check = nullptr);

/// The all-bin fold: the final rule state of every histogram bin from
/// one walk over `script` (`RuleEngine::ApplyRuleToAllBins` per
/// operation). Bin b of the result equals `ComputeRuleState` for bin b,
/// and the two folds fail with the same status. `base_counts` holds the
/// referenced base image's exact count per bin.
///
/// `resolver` is consulted once per Merge with a non-null target. A
/// non-null `check` is consulted before every operation.
Result<AllBinRuleState> ComputeAllBinRuleState(
    const RuleEngine& engine, const EditScript& script,
    const std::vector<int64_t>& base_counts, int32_t base_width,
    int32_t base_height, const AllBinTargetResolver& resolver,
    CancelCheck* check = nullptr);

/// Converts a final rule state to fraction bounds ([0, 0] for an empty
/// image).
FractionBounds ToFractionBounds(const RuleState& state);

/// Fraction bounds of bin `bin` of an all-bin state; the same arithmetic
/// as the one-bin overload.
FractionBounds ToFractionBounds(const AllBinRuleState& state, BinIndex bin);

}  // namespace mmdb

#endif  // MMDB_CORE_BOUNDS_H_
