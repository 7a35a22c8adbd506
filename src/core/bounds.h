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

/// The BOUNDS algorithm: folds the Table 1 rules over every operation of
/// `script` for each bin in `bins`, leaving in `state` the bounds on the
/// i-th requested bin (in pixels) with the exact size, dimensions and
/// Defined Region. A bin may be requested more than once. Range and
/// conjunctive queries fold their conjuncts' bins; top-k folds every bin.
/// Starts from the referenced base image's exact count per bin
/// (`base_counts[b]` for bin b) and dimensions, both read from the
/// catalog, never from pixels. `state`'s buffers are reused.
///
/// `resolver` (null for none) is consulted once per Merge with a non-null
/// target, over the same bins. A non-null `check` is consulted before
/// every operation, so a long edit script honors deadlines and
/// cancellation mid-walk (the interrupt status propagates out like any
/// rule error).
Status FoldRules(const RuleEngine& engine, const EditScript& script,
                 const std::vector<BinIndex>& bins,
                 const std::vector<int64_t>& base_counts, int32_t base_width,
                 int32_t base_height, const MergeTargetResolver* resolver,
                 RuleState* state, CancelCheck* check = nullptr);

/// Fraction bounds of the i-th requested bin of a final rule state
/// ([0, 0] for an empty image).
FractionBounds ToFractionBounds(const RuleState& state, size_t i);

}  // namespace mmdb

#endif  // MMDB_CORE_BOUNDS_H_
