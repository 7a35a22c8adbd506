#ifndef MMDB_CORE_BOUNDS_H_
#define MMDB_CORE_BOUNDS_H_

#include <algorithm>
#include <cstdint>
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

/// Fraction bounds of a bin holding between `hb_min` and `hb_max` of
/// `size` pixels ([0, 0] for an empty image).
inline FractionBounds ToFractionBounds(int64_t hb_min, int64_t hb_max,
                                       int64_t size) {
  FractionBounds bounds;
  if (size > 0) {
    bounds.min_fraction = static_cast<double>(hb_min) / size;
    bounds.max_fraction = static_cast<double>(hb_max) / size;
  }
  return bounds;
}

/// Fraction bounds of the i-th requested bin of a final rule state.
inline FractionBounds ToFractionBounds(const RuleState& state, size_t i) {
  return ToFractionBounds(state.hb_min[i], state.hb_max[i], state.size);
}

/// An edited image's bounds on every bin, as a fold over bins
/// 0 .. bins-1 leaves them: bin b holds between `hb_min[b]` and
/// `hb_max[b]` of the final `size` pixels, after `ops` operations. The
/// counts are int32 (a count is at most the final pixel count, and an
/// image whose count would not fit is refused). A view: the arrays belong
/// to whoever made the row.
struct BoundsRow {
  const int32_t* hb_min = nullptr;
  const int32_t* hb_max = nullptr;
  size_t bins = 0;
  int64_t size = 0;
  int64_t ops = 0;

  FractionBounds Fraction(size_t bin) const {
    return ToFractionBounds(hb_min[bin], hb_max[bin], size);
  }

  /// Equal contents.
  friend bool operator==(const BoundsRow& a, const BoundsRow& b) {
    return a.bins == b.bins && a.size == b.size && a.ops == b.ops &&
           std::equal(a.hb_min, a.hb_min + a.bins, b.hb_min) &&
           std::equal(a.hb_max, a.hb_max + a.bins, b.hb_max);
  }
};

}  // namespace mmdb

#endif  // MMDB_CORE_BOUNDS_H_
