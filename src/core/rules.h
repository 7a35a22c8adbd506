#ifndef MMDB_CORE_RULES_H_
#define MMDB_CORE_RULES_H_

#include <functional>
#include <vector>

#include "core/quantizer.h"
#include "editops/edit_ops.h"
#include "util/result.h"

namespace mmdb {

/// Fidelity options for the rule engine.
///
/// The paper's Table 1 states its Combine rule as "no change" and its
/// Mutate rigid-body rule as exactly +/- |DR|. Both are idealizations: a
/// blur can move pixels across histogram-bin boundaries, and nearest-
/// neighbor rasterization of a rotated region can overwrite slightly more
/// than |DR| pixels. The default (sound) mode widens those rules just
/// enough that the computed bounds *provably* contain the instantiated
/// value (the property suite checks this against the pixel engine);
/// `paper_strict = true` reproduces Table 1 verbatim instead. The
/// bound-widening classification — and therefore all BWM behaviour — is
/// identical in both modes.
struct RuleOptions {
  bool paper_strict = false;
};

/// Bounds on one histogram bin of a merge target: `[hb_min, hb_max]`
/// pixels out of `size`, with exact canvas dimensions.
struct TargetBounds {
  int64_t hb_min = 0;
  int64_t hb_max = 0;
  int64_t size = 0;
  int32_t width = 0;
  int32_t height = 0;
};

/// Resolves a Merge target id to its bin bounds for the queried bin. For a
/// binary target this is the exact stored histogram value (min == max);
/// for an edited target the caller may recurse through the rule engine.
using TargetBoundsResolver =
    std::function<Result<TargetBounds>(ObjectId, BinIndex)>;

/// The bin-independent part of a rule state: the exact canvas and the
/// current Defined Region. Both are derivable from the script without
/// touching pixels, and they make |DR| and resize arithmetic exact.
struct RuleGeometry {
  int64_t size = 0;
  int32_t width = 0;
  int32_t height = 0;
  Rect defined_region;

  /// A `width` x `height` canvas whose DR is the whole canvas.
  static RuleGeometry Full(int32_t width, int32_t height) {
    RuleGeometry geometry;
    geometry.size = static_cast<int64_t>(width) * height;
    geometry.width = width;
    geometry.height = height;
    geometry.defined_region = Rect::Full(width, height);
    return geometry;
  }

  Rect CanvasBounds() const { return Rect::Full(width, height); }
  /// Pixels in the current DR (the paper's |DR|).
  int64_t DrSize() const { return defined_region.Area(); }
};

/// The paper's rule state: minimum and maximum number of pixels that may
/// be in bin HB (`hb_min`, `hb_max`), plus the geometry (total pixel
/// count, canvas dimensions, Defined Region).
struct RuleState : RuleGeometry {
  int64_t hb_min = 0;
  int64_t hb_max = 0;
};

/// The rule state of every bin at once: one geometry, and the bounds on
/// bin b in `hb_min[b]`, `hb_max[b]`.
struct AllBinRuleState : RuleGeometry {
  std::vector<int64_t> hb_min;
  std::vector<int64_t> hb_max;
};

/// Resolves a Merge target id to its all-bin state (the all-bin
/// counterpart of `TargetBoundsResolver`; the state's Defined Region is
/// not read).
using AllBinTargetResolver =
    std::function<Result<AllBinRuleState>(ObjectId)>;

/// Capacity of the per-thread memo of the sound Mutate rule's scale
/// bracket (see docs/RULES.md): the fewest and the most destination
/// pixels any source pixel maps to under a whole-canvas nearest-neighbor
/// resize, keyed by (extent, scale). A miss runs the O(new extent) loop.
inline constexpr size_t kScaleBracketSlots = 1024;

/// Applies the paper's Table 1 rules, one editing operation at a time,
/// without instantiating any pixels.
class RuleEngine {
 public:
  explicit RuleEngine(ColorQuantizer quantizer, RuleOptions options = {});

  const ColorQuantizer& quantizer() const { return quantizer_; }
  const RuleOptions& options() const { return options_; }

  /// True iff the rule for `op` is bound-widening (Section 4): it can only
  /// widen the percentage range [hb_min/size, hb_max/size]. Per the paper:
  /// Define/Combine/Modify/Mutate always; Merge iff its target is NULL.
  static bool IsBoundWidening(const EditOp& op);

  /// True iff every operation in `script` has a bound-widening rule — the
  /// condition for membership in BWM's Main component.
  static bool IsAllBoundWidening(const EditScript& script);

  /// Initial rule state for an edited image whose referenced base image
  /// has `hb_count` pixels in the queried bin out of `width` x `height`.
  static RuleState InitialState(int64_t hb_count, int32_t width,
                                int32_t height);

  /// Applies the rule for `op` to `state` for the queried bin `hb`.
  /// `resolver` is consulted only for Merge with a non-null target.
  Status ApplyRule(const EditOp& op, BinIndex hb,
                   const TargetBoundsResolver& resolver,
                   RuleState* state) const;

  /// Initial all-bin state: bin b starts at `counts[b]` pixels out of
  /// `width` x `height`.
  static AllBinRuleState InitialAllBinState(
      const std::vector<int64_t>& counts, int32_t width, int32_t height);

  /// `ApplyRule` for every bin at once: the operation's geometry is
  /// computed once, and the same per-bin count update runs for each bin.
  /// `resolver` is consulted once, only for Merge with a non-null target.
  Status ApplyRuleToAllBins(const EditOp& op,
                            const AllBinTargetResolver& resolver,
                            AllBinRuleState* state) const;

 private:
  ColorQuantizer quantizer_;
  RuleOptions options_;
};

}  // namespace mmdb

#endif  // MMDB_CORE_RULES_H_
