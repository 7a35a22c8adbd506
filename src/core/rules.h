#ifndef MMDB_CORE_RULES_H_
#define MMDB_CORE_RULES_H_

#include <cstddef>
#include <new>
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

/// Allocates whole, aligned 64-byte cache lines. A fold writes its bin
/// counts on every operation, and each scan thread folds into its own
/// state. On ordinary heap blocks those counts shared lines across scan
/// threads, and a 4-thread kParallelRbm scan of 1200 helmets took 1.2-1.3
/// times as long on a 4-core host.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr size_t kLine = 64;

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) {}

  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(
        (n * sizeof(T) + kLine - 1) / kLine * kLine, std::align_val_t{kLine}));
  }
  void deallocate(T* p, size_t) {
    ::operator delete(p, std::align_val_t{kLine});
  }
  bool operator==(const CacheLineAllocator&) const = default;
};

/// The paper's rule state for the bins a fold was asked for: the
/// geometry (total pixel count, canvas dimensions, Defined Region) plus
/// the minimum and maximum number of pixels that may be in the i-th
/// requested bin (`hb_min[i]`, `hb_max[i]`). A bin may be requested more
/// than once.
struct RuleState : RuleGeometry {
  std::vector<int64_t, CacheLineAllocator<int64_t>> hb_min;
  std::vector<int64_t, CacheLineAllocator<int64_t>> hb_max;
};

/// Resolves a Merge target id to its rule state over the requested bins,
/// one entry per bin (the state's Defined Region is not read). For a
/// binary target this is the exact stored histogram value (min == max);
/// for an edited target the implementation may recurse through the rule
/// engine. The state belongs to the resolver and stays valid until its
/// next `Resolve` at the same nesting depth, so resolving a Merge reuses
/// storage instead of allocating.
class MergeTargetResolver {
 public:
  virtual Result<const RuleState*> Resolve(
      ObjectId target, const std::vector<BinIndex>& bins) const = 0;

 protected:
  ~MergeTargetResolver() = default;
};

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
  /// has `hb_counts[i]` pixels in the i-th requested bin out of `width` x
  /// `height`.
  static RuleState InitialState(const std::vector<int64_t>& hb_counts,
                                int32_t width, int32_t height);

  /// Applies the rule for `op` to `state`, whose i-th bounds are those of
  /// bin `bins[i]`: the operation's geometry is computed once, and the
  /// same per-bin count update runs for each bin. `resolver` (null for
  /// none) is consulted once, over the same bins, only for Merge with a
  /// non-null target.
  Status ApplyRule(const EditOp& op, const std::vector<BinIndex>& bins,
                   const MergeTargetResolver* resolver,
                   RuleState* state) const;

 private:
  ColorQuantizer quantizer_;
  RuleOptions options_;
};

}  // namespace mmdb

#endif  // MMDB_CORE_RULES_H_
