#include "core/rules.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <vector>

namespace mmdb {

namespace {

static_assert(std::has_single_bit(kScaleBracketSlots),
              "the scale-bracket memo indexes by masking");

/// The bin-independent half of one rule application (`Plan`): the
/// geometry after the operation plus the parameters of its per-bin count
/// update (`UpdateBin`). A fold plans each operation once and applies the
/// update to each requested bin.
struct RuleStep {
  enum class Update {
    kNone,         // Define; a no-op or paper-strict Combine.
    kWiden,        // `moved` pixels may change bin (Combine, Mutate stamp).
    kModify,       // `moved` = |DR| pixels may enter or leave a bin.
    kStrictScale,  // Table 1 resize: counts times `factor`.
    kScale,        // Sound resize: counts times [min_factor, max_factor].
    kExtract,      // Merge into NULL: the `moved` = |DR| pixels remain.
    kPaste,        // Merge into a target: `moved` overlap pixels pasted.
  };
  Update update = Update::kNone;
  int64_t moved = 0;
  /// kModify: the bins of the new and of the old color.
  BinIndex enter_bin = 0;
  BinIndex leave_bin = 0;
  double factor = 1.0;
  int64_t min_factor = 1;
  int64_t max_factor = 1;
  /// Pixel count before the operation.
  int64_t size_before = 0;
  RuleGeometry after;
};

/// The scale bracket along one axis: the fewest and the most destination
/// cells that any source cell maps to when an axis `extent` cells long is
/// resized by `scale`.
struct ScaleBracket {
  int64_t min_hits = 0;
  int64_t max_hits = 0;
};

/// Exact per-cell sampling counts of the editor's nearest-neighbor resize
/// along one axis scaled by `s` from `old_extent` to `new_extent` (both
/// positive). O(new_extent) integer arithmetic; no pixel access.
ScaleBracket AxisReplication(int32_t old_extent, int32_t new_extent,
                             double s) {
  std::vector<int64_t> hits(static_cast<size_t>(old_extent), 0);
  for (int32_t x = 0; x < new_extent; ++x) {
    ++hits[static_cast<size_t>(MutateOp::SourceCell(x, s, old_extent))];
  }
  ScaleBracket bracket{hits[0], hits[0]};
  for (int64_t h : hits) {
    bracket.min_hits = std::min(bracket.min_hits, h);
    bracket.max_hits = std::max(bracket.max_hits, h);
  }
  return bracket;
}

/// `AxisReplication` memoized per thread in a direct-mapped table keyed
/// by (extent, scale); {0, 0} when either extent is empty. Scans meet
/// few distinct pairs (164 among 4454 brackets in a 12k-helmet scan), so
/// nearly every call is a hit.
ScaleBracket NearestNeighborBracket(int32_t extent, double scale) {
  const int32_t new_extent = MutateOp::ScaledExtent(extent, scale);
  if (extent <= 0 || new_extent <= 0) return {};
  struct Slot {
    uint64_t scale_bits = 0;
    int32_t extent = 0;  // 0 marks an empty slot.
    ScaleBracket bracket;
  };
  thread_local std::array<Slot, kScaleBracketSlots> memo;
  const uint64_t bits = std::bit_cast<uint64_t>(scale);
  uint64_t hash = bits ^ (static_cast<uint64_t>(extent) * 0x9E3779B97F4A7C15u);
  hash ^= hash >> 29;
  hash *= 0xBF58476D1CE4E5B9u;
  hash ^= hash >> 32;
  Slot& slot = memo[hash & (kScaleBracketSlots - 1)];
  if (slot.extent != extent || slot.scale_bits != bits) {
    slot.scale_bits = bits;
    slot.extent = extent;
    slot.bracket = AxisReplication(extent, new_extent, scale);
  }
  return slot.bracket;
}

/// The Merge target of `op`, or null for every other operation and for a
/// NULL target.
const ObjectId* MergeTargetOf(const EditOp& op) {
  const MergeOp* merge = std::get_if<MergeOp>(&op);
  return merge != nullptr && merge->target ? &*merge->target : nullptr;
}

Status NoTargetResolver(ObjectId target) {
  return Status::InvalidArgument(
      "Merge rule: no target resolver for target " + std::to_string(target));
}

/// Table 1's count updates, one bin at a time: the only copy, called once
/// per requested bin. `target_min` and `target_max` bound the Merge
/// target's bin `hb` (read by kPaste only).
void UpdateBin(const RuleStep& step, BinIndex hb, int64_t target_min,
               int64_t target_max, int64_t* hb_min, int64_t* hb_max) {
  const int64_t size = step.after.size;
  switch (step.update) {
    case RuleStep::Update::kNone:
      return;
    case RuleStep::Update::kWiden:
      *hb_min = std::max<int64_t>(0, *hb_min - step.moved);
      *hb_max = std::min(size, *hb_max + step.moved);
      return;
    case RuleStep::Update::kModify:
      if (hb == step.enter_bin) {
        // Table 1 row 1: recolored pixels may enter bin HB.
        *hb_max = std::min(size, *hb_max + step.moved);
      } else if (hb == step.leave_bin) {
        // Table 1 row 2: pixels of the old color may leave bin HB.
        *hb_min = std::max<int64_t>(0, *hb_min - step.moved);
      }
      // Table 1 row 3: neither color maps to HB — no change.
      return;
    case RuleStep::Update::kStrictScale:
      // Multiply the bin bounds by M11 * M22 verbatim.
      *hb_min = static_cast<int64_t>(std::llround(*hb_min * step.factor));
      *hb_max = static_cast<int64_t>(std::llround(*hb_max * step.factor));
      break;
    case RuleStep::Update::kScale:
      *hb_min = *hb_min * step.min_factor;
      *hb_max = *hb_max * step.max_factor;
      break;
    case RuleStep::Update::kExtract:
      // Table 1 "Target is NULL": the DR is extracted as the new image.
      //   min' = max(0, |DR| - (E - HBmin)),  max' = min(HBmax, |DR|).
      *hb_min = std::max<int64_t>(0, step.moved - (step.size_before - *hb_min));
      *hb_max = std::min(*hb_max, step.moved);
      return;
    case RuleStep::Update::kPaste: {
      // DR pixels that land on the target contribute between
      // max(0, HBmin - E + overlap) and min(HBmax, overlap); surviving
      // target pixels contribute between max(0, T_HBmin - overlap) and
      // min(T_HBmax, T - overlap). (This is the paper's "Target is Not
      // NULL" row with pasting clipped to the target canvas; see
      // DESIGN.md.)
      const int64_t overlap = step.moved;
      const int64_t paste_min =
          std::max<int64_t>(0, *hb_min - step.size_before + overlap);
      const int64_t paste_max = std::min(*hb_max, overlap);
      const int64_t keep_min = std::max<int64_t>(0, target_min - overlap);
      const int64_t keep_max = std::min(target_max, size - overlap);
      *hb_min = paste_min + keep_min;
      *hb_max = paste_max + keep_max;
      break;
    }
  }
  // Resize and paste: clamp to the new canvas.
  *hb_min = std::clamp<int64_t>(*hb_min, 0, size);
  *hb_max = std::clamp<int64_t>(*hb_max, *hb_min, size);
}

/// The bin-independent half of the rule for `op` on a state with
/// geometry `before`: everything but the per-bin counts. `target` is the
/// Merge target's canvas (size, width, height) for a Merge with a
/// non-null target and is not read otherwise.
RuleStep Plan(const EditOp& op, const RuleGeometry& before,
              const RuleGeometry& target, const ColorQuantizer& quantizer,
              bool paper_strict) {
  RuleStep step;
  step.size_before = before.size;
  step.after = before;
  switch (GetOpType(op)) {
    case EditOpType::kDefine:
      step.after.defined_region =
          std::get<DefineOp>(op).region.Intersect(before.CanvasBounds());
      return step;
    case EditOpType::kCombine:
      if (std::get<CombineOp>(op).WeightSum() == 0.0) {
        return step;  // Editor treats this as a no-op.
      }
      if (paper_strict) return step;  // Table 1: "No change" for Combine.
      // Sound mode: a blur can move every DR pixel across a bin boundary.
      step.update = RuleStep::Update::kWiden;
      step.moved = before.DrSize();
      return step;
    case EditOpType::kModify: {
      const ModifyOp& modify = std::get<ModifyOp>(op);
      step.update = RuleStep::Update::kModify;
      step.moved = before.DrSize();
      step.enter_bin = quantizer.BinOf(modify.new_color);
      step.leave_bin = quantizer.BinOf(modify.old_color);
      return step;
    }
    case EditOpType::kMutate:
      break;
    case EditOpType::kMerge: {
      const MergeOp& merge = std::get<MergeOp>(op);
      const int64_t dr = before.DrSize();
      if (merge.IsNullTarget()) {
        step.update = RuleStep::Update::kExtract;
        step.moved = dr;
        step.after = RuleGeometry::Full(before.defined_region.Width(),
                                        before.defined_region.Height());
        return step;
      }
      // Paste region in target coordinates, clipped to the target
      // canvas — mirrors Editor::ApplyMerge.
      step.update = RuleStep::Update::kPaste;
      step.moved = Rect(merge.x, merge.y,
                        merge.x + before.defined_region.Width(),
                        merge.y + before.defined_region.Height())
                       .Intersect(Rect::Full(target.width, target.height))
                       .Area();
      step.after.size = target.size;
      step.after.width = target.width;
      step.after.height = target.height;
      step.after.defined_region = step.after.CanvasBounds();
      return step;
    }
  }

  const MutateOp& mutate = std::get<MutateOp>(op);
  if (before.defined_region == before.CanvasBounds() &&
      mutate.IsPureScale()) {
    // Table 1 "DR contains image": the canvas is resized. Dimensions (and
    // hence the total pixel count) are exact in both modes.
    const double sx = mutate.m[0];
    const double sy = mutate.m[4];
    step.after = RuleGeometry::Full(MutateOp::ScaledExtent(before.width, sx),
                                    MutateOp::ScaledExtent(before.height, sy));
    if (paper_strict) {
      step.update = RuleStep::Update::kStrictScale;
      step.factor = sx * sy;
    } else {
      // Sound mode: bracket the nearest-neighbor replication factor per
      // source pixel exactly (integer scales collapse to k^2 exactly).
      const ScaleBracket fx = NearestNeighborBracket(before.width, sx);
      const ScaleBracket fy = NearestNeighborBracket(before.height, sy);
      step.update = RuleStep::Update::kScale;
      step.min_factor = fx.min_hits * fy.min_hits;
      step.max_factor = fx.max_hits * fy.max_hits;
    }
    return step;
  }

  // Stamp semantics: only pixels inside the clipped destination box can
  // change, and at most ~|DR| of them have preimages inside the DR.
  // A stamp through a degenerate projection may write anywhere.
  const Rect dest =
      mutate.StampBox(before.defined_region, before.CanvasBounds())
          .value_or(before.CanvasBounds());
  step.update = RuleStep::Update::kWiden;
  if (mutate.IsRigidBody()) {
    // Table 1 "Rigid Body": adjust by |DR| — plus, in sound mode, a
    // rasterization slack bounded by the region perimeter.
    const int64_t slack =
        paper_strict ? 0
                     : 2 * (2 * (before.defined_region.Width() +
                                 before.defined_region.Height())) +
                           16;
    step.moved = std::min(dest.Area(), before.DrSize() + slack);
  } else {
    // General affine stamp (not covered by Table 1): anything in the
    // destination box may change.
    step.moved = dest.Area();
  }
  return step;
}

}  // namespace

RuleEngine::RuleEngine(ColorQuantizer quantizer, RuleOptions options)
    : quantizer_(quantizer), options_(options) {}

bool RuleEngine::IsBoundWidening(const EditOp& op) {
  switch (GetOpType(op)) {
    case EditOpType::kDefine:
    case EditOpType::kCombine:
    case EditOpType::kModify:
    case EditOpType::kMutate:
      return true;
    case EditOpType::kMerge:
      return std::get<MergeOp>(op).IsNullTarget();
  }
  return false;
}

bool RuleEngine::IsAllBoundWidening(const EditScript& script) {
  for (const EditOp& op : script.ops) {
    if (!IsBoundWidening(op)) return false;
  }
  return true;
}

RuleState RuleEngine::InitialState(const std::vector<int64_t>& hb_counts,
                                   int32_t width, int32_t height) {
  RuleState state;
  static_cast<RuleGeometry&>(state) = RuleGeometry::Full(width, height);
  state.hb_min.assign(hb_counts.begin(), hb_counts.end());
  state.hb_max = state.hb_min;
  return state;
}

Status RuleEngine::ApplyRule(const EditOp& op,
                             const std::vector<BinIndex>& bins,
                             const MergeTargetResolver* resolver,
                             RuleState* state) const {
  const RuleState* target = nullptr;
  if (const ObjectId* target_id = MergeTargetOf(op)) {
    if (resolver == nullptr) return NoTargetResolver(*target_id);
    MMDB_ASSIGN_OR_RETURN(target, resolver->Resolve(*target_id, bins));
  }
  const RuleGeometry no_target;
  const RuleStep step =
      Plan(op, *state, target != nullptr ? *target : no_target, quantizer_,
           options_.paper_strict);
  if (step.update == RuleStep::Update::kPaste) {
    for (size_t i = 0; i < bins.size(); ++i) {
      UpdateBin(step, bins[i], target->hb_min[i], target->hb_max[i],
                &state->hb_min[i], &state->hb_max[i]);
    }
  } else if (step.update != RuleStep::Update::kNone) {
    for (size_t i = 0; i < bins.size(); ++i) {
      UpdateBin(step, bins[i], 0, 0, &state->hb_min[i], &state->hb_max[i]);
    }
  }
  static_cast<RuleGeometry&>(*state) = step.after;
  return Status::OK();
}

}  // namespace mmdb
