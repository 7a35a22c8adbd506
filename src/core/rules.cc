#include "core/rules.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace mmdb {

namespace {

/// Exact per-cell sampling counts of the editor's nearest-neighbor resize
/// along one axis: returns, for the axis scaled by `s` from `old_extent`
/// to `new_extent`, the minimum and maximum number of destination samples
/// that hit any single source cell. O(new_extent) integer arithmetic; no
/// pixel access.
void AxisReplication(int32_t old_extent, int32_t new_extent, double s,
                     int64_t* min_hits, int64_t* max_hits) {
  if (old_extent <= 0 || new_extent <= 0) {
    *min_hits = 0;
    *max_hits = 0;
    return;
  }
  std::vector<int64_t> hits(static_cast<size_t>(old_extent), 0);
  for (int32_t x = 0; x < new_extent; ++x) {
    ++hits[static_cast<size_t>(MutateOp::SourceCell(x, s, old_extent))];
  }
  *min_hits = hits[0];
  *max_hits = hits[0];
  for (int64_t h : hits) {
    *min_hits = std::min(*min_hits, h);
    *max_hits = std::max(*max_hits, h);
  }
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

RuleState RuleEngine::InitialState(int64_t hb_count, int32_t width,
                                   int32_t height) {
  RuleState state;
  state.hb_min = hb_count;
  state.hb_max = hb_count;
  state.width = width;
  state.height = height;
  state.size = static_cast<int64_t>(width) * height;
  state.defined_region = Rect::Full(width, height);
  return state;
}

Status RuleEngine::ApplyRule(const EditOp& op, BinIndex hb,
                             const TargetBoundsResolver& resolver,
                             RuleState* state) const {
  switch (GetOpType(op)) {
    case EditOpType::kDefine:
      ApplyDefine(std::get<DefineOp>(op), state);
      return Status::OK();
    case EditOpType::kCombine:
      ApplyCombine(std::get<CombineOp>(op), state);
      return Status::OK();
    case EditOpType::kModify:
      ApplyModify(std::get<ModifyOp>(op), hb, state);
      return Status::OK();
    case EditOpType::kMutate:
      ApplyMutate(std::get<MutateOp>(op), state);
      return Status::OK();
    case EditOpType::kMerge:
      return ApplyMerge(std::get<MergeOp>(op), hb, resolver, state);
  }
  return Status::Internal("unknown edit op type");
}

void RuleEngine::WidenBy(int64_t changed, RuleState* state) {
  state->hb_min = std::max<int64_t>(0, state->hb_min - changed);
  state->hb_max = std::min(state->size, state->hb_max + changed);
}

void RuleEngine::ApplyDefine(const DefineOp& op, RuleState* state) const {
  state->defined_region = op.region.Intersect(state->CanvasBounds());
}

void RuleEngine::ApplyCombine(const CombineOp& op, RuleState* state) const {
  if (op.WeightSum() == 0.0) return;  // Editor treats this as a no-op.
  if (options_.paper_strict) return;  // Table 1: "No change" for Combine.
  // Sound mode: a blur can move every DR pixel across a bin boundary.
  WidenBy(state->DrSize(), state);
}

void RuleEngine::ApplyModify(const ModifyOp& op, BinIndex hb,
                             RuleState* state) const {
  const int64_t dr = state->DrSize();
  if (quantizer_.BinOf(op.new_color) == hb) {
    // Table 1 row 1: recolored pixels may enter bin HB.
    state->hb_max = std::min(state->size, state->hb_max + dr);
  } else if (quantizer_.BinOf(op.old_color) == hb) {
    // Table 1 row 2: pixels of the old color may leave bin HB.
    state->hb_min = std::max<int64_t>(0, state->hb_min - dr);
  }
  // Table 1 row 3: neither color maps to HB — no change.
}

void RuleEngine::ApplyMutate(const MutateOp& op, RuleState* state) const {
  const bool full_canvas = state->defined_region == state->CanvasBounds();

  if (full_canvas && op.IsPureScale()) {
    // Table 1 "DR contains image": the canvas is resized. Dimensions (and
    // hence the total pixel count) are exact in both modes.
    const double sx = op.m[0];
    const double sy = op.m[4];
    const int32_t new_w = MutateOp::ScaledExtent(state->width, sx);
    const int32_t new_h = MutateOp::ScaledExtent(state->height, sy);
    if (options_.paper_strict) {
      // Multiply the bin bounds by M11 * M22 verbatim.
      const double factor = sx * sy;
      state->hb_min = static_cast<int64_t>(std::llround(state->hb_min * factor));
      state->hb_max = static_cast<int64_t>(std::llround(state->hb_max * factor));
    } else {
      // Sound mode: bracket the nearest-neighbor replication factor per
      // source pixel exactly (integer scales collapse to k^2 exactly).
      int64_t fx_min, fx_max, fy_min, fy_max;
      AxisReplication(state->width, new_w, sx, &fx_min, &fx_max);
      AxisReplication(state->height, new_h, sy, &fy_min, &fy_max);
      state->hb_min = state->hb_min * fx_min * fy_min;
      state->hb_max = state->hb_max * fx_max * fy_max;
    }
    state->width = new_w;
    state->height = new_h;
    state->size = static_cast<int64_t>(new_w) * new_h;
    state->hb_min = std::clamp<int64_t>(state->hb_min, 0, state->size);
    state->hb_max = std::clamp<int64_t>(state->hb_max, state->hb_min,
                                        state->size);
    state->defined_region = state->CanvasBounds();
    return;
  }

  // Stamp semantics: only pixels inside the clipped destination box can
  // change, and at most ~|DR| of them have preimages inside the DR.
  // A stamp through a degenerate projection may write anywhere.
  const Rect dest = op.StampBox(state->defined_region, state->CanvasBounds())
                        .value_or(state->CanvasBounds());
  int64_t changed;
  if (op.IsRigidBody()) {
    // Table 1 "Rigid Body": adjust by |DR| — plus, in sound mode, a
    // rasterization slack bounded by the region perimeter.
    const int64_t slack =
        options_.paper_strict
            ? 0
            : 2 * (2 * (state->defined_region.Width() +
                        state->defined_region.Height())) +
                  16;
    changed = std::min(dest.Area(), state->DrSize() + slack);
  } else {
    // General affine stamp (not covered by Table 1): anything in the
    // destination box may change.
    changed = dest.Area();
  }
  WidenBy(changed, state);
}

Status RuleEngine::ApplyMerge(const MergeOp& op, BinIndex hb,
                              const TargetBoundsResolver& resolver,
                              RuleState* state) const {
  const int64_t dr = state->DrSize();
  if (op.IsNullTarget()) {
    // Table 1 "Target is NULL": the DR is extracted as the new image.
    //   min' = max(0, |DR| - (E - HBmin)),  max' = min(HBmax, |DR|).
    state->hb_min = std::max<int64_t>(0, dr - (state->size - state->hb_min));
    state->hb_max = std::min(state->hb_max, dr);
    state->width = state->defined_region.Width();
    state->height = state->defined_region.Height();
    state->size = dr;
    state->defined_region = state->CanvasBounds();
    return Status::OK();
  }

  if (!resolver) {
    return Status::InvalidArgument(
        "Merge rule: no target resolver for target " +
        std::to_string(*op.target));
  }
  MMDB_ASSIGN_OR_RETURN(TargetBounds target, resolver(*op.target, hb));
  // Paste region in target coordinates, clipped to the target canvas —
  // mirrors Editor::ApplyMerge.
  const Rect paste = Rect(op.x, op.y, op.x + state->defined_region.Width(),
                          op.y + state->defined_region.Height())
                         .Intersect(Rect::Full(target.width, target.height));
  const int64_t overlap = paste.Area();
  // DR pixels that land on the target contribute between
  // max(0, HBmin - E + overlap) and min(HBmax, overlap); surviving target
  // pixels contribute between max(0, T_HBmin - overlap) and
  // min(T_HBmax, T - overlap). (This is the paper's "Target is Not NULL"
  // row with pasting clipped to the target canvas; see DESIGN.md.)
  const int64_t paste_min =
      std::max<int64_t>(0, state->hb_min - state->size + overlap);
  const int64_t paste_max = std::min(state->hb_max, overlap);
  const int64_t keep_min = std::max<int64_t>(0, target.hb_min - overlap);
  const int64_t keep_max = std::min(target.hb_max, target.size - overlap);
  state->hb_min = paste_min + keep_min;
  state->hb_max = paste_max + keep_max;
  state->width = target.width;
  state->height = target.height;
  state->size = target.size;
  state->hb_min = std::clamp<int64_t>(state->hb_min, 0, state->size);
  state->hb_max =
      std::clamp<int64_t>(state->hb_max, state->hb_min, state->size);
  state->defined_region = state->CanvasBounds();
  return Status::OK();
}

}  // namespace mmdb
