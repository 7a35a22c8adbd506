#include "image/editor.h"

#include <algorithm>
#include <cmath>

namespace mmdb {

Editor::Editor(ImageResolver resolver) : resolver_(std::move(resolver)) {}

Editor::State Editor::InitialState(Image base) {
  State state;
  state.defined_region = base.Bounds();
  state.canvas = std::move(base);
  return state;
}

Result<Image> Editor::Instantiate(const Image& base,
                                  const EditScript& script) const {
  State state = InitialState(base);
  for (const EditOp& op : script.ops) {
    MMDB_RETURN_IF_ERROR(ApplyOp(op, &state));
  }
  return std::move(state.canvas);
}

Status Editor::ApplyOp(const EditOp& op, State* state) const {
  return std::visit(
      [this, state](const auto& concrete) -> Status {
        using T = std::decay_t<decltype(concrete)>;
        if constexpr (std::is_same_v<T, DefineOp>) {
          return ApplyDefine(concrete, state);
        } else if constexpr (std::is_same_v<T, CombineOp>) {
          return ApplyCombine(concrete, state);
        } else if constexpr (std::is_same_v<T, ModifyOp>) {
          return ApplyModify(concrete, state);
        } else if constexpr (std::is_same_v<T, MutateOp>) {
          return ApplyMutate(concrete, state);
        } else {
          return ApplyMerge(concrete, state);
        }
      },
      op);
}

Status Editor::ApplyDefine(const DefineOp& op, State* state) const {
  state->defined_region = op.region.Intersect(state->canvas.Bounds());
  return Status::OK();
}

Status Editor::ApplyCombine(const CombineOp& op, State* state) const {
  const double weight_sum = op.WeightSum();
  if (weight_sum == 0.0) return Status::OK();  // Defined as a no-op.
  const Image snapshot = state->canvas;
  const Rect dr = state->defined_region;
  Image& canvas = state->canvas;
  for (int32_t y = dr.y0; y < dr.y1; ++y) {
    for (int32_t x = dr.x0; x < dr.x1; ++x) {
      double r = 0, g = 0, b = 0;
      int k = 0;
      for (int32_t dy = -1; dy <= 1; ++dy) {
        for (int32_t dx = -1; dx <= 1; ++dx, ++k) {
          // Neighbors outside the canvas clamp to the nearest edge pixel.
          const int32_t nx = std::clamp(x + dx, 0, snapshot.width() - 1);
          const int32_t ny = std::clamp(y + dy, 0, snapshot.height() - 1);
          const Rgb& p = snapshot.At(nx, ny);
          const double w = op.weights[static_cast<size_t>(k)];
          r += w * p.r;
          g += w * p.g;
          b += w * p.b;
        }
      }
      auto quantize = [weight_sum](double v) {
        return static_cast<uint8_t>(
            std::clamp(std::lround(v / weight_sum), 0L, 255L));
      };
      canvas.At(x, y) = Rgb(quantize(r), quantize(g), quantize(b));
    }
  }
  return Status::OK();
}

Status Editor::ApplyModify(const ModifyOp& op, State* state) const {
  const Rect dr = state->defined_region;
  Image& canvas = state->canvas;
  for (int32_t y = dr.y0; y < dr.y1; ++y) {
    for (int32_t x = dr.x0; x < dr.x1; ++x) {
      if (canvas.At(x, y) == op.old_color) canvas.At(x, y) = op.new_color;
    }
  }
  return Status::OK();
}

Status Editor::ApplyMutate(const MutateOp& op, State* state) const {
  const Rect dr = state->defined_region;
  Image& canvas = state->canvas;
  const bool full_canvas = dr == canvas.Bounds();

  if (full_canvas && op.IsPureScale()) {
    // Whole-image resize with nearest-neighbor resampling; this is the
    // Table 1 "DR contains image" scaling case.
    const double sx = op.m[0];
    const double sy = op.m[4];
    const int32_t new_w = MutateOp::ScaledExtent(canvas.width(), sx);
    const int32_t new_h = MutateOp::ScaledExtent(canvas.height(), sy);
    Image resized(new_w, new_h);
    for (int32_t y = 0; y < new_h; ++y) {
      const int32_t src_y = MutateOp::SourceCell(y, sy, canvas.height());
      for (int32_t x = 0; x < new_w; ++x) {
        resized.At(x, y) =
            canvas.At(MutateOp::SourceCell(x, sx, canvas.width()), src_y);
      }
    }
    state->canvas = std::move(resized);
    state->defined_region = state->canvas.Bounds();
    return Status::OK();
  }

  // General case: stamp the transformed copy of the DR over the canvas.
  // Destination pixels whose preimage lands inside the DR are overwritten;
  // everything else (including vacated DR pixels) keeps its value. Canvas
  // size is unchanged.
  const std::optional<MutateOp> inverse = op.Inverse();
  if (!inverse.has_value()) {
    return Status::InvalidArgument("Mutate: singular matrix " +
                                   op.ToString());
  }
  if (dr.Empty()) return Status::OK();

  const std::optional<Rect> dest = op.StampBox(dr, canvas.Bounds());
  if (!dest.has_value()) {
    return Status::InvalidArgument("Mutate: degenerate projection");
  }
  const Image snapshot = canvas;
  for (int32_t y = dest->y0; y < dest->y1; ++y) {
    for (int32_t x = dest->x0; x < dest->x1; ++x) {
      double sx_f, sy_f;
      if (!inverse->Apply(x + 0.5, y + 0.5, &sx_f, &sy_f)) continue;
      const int32_t src_x = static_cast<int32_t>(std::floor(sx_f));
      const int32_t src_y = static_cast<int32_t>(std::floor(sy_f));
      if (dr.Contains(src_x, src_y)) {
        canvas.At(x, y) = snapshot.At(src_x, src_y);
      }
    }
  }
  return Status::OK();
}

Status Editor::ApplyMerge(const MergeOp& op, State* state) const {
  const Rect dr = state->defined_region;
  if (op.IsNullTarget()) {
    // Extract the DR as the new image.
    if (dr.Empty()) {
      return Status::InvalidArgument("Merge(NULL): empty Defined Region");
    }
    Image extracted(dr.Width(), dr.Height());
    for (int32_t y = dr.y0; y < dr.y1; ++y) {
      for (int32_t x = dr.x0; x < dr.x1; ++x) {
        extracted.At(x - dr.x0, y - dr.y0) = state->canvas.At(x, y);
      }
    }
    state->canvas = std::move(extracted);
    state->defined_region = state->canvas.Bounds();
    return Status::OK();
  }

  if (!resolver_) {
    return Status::InvalidArgument(
        "Merge: no image resolver configured for target " +
        std::to_string(*op.target));
  }
  MMDB_ASSIGN_OR_RETURN(Image target, resolver_(*op.target));
  // Paste the DR into the target with its top-left at (op.x, op.y),
  // clipped to the target canvas.
  for (int32_t y = dr.y0; y < dr.y1; ++y) {
    for (int32_t x = dr.x0; x < dr.x1; ++x) {
      const int32_t tx = op.x + (x - dr.x0);
      const int32_t ty = op.y + (y - dr.y0);
      if (target.Bounds().Contains(tx, ty)) {
        target.At(tx, ty) = state->canvas.At(x, y);
      }
    }
  }
  state->canvas = std::move(target);
  state->defined_region = state->canvas.Bounds();
  return Status::OK();
}

}  // namespace mmdb
