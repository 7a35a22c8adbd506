#ifndef MMDB_EDITOPS_EDIT_OPS_H_
#define MMDB_EDITOPS_EDIT_OPS_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "image/color.h"
#include "image/geometry.h"

namespace mmdb {

/// Identifier of an image object stored in the MMDBMS (binary or edited).
using ObjectId = uint64_t;

/// Sentinel for "no object".
inline constexpr ObjectId kInvalidObjectId = 0;

/// The five editing operations of the complete set from Brown, Gruenwald &
/// Speegle (MIS'97) used by the paper: Define, Combine, Modify, Mutate,
/// Merge. Any image transformation can be composed from them.
enum class EditOpType {
  kDefine,
  kCombine,
  kModify,
  kMutate,
  kMerge,
};

/// Returns "Define", "Combine", ... for diagnostics.
std::string_view EditOpTypeName(EditOpType type);

/// Define(DR): selects the group of pixels — the Defined Region — that
/// subsequent operations in the script edit. Clipped to the canvas when
/// applied.
struct DefineOp {
  Rect region;

  friend bool operator==(const DefineOp&, const DefineOp&) = default;
  std::string ToString() const;
};

/// Combine(C1..C9): blurs the DR by replacing each pixel with the weighted
/// average of its 3x3 neighborhood; `weights` are row-major C1..C9.
/// Neighbors outside the canvas clamp to the nearest edge pixel. A zero
/// weight sum makes the operation a no-op.
struct CombineOp {
  std::array<double, 9> weights{};

  /// The uniform 1/9-style box blur (all weights 1).
  static CombineOp BoxBlur();
  /// The 1-2-1 binomial (Gaussian-ish) kernel.
  static CombineOp GaussianBlur();

  double WeightSum() const;
  friend bool operator==(const CombineOp&, const CombineOp&) = default;
  std::string ToString() const;
};

/// Modify(RGBold, RGBnew): recolors every DR pixel whose color is exactly
/// `old_color` to `new_color`.
struct ModifyOp {
  Rgb old_color;
  Rgb new_color;

  friend bool operator==(const ModifyOp&, const ModifyOp&) = default;
  std::string ToString() const;
};

/// Mutate(M11..M33): rearranges DR pixels with a 3x3 homogeneous matrix
/// (row-major `m`; rows are output coordinates). Supports translations,
/// rotations, and scales of items within an image.
///
/// Instantiation semantics (see `Editor`):
///  * If the DR covers the whole canvas and the matrix is a pure axis
///    scale, the canvas is resized to (round(w*M11), round(h*M22)) and
///    resampled (nearest neighbor).
///  * Otherwise the transformed copy of the DR is stamped over the canvas
///    (destination pixels whose preimage falls inside the DR are
///    overwritten); canvas size is unchanged.
struct MutateOp {
  std::array<double, 9> m{1, 0, 0, 0, 1, 0, 0, 0, 1};

  static MutateOp Identity();
  static MutateOp Translation(double dx, double dy);
  /// Rotation by `radians` about (cx, cy).
  static MutateOp Rotation(double radians, double cx, double cy);
  static MutateOp Scale(double sx, double sy);

  /// Determinant of the upper-left 2x2 block.
  double Det2x2() const;
  /// True iff the upper 2x2 block is orthonormal with |det| == 1 and the
  /// bottom row is (0, 0, 1): a rotation/reflection + translation.
  bool IsRigidBody() const;
  /// True iff the matrix is a pure positive axis-aligned scale with no
  /// translation, rotation, or shear.
  bool IsPureScale() const;
  /// Applies the matrix to (x, y); returns false if the homogeneous w
  /// coordinate is ~0.
  bool Apply(double x, double y, double* out_x, double* out_y) const;
  /// The inverse matrix, if invertible.
  std::optional<MutateOp> Inverse() const;

  // The geometry the editor and the Mutate rule must agree on cell for
  // cell (the rule's bounds are sound only while they do). Inline: the
  // rules call them once per operation, and the scale bracket's miss
  // path once per destination cell.

  /// Pure-scale resize (`IsPureScale`): the new extent of an axis
  /// `extent` cells long under its scale factor (M11 for x, M22 for y).
  static int32_t ScaledExtent(int32_t extent, double scale) {
    return static_cast<int32_t>(std::lround(extent * scale));
  }
  /// Pure-scale resize: the source cell that destination cell `dest`
  /// samples along an axis (nearest neighbor at the cell center,
  /// clamped to the source's `extent`).
  static int32_t SourceCell(int32_t dest, double scale, int32_t extent) {
    return std::clamp(static_cast<int32_t>(std::floor((dest + 0.5) / scale)),
                      0, extent - 1);
  }
  /// Stamp: the cells a stamp of `dr` can write — the bounding box of
  /// its transformed corners, widened to whole cells and clipped to
  /// `canvas`; nullopt when a corner projects to infinity.
  std::optional<Rect> StampBox(const Rect& dr, const Rect& canvas) const {
    double min_x = 1e30, min_y = 1e30, max_x = -1e30, max_y = -1e30;
    for (int32_t cx : {dr.x0, dr.x1}) {
      for (int32_t cy : {dr.y0, dr.y1}) {
        double tx, ty;
        if (!Apply(cx, cy, &tx, &ty)) return std::nullopt;
        min_x = std::min(min_x, tx);
        min_y = std::min(min_y, ty);
        max_x = std::max(max_x, tx);
        max_y = std::max(max_y, ty);
      }
    }
    return Rect(static_cast<int32_t>(std::floor(min_x)),
                static_cast<int32_t>(std::floor(min_y)),
                static_cast<int32_t>(std::ceil(max_x)) + 1,
                static_cast<int32_t>(std::ceil(max_y)) + 1)
        .Intersect(canvas);
  }

  friend bool operator==(const MutateOp&, const MutateOp&) = default;
  std::string ToString() const;
};

/// Merge(target, x, y): copies the current DR into `target` with the DR's
/// top-left corner placed at (x, y) in target coordinates. A null target
/// extracts the DR as the new image (x, y ignored). Pasting is clipped to
/// the target canvas.
struct MergeOp {
  /// Target image object; `std::nullopt` is the paper's NULL target.
  std::optional<ObjectId> target;
  int32_t x = 0;
  int32_t y = 0;

  bool IsNullTarget() const { return !target.has_value(); }
  friend bool operator==(const MergeOp&, const MergeOp&) = default;
  std::string ToString() const;
};

/// One editing operation.
using EditOp = std::variant<DefineOp, CombineOp, ModifyOp, MutateOp, MergeOp>;

/// The dynamic type of `op`.
EditOpType GetOpType(const EditOp& op);

/// Human-readable rendering of `op`.
std::string EditOpToString(const EditOp& op);

/// An edited image stored as a sequence of editing operations: a reference
/// to the base (binary) image plus the operations that transform it.
/// This is the space-saving storage format the paper queries without
/// instantiating.
struct EditScript {
  /// The referenced base image (a conventionally stored binary image).
  ObjectId base_id = kInvalidObjectId;
  /// Applied in order to the base image.
  std::vector<EditOp> ops;

  friend bool operator==(const EditScript&, const EditScript&) = default;
  std::string ToString() const;
};

}  // namespace mmdb

#endif  // MMDB_EDITOPS_EDIT_OPS_H_
