#ifndef MMDB_IMAGE_GEOMETRY_H_
#define MMDB_IMAGE_GEOMETRY_H_

#include <algorithm>
#include <cstdint>
#include <string>

namespace mmdb {

/// Integer pixel coordinate. `x` grows rightwards, `y` downwards.
struct Point {
  int32_t x = 0;
  int32_t y = 0;

  friend constexpr bool operator==(const Point& a, const Point& b) {
    return a.x == b.x && a.y == b.y;
  }
};

/// Half-open axis-aligned pixel rectangle [x0, x1) x [y0, y1).
///
/// The Define editing operation selects a `Rect` as the Defined Region; an
/// empty rectangle (x0 >= x1 or y0 >= y1) selects no pixels.
struct Rect {
  int32_t x0 = 0;
  int32_t y0 = 0;
  int32_t x1 = 0;
  int32_t y1 = 0;

  constexpr Rect() = default;
  constexpr Rect(int32_t left, int32_t top, int32_t right, int32_t bottom)
      : x0(left), y0(top), x1(right), y1(bottom) {}

  /// Rectangle covering a full `width` x `height` image.
  static constexpr Rect Full(int32_t width, int32_t height) {
    return Rect(0, 0, width, height);
  }

  constexpr int32_t Width() const { return x1 > x0 ? x1 - x0 : 0; }
  constexpr int32_t Height() const { return y1 > y0 ? y1 - y0 : 0; }
  constexpr int64_t Area() const {
    return static_cast<int64_t>(Width()) * Height();
  }
  constexpr bool Empty() const { return Width() == 0 || Height() == 0; }

  constexpr bool Contains(int32_t x, int32_t y) const {
    return x >= x0 && x < x1 && y >= y0 && y < y1;
  }
  constexpr bool Contains(const Rect& other) const {
    return other.Empty() ||
           (other.x0 >= x0 && other.x1 <= x1 && other.y0 >= y0 &&
            other.y1 <= y1);
  }

  /// Intersection; empty if disjoint.
  constexpr Rect Intersect(const Rect& other) const {
    Rect r(std::max(x0, other.x0), std::max(y0, other.y0),
           std::min(x1, other.x1), std::min(y1, other.y1));
    if (r.Empty()) return Rect();
    return r;
  }

  friend constexpr bool operator==(const Rect& a, const Rect& b) {
    return a.x0 == b.x0 && a.y0 == b.y0 && a.x1 == b.x1 && a.y1 == b.y1;
  }

  /// "[x0,y0)x[x1,y1)". Appends to one string: GCC 12 at -O3 raises a
  /// false -Wrestrict on the equivalent chain of operator+ temporaries.
  std::string ToString() const {
    std::string out = "[";
    out += std::to_string(x0);
    out += ',';
    out += std::to_string(y0);
    out += ")x[";
    out += std::to_string(x1);
    out += ',';
    out += std::to_string(y1);
    out += ')';
    return out;
  }
};

}  // namespace mmdb

#endif  // MMDB_IMAGE_GEOMETRY_H_
