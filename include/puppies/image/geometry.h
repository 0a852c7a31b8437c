#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace puppies {

/// Integer pixel rectangle: origin (x, y), size w x h. Empty iff w<=0 || h<=0.
struct Rect {
  int x = 0;
  int y = 0;
  int w = 0;
  int h = 0;

  bool empty() const { return w <= 0 || h <= 0; }
  long long area() const {
    return empty() ? 0 : static_cast<long long>(w) * h;
  }
  int right() const { return x + w; }    // exclusive
  int bottom() const { return y + h; }   // exclusive

  bool contains(int px, int py) const {
    return px >= x && py >= y && px < right() && py < bottom();
  }
  bool contains(const Rect& o) const {
    // Ends in 64 bits, so a hostile rect's edges cannot overflow.
    const auto end = [](int a, int b) { return static_cast<long long>(a) + b; };
    return !o.empty() && o.x >= x && o.y >= y &&
           end(o.x, o.w) <= end(x, w) && end(o.y, o.h) <= end(y, h);
  }
  bool intersects(const Rect& o) const {
    return !intersect(*this, o).empty();
  }

  static Rect intersect(const Rect& a, const Rect& b) {
    const int x0 = std::max(a.x, b.x);
    const int y0 = std::max(a.y, b.y);
    const int x1 = std::min(a.right(), b.right());
    const int y1 = std::min(a.bottom(), b.bottom());
    return Rect{x0, y0, x1 - x0, y1 - y0};
  }

  /// Smallest rect containing both (bounding union).
  static Rect bound(const Rect& a, const Rect& b) {
    if (a.empty()) return b;
    if (b.empty()) return a;
    const int x0 = std::min(a.x, b.x);
    const int y0 = std::min(a.y, b.y);
    const int x1 = std::max(a.right(), b.right());
    const int y1 = std::max(a.bottom(), b.bottom());
    return Rect{x0, y0, x1 - x0, y1 - y0};
  }

  /// Expands outward so that origin and size are multiples of `grid`
  /// (JPEG needs 8x8-block-aligned ROIs), clipped to `bounds`.
  Rect aligned_to(int grid, const Rect& bounds) const {
    const int x0 = (x / grid) * grid;
    const int y0 = (y / grid) * grid;
    int x1 = ((right() + grid - 1) / grid) * grid;
    int y1 = ((bottom() + grid - 1) / grid) * grid;
    Rect r{x0, y0, x1 - x0, y1 - y0};
    return intersect(r, bounds);
  }

  bool operator==(const Rect&) const = default;

  std::string to_string() const;
};

/// One element of the dihedral group D4 acting on a w x h raster: flip
/// horizontally first (if `flipped`), then rotate `quarter_turns` * 90
/// degrees clockwise. Every run of rotations and flips reduces to one
/// element, and a crop commutes through one (crop . D == D . crop'), so a
/// whole lossless chain is one crop plus one element. This is the library's
/// one convention for those moves: rect and size mapping, chain folding and
/// canonicalization, and the coefficient-block and pixel-plane gathers.
struct Dihedral {
  int quarter_turns = 0;  ///< 0..3, clockwise
  bool flipped = false;

  bool identity() const { return quarter_turns == 0 && !flipped; }
  /// Odd quarter turns swap the axes (and a block's (u, v) frequencies).
  bool transposes() const { return quarter_turns % 2 != 0; }
  /// In normal form every element transposes (or not), then mirrors the
  /// output's x and/or y axis.
  bool mirrors_x() const {
    return (quarter_turns == 1 || quarter_turns == 2) !=
           (flipped && !transposes());
  }
  bool mirrors_y() const {
    return (quarter_turns >= 2) != (flipped && transposes());
  }

  /// This element followed by `next`.
  Dihedral then(const Dihedral& next) const {
    // flip . rot(k) == rot(-k) . flip: a flip in `next` negates the
    // rotation accumulated so far.
    const int q = next.flipped ? next.quarter_turns - quarter_turns
                               : next.quarter_turns + quarter_turns;
    return Dihedral{(q + 4) % 4, flipped != next.flipped};
  }
  Dihedral inverse() const {
    // Reflections are involutions; rotations turn back.
    return flipped ? *this : Dihedral{(4 - quarter_turns) % 4, false};
  }

  /// Size of a w x h raster after this element.
  std::pair<int, int> output_size(int w, int h) const {
    return transposes() ? std::pair{h, w} : std::pair{w, h};
  }
  /// Where rect `r` of a w x h raster lands.
  Rect map(const Rect& r, int w, int h) const {
    Rect out = transposes() ? Rect{r.y, r.x, r.h, r.w} : r;
    const auto [ow, oh] = output_size(w, h);
    if (mirrors_x()) out.x = ow - out.right();
    if (mirrors_y()) out.y = oh - out.bottom();
    return out;
  }
  /// Where pixel (x, y) of a w x h raster lands.
  std::pair<int, int> map(int x, int y, int w, int h) const {
    const Rect p = map(Rect{x, y, 1, 1}, w, h);
    return {p.x, p.y};
  }

  bool operator==(const Dihedral&) const = default;
};

/// Splits a set of possibly-overlapping rectangles into disjoint rectangles
/// whose union equals the union of the inputs (Section IV-A "split the
/// overall detected regions into disjoint regions"). Output rects are
/// maximal row-merged cells of the coordinate-compacted grid; deterministic.
std::vector<Rect> split_disjoint(const std::vector<Rect>& rects);

/// True iff no two rects in the list overlap.
bool pairwise_disjoint(const std::vector<Rect>& rects);

/// Sum of areas of the union of `rects` (inclusion-free via splitting).
long long union_area(const std::vector<Rect>& rects);

}  // namespace puppies
