#include "puppies/jpeg/lossless.h"

#include "puppies/exec/parallel_for.h"
#include "puppies/jpeg/zigzag.h"

namespace puppies::jpeg {

namespace {

/// Output coefficient z of a moved block is `sign` times coefficient
/// `from[z]` of its source block (both zigzag indices).
struct BlockTable {
  std::array<std::uint8_t, 64> from{};
  std::array<std::int16_t, 64> sign{};
};

/// The block table of `d` in normal form: transposing swaps a block's
/// (u, v) frequencies, and mirroring an axis negates the odd frequencies
/// along it.
BlockTable block_table(const Dihedral& d) {
  BlockTable t;
  for (std::size_t z = 0; z < 64; ++z) {
    const int n = kZigzagToNatural[z];
    const int u = n % 8, v = n / 8;
    const int src = d.transposes() ? u * 8 + v : n;
    t.from[z] = static_cast<std::uint8_t>(
        kNaturalToZigzag[static_cast<std::size_t>(src)]);
    const bool negate = (d.mirrors_x() && u % 2 != 0) !=
                        (d.mirrors_y() && v % 2 != 0);
    t.sign[z] = negate ? -1 : 1;
  }
  return t;
}

/// One table per D4 element, indexed quarter_turns * 2 + flipped.
const BlockTable& table_for(const Dihedral& d) {
  static const std::array<BlockTable, 8> tables = [] {
    std::array<BlockTable, 8> all;
    for (int i = 0; i < 8; ++i)
      all[static_cast<std::size_t>(i)] =
          block_table(Dihedral{i / 2, i % 2 != 0});
    return all;
  }();
  return tables[static_cast<std::size_t>(d.quarter_turns * 2 + d.flipped)];
}

Rect block_grid(const CoefficientImage& img) {
  return Rect{0, 0, img.blocks_w(), img.blocks_h()};
}

}  // namespace

void move_block(const CoefBlock& in, const Dihedral& d, CoefBlock& out) {
  const BlockTable& table = table_for(d);
  for (std::size_t z = 0; z < 64; ++z)
    out[z] = static_cast<std::int16_t>(in[table.from[z]] * table.sign[z]);
}

void move_blocks(const CoefficientImage& src, const Rect& from,
                 const Dihedral& d, CoefficientImage& dst, int to_bx,
                 int to_by) {
  require(!src.subsampled() && !dst.subsampled() &&
              src.component_count() == dst.component_count(),
          "lossless block moves require 4:4:4 images with matching "
          "components");
  const Rect fb{from.x / 8, from.y / 8, (from.w + 7) / 8, (from.h + 7) / 8};
  require(from.x % 8 == 0 && from.y % 8 == 0 && block_grid(src).contains(fb),
          "block move source outside the image");
  const auto [ow, oh] = d.output_size(fb.w, fb.h);
  require(block_grid(dst).contains(Rect{to_bx, to_by, ow, oh}),
          "block move target outside the image");

  const Dihedral inv = d.inverse();
  exec::parallel_for(static_cast<std::size_t>(oh), [&](std::size_t row) {
    const int by = static_cast<int>(row);
    // d^-1 is affine, so the row's source blocks are a fixed stride apart.
    const auto [x0, y0] = inv.map(0, by, ow, oh);
    const auto [x1, y1] = inv.map(1, by, ow, oh);
    for (int c = 0; c < src.component_count(); ++c) {
      const Component& s = src.component(c);
      Component& t = dst.component(c);
      const std::ptrdiff_t first =
          static_cast<std::ptrdiff_t>(fb.y + y0) * s.blocks_w + fb.x + x0;
      const std::ptrdiff_t stride =
          static_cast<std::ptrdiff_t>(y1 - y0) * s.blocks_w + (x1 - x0);
      CoefBlock* out = t.blocks.data() +
                       static_cast<std::ptrdiff_t>(to_by + by) * t.blocks_w +
                       to_bx;
      for (int bx = 0; bx < ow; ++bx)
        move_block(s.blocks[static_cast<std::size_t>(first + bx * stride)], d,
                   out[bx]);
    }
  });
}

CoefficientImage blank_like(const CoefficientImage& img, int w, int h,
                            const Dihedral& d) {
  CoefficientImage out(w, h, img.component_count(), img.qtable(0),
                       img.qtable(1));
  for (int c = 0; c < img.component_count(); ++c)
    out.component(c).quant_index = img.component(c).quant_index;
  // Quantizer steps move with their coefficients; they carry no sign.
  const BlockTable& table = table_for(d);
  for (int i = 0; i < 2; ++i)
    for (std::size_t z = 0; z < 64; ++z)
      out.qtable(i).q[z] = img.qtable(i).q[table.from[z]];
  return out;
}

}  // namespace puppies::jpeg
