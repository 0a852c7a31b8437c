#include "puppies/jpeg/coeffs.h"

#include <algorithm>

namespace puppies::jpeg {

CoefficientImage::CoefficientImage(int width, int height, int components,
                                   const QuantTable& luma,
                                   const QuantTable& chroma, ChromaMode mode)
    : width_(width), height_(height), mode_(mode) {
  require(width > 0 && height > 0, "CoefficientImage dimensions");
  require(components == 1 || components == 3,
          "CoefficientImage supports 1 or 3 components");
  require(components == 3 || mode == ChromaMode::k444,
          "grayscale images cannot be chroma-subsampled");
  qtables_[0] = luma;
  // Grayscale images have no chroma table; mirror luma so that equality and
  // serialization round trips are well defined.
  qtables_[1] = components == 1 ? luma : chroma;

  comps_.resize(static_cast<std::size_t>(components));
  const int hmax = mode == ChromaMode::k420 ? 2 : 1;
  const int mcu_cols = (width + 8 * hmax - 1) / (8 * hmax);
  const int mcu_rows = (height + 8 * hmax - 1) / (8 * hmax);
  for (int c = 0; c < components; ++c) {
    Component& comp = comps_[static_cast<std::size_t>(c)];
    comp.quant_index = c == 0 ? 0 : 1;
    if (mode == ChromaMode::k420) {
      comp.h = c == 0 ? 2 : 1;
      comp.v = c == 0 ? 2 : 1;
    } else {
      comp.h = 1;
      comp.v = 1;
    }
    // Component grids are padded to whole MCUs (libjpeg does the same).
    comp.blocks_w = mcu_cols * comp.h;
    comp.blocks_h = mcu_rows * comp.v;
    comp.blocks = ImageBuffer<CoefBlock>(
        static_cast<std::size_t>(comp.blocks_w) * comp.blocks_h, CoefBlock{});
  }
}

long long CoefficientImage::total_blocks() const {
  long long n = 0;
  for (const Component& c : comps_)
    n += static_cast<long long>(c.blocks_w) * c.blocks_h;
  return n;
}

int CoefficientImage::h_max() const {
  int m = 1;
  for (const Component& c : comps_) m = std::max(m, c.h);
  return m;
}

int CoefficientImage::v_max() const {
  int m = 1;
  for (const Component& c : comps_) m = std::max(m, c.v);
  return m;
}

Rect CoefficientImage::pixel_to_block_rect(const Rect& r) {
  require(r.x % 8 == 0 && r.y % 8 == 0 && r.w % 8 == 0 && r.h % 8 == 0,
          "pixel rect must be 8x8-block aligned");
  return Rect{r.x / 8, r.y / 8, r.w / 8, r.h / 8};
}

}  // namespace puppies::jpeg
