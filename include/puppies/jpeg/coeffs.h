#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "puppies/common/error.h"
#include "puppies/image/buffer.h"
#include "puppies/image/geometry.h"
#include "puppies/jpeg/quant.h"

namespace puppies::jpeg {

/// One quantized 8x8 coefficient block in ZIG-ZAG order: [0] is DC, [1..63]
/// are AC in increasing zig-zag frequency — exactly the 64-vector the paper's
/// algorithms index as B^k = {b_i^k, 0 <= i <= 63}.
using CoefBlock = std::array<std::int16_t, 64>;

/// Chroma layout of a 3-component image.
enum class ChromaMode : std::uint8_t {
  k444 = 0,  ///< full-resolution chroma (1x1 sampling everywhere)
  k420 = 1,  ///< chroma halved in both directions (luma 2x2, chroma 1x1)
};

/// One color component's coefficient grid.
struct Component {
  int blocks_w = 0;       ///< padded to a whole number of MCUs
  int blocks_h = 0;
  int h = 1;              ///< horizontal sampling factor (luma 2 in 4:2:0)
  int v = 1;              ///< vertical sampling factor
  int quant_index = 0;    ///< index into CoefficientImage::qtables
  ImageBuffer<CoefBlock> blocks;  ///< row-major, blocks_w per row

  CoefBlock& block(int bx, int by) {
    require(bx >= 0 && bx < blocks_w && by >= 0 && by < blocks_h,
            "block index out of range");
    return blocks[static_cast<std::size_t>(by) * blocks_w + bx];
  }
  const CoefBlock& block(int bx, int by) const {
    return const_cast<Component*>(this)->block(bx, by);
  }

  bool operator==(const Component&) const = default;
};

/// Quantized-DCT-domain representation of a JPEG image — the interchange
/// type of the whole library. Entropy coding to/from JFIF bytes is lossless,
/// so any manipulation of this structure survives a store/share round trip
/// bit-exactly (the property Lemma III.1's exact recovery relies on).
///
/// Supports full-resolution chroma (4:4:4, the default) and 4:2:0
/// subsampling (ChromaMode::k420, what most real-world JPEGs use).
class CoefficientImage {
 public:
  CoefficientImage() = default;

  /// Builds an all-zero coefficient image for a width x height pixel canvas
  /// with `components` (1 = grayscale, 3 = YCbCr).
  CoefficientImage(int width, int height, int components,
                   const QuantTable& luma, const QuantTable& chroma,
                   ChromaMode mode = ChromaMode::k444);

  int width() const { return width_; }
  int height() const { return height_; }
  int component_count() const { return static_cast<int>(comps_.size()); }
  /// Block-grid size of the LUMA component.
  int blocks_w() const { return comps_.empty() ? 0 : comps_[0].blocks_w; }
  int blocks_h() const { return comps_.empty() ? 0 : comps_[0].blocks_h; }
  /// Total number of 8x8 blocks across all components.
  long long total_blocks() const;

  ChromaMode chroma_mode() const { return mode_; }
  bool subsampled() const { return mode_ == ChromaMode::k420; }
  /// Maximum sampling factors across components (2 for 4:2:0, else 1).
  int h_max() const;
  int v_max() const;
  /// Pixel size covered by one MCU (8 for 4:4:4/gray, 16 for 4:2:0).
  int mcu_pixels() const { return 8 * h_max(); }
  /// MCU grid of the scan (what restart intervals count in).
  int mcu_cols() const {
    return comps_.empty() ? 0 : comps_[0].blocks_w / comps_[0].h;
  }
  int mcu_rows() const {
    return comps_.empty() ? 0 : comps_[0].blocks_h / comps_[0].v;
  }
  int mcu_count() const { return mcu_cols() * mcu_rows(); }

  Component& component(int c) {
    require(c >= 0 && c < component_count(), "component index");
    return comps_[static_cast<std::size_t>(c)];
  }
  const Component& component(int c) const {
    return const_cast<CoefficientImage*>(this)->component(c);
  }

  QuantTable& qtable(int i) {
    require(i >= 0 && i < 2, "qtable index");
    return qtables_[static_cast<std::size_t>(i)];
  }
  const QuantTable& qtable(int i) const {
    return const_cast<CoefficientImage*>(this)->qtable(i);
  }
  /// Quant table used by component `c`.
  const QuantTable& qtable_for(int c) const {
    return qtable(component(c).quant_index);
  }

  /// Pixel bounds of the image.
  Rect bounds() const { return Rect{0, 0, width_, height_}; }
  /// Block-grid rect covering pixel rect `r` (r must be 8-aligned).
  static Rect pixel_to_block_rect(const Rect& r);

  bool operator==(const CoefficientImage&) const = default;

 private:
  int width_ = 0;
  int height_ = 0;
  ChromaMode mode_ = ChromaMode::k444;
  std::vector<Component> comps_;
  std::array<QuantTable, 2> qtables_{};
};

}  // namespace puppies::jpeg
