#include "codec_reference.h"

#include <cmath>
#include <utility>

#include "puppies/exec/parallel_for.h"
#include "puppies/jpeg/dct.h"
#include "puppies/jpeg/quant.h"
#include "puppies/kernels/kernels.h"

namespace puppies::jpeg::reference {

namespace {

void extract_block(const Plane<float>& plane, int bx, int by, float* out) {
  const int x0 = bx * 8, y0 = by * 8;
  if (x0 + 8 <= plane.width() && y0 + 8 <= plane.height()) {
    // Interior block: straight row reads, no per-tap clamping.
    for (int y = 0; y < 8; ++y) {
      const float* src = plane.row(y0 + y).data() + x0;
      for (int x = 0; x < 8; ++x) out[y * 8 + x] = src[x] - 128.f;
    }
    return;
  }
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x)
      out[y * 8 + x] = plane.clamped_at(x0 + x, y0 + y) - 128.f;
}

void deposit_block(Plane<float>& plane, int bx, int by, const float* samples) {
  const int x0 = bx * 8, y0 = by * 8;
  if (x0 + 8 <= plane.width() && y0 + 8 <= plane.height()) {
    for (int y = 0; y < 8; ++y) {
      float* dst = plane.row(y0 + y).data() + x0;
      for (int x = 0; x < 8; ++x) dst[x] = samples[y * 8 + x] + 128.f;
    }
    return;
  }
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x) {
      const int px = x0 + x, py = y0 + y;
      if (px < plane.width() && py < plane.height())
        plane.at(px, py) = samples[y * 8 + x] + 128.f;
    }
}

/// 2x box downsampling (the standard chroma decimation for 4:2:0). The
/// kernel clamps the odd-width x tail; the odd-height y tail is handled here
/// by passing the same (clamped) row pointer twice, which reproduces
/// clamped_at's independent x/y clamping exactly.
Plane<float> downsample2x(const Plane<float>& in) {
  const int nw = (in.width() + 1) / 2, nh = (in.height() + 1) / 2;
  Plane<float> out(nw, nh, 0.f);
  const kernels::KernelTable& k = kernels::active();
  exec::parallel_for(static_cast<std::size_t>(nh), [&](std::size_t row) {
    const int y = static_cast<int>(row);
    const int y1 = 2 * y + 1 < in.height() ? 2 * y + 1 : in.height() - 1;
    k.downsample2x_row(in.row(2 * y).data(), in.row(y1).data(), in.width(),
                       nw, out.row(y).data());
  });
  return out;
}

/// Bilinear chroma upsampling back to full resolution. The vertical tap
/// selection (and its clamping) happens here per row; the kernel resamples
/// horizontally with clamped borders and an unchecked interior.
Plane<float> upsample_to(const Plane<float>& in, int w, int h) {
  Plane<float> out(w, h, 0.f);
  const float sx = static_cast<float>(in.width()) / w;
  const float sy = static_cast<float>(in.height()) / h;
  const kernels::KernelTable& k = kernels::active();
  exec::parallel_for(static_cast<std::size_t>(h), [&](std::size_t row) {
    const int y = static_cast<int>(row);
    const float fy = (y + 0.5f) * sy - 0.5f;
    const int y0 = static_cast<int>(std::floor(fy));
    const float wy = fy - y0;
    const int last = in.height() - 1;
    const int ya = y0 < 0 ? 0 : (y0 > last ? last : y0);
    const int yb = y0 + 1 < 0 ? 0 : (y0 + 1 > last ? last : y0 + 1);
    k.upsample_row(in.row(ya).data(), in.row(yb).data(), in.width(), sx, wy,
                   w, out.row(y).data());
  });
  return out;
}

void encode_component_plane(const Plane<float>& plane, Component& comp,
                            const QuantTable& qt,
                            std::vector<std::uint64_t>* masks = nullptr) {
  // Block rows are independent; every (bx, by) writes its own preallocated
  // block (and mask slot), so the result is bit-identical at any thread
  // count. The quant constants (reciprocals, clamp bounds) are built once
  // per plane. The fused quantize_scan kernel produces exactly quantize()'s
  // int16 output plus the nonzero mask serialize() run-length codes from.
  const kernels::QuantConstants qc = quant_constants(qt);
  const kernels::KernelTable& k = kernels::active();
  if (masks)
    masks->assign(
        static_cast<std::size_t>(comp.blocks_w) * comp.blocks_h, 0);
  exec::parallel_for(static_cast<std::size_t>(comp.blocks_h),
                     [&](std::size_t by) {
                       FloatBlock samples, coeffs;
                       for (int bx = 0; bx < comp.blocks_w; ++bx) {
                         extract_block(plane, bx, static_cast<int>(by),
                                       samples.data());
                         k.fdct8x8(samples.data(), coeffs.data());
                         const std::uint64_t m = k.quantize_scan(
                             coeffs.data(), qc,
                             comp.block(bx, static_cast<int>(by)).data());
                         if (masks)
                           (*masks)[by * static_cast<std::size_t>(
                                             comp.blocks_w) +
                                    static_cast<std::size_t>(bx)] = m;
                       }
                     });
}

Plane<float> decode_component_plane(const Component& comp,
                                    const QuantTable& qt, int pixel_w,
                                    int pixel_h) {
  Plane<float> plane(pixel_w, pixel_h, 0.f);
  const kernels::QuantConstants qc = quant_constants(qt);
  const kernels::KernelTable& k = kernels::active();
  // deposit_block writes only rows [8*by, 8*by+8), so block rows touch
  // disjoint pixel rows.
  exec::parallel_for(static_cast<std::size_t>(comp.blocks_h),
                     [&](std::size_t by) {
                       FloatBlock samples;
                       for (int bx = 0; bx < comp.blocks_w; ++bx) {
                         k.dequantize_idct(
                             comp.block(bx, static_cast<int>(by)).data(), qc,
                             samples.data());
                         deposit_block(plane, bx, static_cast<int>(by),
                                       samples.data());
                       }
                     });
  return plane;
}

/// Pixel size of component `c` of a w x h image.
std::pair<int, int> component_pixel_size(const CoefficientImage& img, int c) {
  const Component& comp = img.component(c);
  const int w = (img.width() * comp.h + img.h_max() - 1) / img.h_max();
  const int h = (img.height() * comp.v + img.v_max() - 1) / img.v_max();
  return {w, h};
}

}  // namespace

CoefficientImage forward_transform(const YccImage& img, int quality,
                                   ChromaMode mode, ScanIndex* scan) {
  CoefficientImage out(img.width(), img.height(), 3,
                       luma_quant_table(quality), chroma_quant_table(quality),
                       mode);
  if (scan) scan->masks.resize(3);
  auto masks = [&](int c) {
    return scan ? &scan->masks[static_cast<std::size_t>(c)] : nullptr;
  };
  encode_component_plane(img.y, out.component(0), out.qtable_for(0),
                         masks(0));
  if (mode == ChromaMode::k420) {
    encode_component_plane(downsample2x(img.cb), out.component(1),
                           out.qtable_for(1), masks(1));
    encode_component_plane(downsample2x(img.cr), out.component(2),
                           out.qtable_for(2), masks(2));
  } else {
    encode_component_plane(img.cb, out.component(1), out.qtable_for(1),
                           masks(1));
    encode_component_plane(img.cr, out.component(2), out.qtable_for(2),
                           masks(2));
  }
  return out;
}

CoefficientImage forward_transform(const GrayU8& img, int quality,
                                   ScanIndex* scan) {
  const GrayF f = to_float(img);
  CoefficientImage out(img.width(), img.height(), 1,
                       luma_quant_table(quality), chroma_quant_table(quality));
  Plane<float> plane(img.width(), img.height(), 0.f);
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x) plane.at(x, y) = f.at(x, y);
  if (scan) scan->masks.resize(1);
  encode_component_plane(plane, out.component(0), out.qtable_for(0),
                         scan ? &scan->masks[0] : nullptr);
  return out;
}

YccImage inverse_transform(const CoefficientImage& coeffs) {
  require(coeffs.component_count() == 3,
          "inverse_transform expects a 3-component image");
  YccImage out(coeffs.width(), coeffs.height());
  for (int c = 0; c < 3; ++c) {
    const auto [cw, ch] = component_pixel_size(coeffs, c);
    Plane<float> plane = decode_component_plane(
        coeffs.component(c), coeffs.qtable_for(c), cw, ch);
    if (cw != coeffs.width() || ch != coeffs.height())
      plane = upsample_to(plane, coeffs.width(), coeffs.height());
    out.component(c) = std::move(plane);
  }
  return out;
}

RgbImage decode_to_rgb(const CoefficientImage& coeffs) {
  return ycc_to_rgb(reference::inverse_transform(coeffs));
}

}  // namespace puppies::jpeg::reference
