#include "lossless_reference.h"

#include "puppies/jpeg/zigzag.h"

namespace puppies::jpeg::reference {

namespace {

void check_block_aligned(const CoefficientImage& img) {
  require(!img.subsampled(),
          "lossless coefficient transforms require 4:4:4 (transcode "
          "subsampled images through the pixel path)");
  require(img.width() % 8 == 0 && img.height() % 8 == 0,
          "lossless flip/rotate requires multiple-of-8 dimensions");
}

// Natural-order views of a zig-zag block.
std::array<std::int16_t, 64> to_natural(const CoefBlock& z) {
  std::array<std::int16_t, 64> n{};
  for (int i = 0; i < 64; ++i)
    n[static_cast<std::size_t>(kZigzagToNatural[static_cast<std::size_t>(i)])] =
        z[static_cast<std::size_t>(i)];
  return n;
}

CoefBlock to_zigzag(const std::array<std::int16_t, 64>& n) {
  CoefBlock z{};
  for (int i = 0; i < 64; ++i)
    z[static_cast<std::size_t>(i)] =
        n[static_cast<std::size_t>(kZigzagToNatural[static_cast<std::size_t>(i)])];
  return z;
}

CoefBlock block_flip_h(const CoefBlock& b) {
  auto n = to_natural(b);
  for (int v = 0; v < 8; ++v)
    for (int u = 1; u < 8; u += 2) n[static_cast<std::size_t>(v * 8 + u)] =
        static_cast<std::int16_t>(-n[static_cast<std::size_t>(v * 8 + u)]);
  return to_zigzag(n);
}

CoefBlock block_flip_v(const CoefBlock& b) {
  auto n = to_natural(b);
  for (int v = 1; v < 8; v += 2)
    for (int u = 0; u < 8; ++u) n[static_cast<std::size_t>(v * 8 + u)] =
        static_cast<std::int16_t>(-n[static_cast<std::size_t>(v * 8 + u)]);
  return to_zigzag(n);
}

CoefBlock block_transpose(const CoefBlock& b) {
  auto n = to_natural(b);
  std::array<std::int16_t, 64> t{};
  for (int v = 0; v < 8; ++v)
    for (int u = 0; u < 8; ++u)
      t[static_cast<std::size_t>(u * 8 + v)] = n[static_cast<std::size_t>(v * 8 + u)];
  return to_zigzag(t);
}

CoefficientImage like(const CoefficientImage& img, int w, int h) {
  CoefficientImage out(w, h, img.component_count(), img.qtable(0),
                       img.qtable(1));
  for (int c = 0; c < img.component_count(); ++c)
    out.component(c).quant_index = img.component(c).quant_index;
  return out;
}

/// Annex-K tables are not symmetric, so transposing coefficients requires
/// transposing the quantizer steps with them (as jpegtran does).
QuantTable transpose_qtable(const QuantTable& t) {
  QuantTable out;
  for (int z = 0; z < 64; ++z) {
    const int n = kZigzagToNatural[static_cast<std::size_t>(z)];
    const int transposed = (n % 8) * 8 + (n / 8);
    out.q[static_cast<std::size_t>(kNaturalToZigzag[static_cast<std::size_t>(transposed)])] =
        t.q[static_cast<std::size_t>(z)];
  }
  return out;
}

}  // namespace

CoefficientImage flip_horizontal(const CoefficientImage& img) {
  check_block_aligned(img);
  CoefficientImage out = like(img, img.width(), img.height());
  for (int c = 0; c < img.component_count(); ++c) {
    const Component& src = img.component(c);
    Component& dst = out.component(c);
    for (int by = 0; by < src.blocks_h; ++by)
      for (int bx = 0; bx < src.blocks_w; ++bx)
        dst.block(src.blocks_w - 1 - bx, by) = block_flip_h(src.block(bx, by));
  }
  return out;
}

CoefficientImage flip_vertical(const CoefficientImage& img) {
  check_block_aligned(img);
  CoefficientImage out = like(img, img.width(), img.height());
  for (int c = 0; c < img.component_count(); ++c) {
    const Component& src = img.component(c);
    Component& dst = out.component(c);
    for (int by = 0; by < src.blocks_h; ++by)
      for (int bx = 0; bx < src.blocks_w; ++bx)
        dst.block(bx, src.blocks_h - 1 - by) = block_flip_v(src.block(bx, by));
  }
  return out;
}

CoefficientImage transpose(const CoefficientImage& img) {
  check_block_aligned(img);
  CoefficientImage out = like(img, img.height(), img.width());
  out.qtable(0) = transpose_qtable(img.qtable(0));
  out.qtable(1) = transpose_qtable(img.qtable(1));
  for (int c = 0; c < img.component_count(); ++c) {
    const Component& src = img.component(c);
    Component& dst = out.component(c);
    for (int by = 0; by < src.blocks_h; ++by)
      for (int bx = 0; bx < src.blocks_w; ++bx)
        dst.block(by, bx) = block_transpose(src.block(bx, by));
  }
  return out;
}

CoefficientImage rotate90(const CoefficientImage& img) {
  return flip_horizontal(transpose(img));
}

CoefficientImage rotate180(const CoefficientImage& img) {
  return flip_vertical(flip_horizontal(img));
}

CoefficientImage rotate270(const CoefficientImage& img) {
  return flip_vertical(transpose(img));
}

CoefficientImage crop_aligned(const CoefficientImage& img, const Rect& r) {
  require(!img.subsampled(),
          "lossless crop requires 4:4:4 (transcode subsampled images "
          "through the pixel path)");
  require(img.bounds().contains(r), "crop rect outside image");
  const Rect br = CoefficientImage::pixel_to_block_rect(r);
  CoefficientImage out = like(img, r.w, r.h);
  for (int c = 0; c < img.component_count(); ++c) {
    const Component& src = img.component(c);
    Component& dst = out.component(c);
    for (int by = 0; by < dst.blocks_h; ++by)
      for (int bx = 0; bx < dst.blocks_w; ++bx)
        dst.block(bx, by) = src.block(br.x + bx, br.y + by);
  }
  return out;
}

}  // namespace puppies::jpeg::reference

namespace puppies::transform::reference {

namespace {

Plane<float> crop_plane(const Plane<float>& in, const Rect& r) {
  Plane<float> out(r.w, r.h, 0.f);
  for (int y = 0; y < r.h; ++y)
    for (int x = 0; x < r.w; ++x) out.at(x, y) = in.at(r.x + x, r.y + y);
  return out;
}

Plane<float> rot_plane(const Plane<float>& in, Kind kind) {
  const int w = in.width(), h = in.height();
  switch (kind) {
    case Kind::kRotate90: {
      Plane<float> out(h, w, 0.f);
      for (int y = 0; y < w; ++y)
        for (int x = 0; x < h; ++x) out.at(x, y) = in.at(y, h - 1 - x);
      return out;
    }
    case Kind::kRotate180: {
      Plane<float> out(w, h, 0.f);
      for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x) out.at(x, y) = in.at(w - 1 - x, h - 1 - y);
      return out;
    }
    case Kind::kRotate270: {
      Plane<float> out(h, w, 0.f);
      for (int y = 0; y < w; ++y)
        for (int x = 0; x < h; ++x) out.at(x, y) = in.at(w - 1 - y, x);
      return out;
    }
    case Kind::kFlipH: {
      Plane<float> out(w, h, 0.f);
      for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x) out.at(x, y) = in.at(w - 1 - x, y);
      return out;
    }
    case Kind::kFlipV: {
      Plane<float> out(w, h, 0.f);
      for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x) out.at(x, y) = in.at(x, h - 1 - y);
      return out;
    }
    default:
      throw InvalidArgument("rot_plane: not a rotation/flip");
  }
}

YccImage per_plane(const YccImage& img, auto&& fn) {
  YccImage out;
  out.y = fn(img.y);
  out.cb = fn(img.cb);
  out.cr = fn(img.cr);
  return out;
}

}  // namespace

jpeg::CoefficientImage apply_lossless(const Step& step,
                                      const jpeg::CoefficientImage& img) {
  switch (step.kind) {
    case Kind::kIdentity:
      return img;
    case Kind::kCropAligned:
      return jpeg::reference::crop_aligned(img, step.rect);
    case Kind::kRotate90:
      return jpeg::reference::rotate90(img);
    case Kind::kRotate180:
      return jpeg::reference::rotate180(img);
    case Kind::kRotate270:
      return jpeg::reference::rotate270(img);
    case Kind::kFlipH:
      return jpeg::reference::flip_horizontal(img);
    case Kind::kFlipV:
      return jpeg::reference::flip_vertical(img);
    default:
      throw InvalidArgument("transform step is not lossless: " +
                            step.to_string());
  }
}

jpeg::CoefficientImage apply_lossless(const Chain& chain,
                                      jpeg::CoefficientImage img) {
  for (const Step& s : chain) {
    if (s.kind == Kind::kIdentity) continue;  // no blocks move
    img = apply_lossless(s, img);
  }
  return img;
}

YccImage apply(const Chain& chain, YccImage img) {
  for (const Step& s : chain) {
    switch (s.kind) {
      case Kind::kCropAligned:
        require(img.bounds().contains(s.rect), "crop rect outside image");
        img = per_plane(img, [&](const Plane<float>& p) {
          return crop_plane(p, s.rect);
        });
        break;
      case Kind::kRotate90:
      case Kind::kRotate180:
      case Kind::kRotate270:
      case Kind::kFlipH:
      case Kind::kFlipV:
        img = per_plane(
            img, [&](const Plane<float>& p) { return rot_plane(p, s.kind); });
        break;
      default:
        img = transform::apply(s, img);
        break;
    }
  }
  return img;
}

std::vector<Step> lossless_alphabet(int w, int h) {
  const auto down8 = [](int v) { return v / 8 * 8; };
  const auto up8 = [](int v) { return (v + 7) / 8 * 8; };
  const int edge_x = down8(w / 4);
  return {identity(),
          rotate(90),
          rotate(180),
          rotate(270),
          flip_h(),
          flip_v(),
          crop_aligned(Rect{8, 8, down8(w / 2), down8(h / 2)}),
          crop_aligned(Rect{edge_x, 8, up8(w) - edge_x, up8(h) - 8})};
}

std::string chain_name(const Chain& chain) {
  std::string name;
  for (const Step& s : chain) name += s.to_string() + " ";
  return name;
}

std::vector<Chain> all_chains(const std::vector<Step>& alphabet,
                              int max_steps) {
  std::vector<Chain> chains{Chain{}};
  std::size_t begin = 0;
  for (int len = 0; len < max_steps; ++len) {
    const std::size_t end = chains.size();
    for (std::size_t i = begin; i < end; ++i)
      for (const Step& s : alphabet) {
        Chain longer = chains[i];
        longer.push_back(s);
        chains.push_back(std::move(longer));
      }
    begin = end;
  }
  return chains;
}

}  // namespace puppies::transform::reference
