#include "puppies/p3/p3.h"

namespace puppies::p3 {

Split split(const jpeg::CoefficientImage& img, int threshold) {
  require(threshold >= 1, "P3 threshold must be positive");
  Split out{img, img};
  for (int c = 0; c < img.component_count(); ++c) {
    jpeg::Component& pub = out.public_part.component(c);
    jpeg::Component& priv = out.private_part.component(c);
    for (std::size_t b = 0; b < pub.blocks.size(); ++b) {
      jpeg::CoefBlock& pb = pub.blocks[b];
      jpeg::CoefBlock& vb = priv.blocks[b];
      // DC moves wholly to the private part.
      vb[0] = pb[0];
      pb[0] = 0;
      for (int z = 1; z < 64; ++z) {
        const auto idx = static_cast<std::size_t>(z);
        const int a = pb[idx];
        if (a > threshold) {
          pb[idx] = static_cast<std::int16_t>(threshold);
          vb[idx] = static_cast<std::int16_t>(a - threshold);
        } else if (a < -threshold) {
          pb[idx] = static_cast<std::int16_t>(-threshold);
          vb[idx] = static_cast<std::int16_t>(a + threshold);
        } else {
          vb[idx] = 0;  // public keeps the small coefficient
        }
      }
    }
  }
  return out;
}

jpeg::CoefficientImage recombine(const jpeg::CoefficientImage& public_part,
                                 const jpeg::CoefficientImage& private_part) {
  require(public_part.width() == private_part.width() &&
              public_part.height() == private_part.height() &&
              public_part.component_count() == private_part.component_count(),
          "P3 parts do not match");
  jpeg::CoefficientImage out = public_part;
  for (int c = 0; c < out.component_count(); ++c) {
    jpeg::Component& oc = out.component(c);
    const jpeg::Component& pc = private_part.component(c);
    for (std::size_t b = 0; b < oc.blocks.size(); ++b)
      for (int z = 0; z < 64; ++z) {
        const auto idx = static_cast<std::size_t>(z);
        oc.blocks[b][idx] = static_cast<std::int16_t>(oc.blocks[b][idx] +
                                                      pc.blocks[b][idx]);
      }
  }
  return out;
}

// Sizes as the paper measures them (Fig. 11/18): without restart markers.
constexpr jpeg::EncodeOptions kSizeOptions{jpeg::HuffmanMode::kOptimized,
                                           jpeg::ChromaMode::k444, 0};

std::size_t public_size(const Split& s) {
  return jpeg::serialize(s.public_part, kSizeOptions).size();
}

std::size_t private_size(const Split& s) {
  return jpeg::serialize(s.private_part, kSizeOptions).size();
}

namespace {

/// Standard-library-style decode: clamped 8-bit YCbCr planes.
YccImage decode_clamped(const jpeg::CoefficientImage& img) {
  YccImage ycc = jpeg::inverse_transform(img);
  for (int c = 0; c < 3; ++c) {
    Plane<float>& p = ycc.component(c);
    for (int y = 0; y < p.height(); ++y)
      for (int x = 0; x < p.width(); ++x)
        p.at(x, y) = static_cast<float>(clamp_u8(p.at(x, y)));
  }
  return ycc;
}

}  // namespace

RgbImage recombine_after_pixel_transform(const Split& s,
                                         const transform::Step& step,
                                         int reencode_quality) {
  // Each part takes the standard-library path: clamped decode, pixel-domain
  // transform, then (optionally) a JPEG re-encode round trip.
  const auto standard_path = [&](const jpeg::CoefficientImage& part) {
    YccImage px = transform::apply(step, decode_clamped(part));
    if (reencode_quality > 0) {
      const Bytes again =
          jpeg::compress(ycc_to_rgb(px), reencode_quality);
      px = rgb_to_ycc(jpeg::decompress(again));
    }
    return px;
  };
  const YccImage pub = standard_path(s.public_part);
  const YccImage priv = standard_path(s.private_part);
  YccImage combined(pub.width(), pub.height());
  for (int c = 0; c < 3; ++c) {
    Plane<float>& out = combined.component(c);
    const Plane<float>& a = pub.component(c);
    const Plane<float>& b = priv.component(c);
    // Each clamped decode carries its own +128 level shift; the sum must
    // drop one of them.
    for (int y = 0; y < out.height(); ++y)
      for (int x = 0; x < out.width(); ++x)
        out.at(x, y) = a.at(x, y) + b.at(x, y) - 128.f;
  }
  return ycc_to_rgb(combined);
}

}  // namespace puppies::p3
