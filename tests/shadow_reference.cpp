#include "shadow_reference.h"

#include <cmath>
#include <cstring>
#include <optional>

#include "puppies/core/perturb.h"
#include "puppies/exec/parallel_for.h"
#include "puppies/jpeg/codec.h"

namespace puppies::transform::reference {

namespace {

Plane<float> scale_plane(const Plane<float>& in, int nw, int nh) {
  Plane<float> out(nw, nh, 0.f);
  const float sx = static_cast<float>(in.width()) / nw;
  const float sy = static_cast<float>(in.height()) / nh;
  exec::parallel_for(static_cast<std::size_t>(nh), [&](std::size_t row) {
    const int y = static_cast<int>(row);
    const float fy = (y + 0.5f) * sy - 0.5f;
    const int y0 = static_cast<int>(std::floor(fy));
    const float wy = fy - y0;
    for (int x = 0; x < nw; ++x) {
      const float fx = (x + 0.5f) * sx - 0.5f;
      const int x0 = static_cast<int>(std::floor(fx));
      const float wx = fx - x0;
      const float a = in.clamped_at(x0, y0);
      const float b = in.clamped_at(x0 + 1, y0);
      const float c = in.clamped_at(x0, y0 + 1);
      const float d = in.clamped_at(x0 + 1, y0 + 1);
      out.at(x, y) =
          a * (1 - wx) * (1 - wy) + b * wx * (1 - wy) + c * (1 - wx) * wy +
          d * wx * wy;
    }
  });
  return out;
}

Plane<float> gather_plane(const Plane<float>& in, const Rect& source,
                          const Dihedral& d) {
  const auto [w, h] = d.output_size(source.w, source.h);
  Plane<float> out(w, h, 0.f);
  const Dihedral inv = d.inverse();
  exec::parallel_for(static_cast<std::size_t>(h), [&](std::size_t row) {
    const int y = static_cast<int>(row);
    const auto [x0, y0] = inv.map(0, y, w, h);
    const auto [x1, y1] = inv.map(1, y, w, h);
    for (int x = 0; x < w; ++x)
      out.at(x, y) = in.at(source.x + x0 + x * (x1 - x0),
                           source.y + y0 + x * (y1 - y0));
  });
  return out;
}

std::optional<Dihedral> dihedral_of(Kind k) {
  switch (k) {
    case Kind::kRotate90:
      return Dihedral{1, false};
    case Kind::kRotate180:
      return Dihedral{2, false};
    case Kind::kRotate270:
      return Dihedral{3, false};
    case Kind::kFlipH:
      return Dihedral{0, true};
    case Kind::kFlipV:
      return Dihedral{2, true};
    default:
      return std::nullopt;
  }
}

Plane<float> convolve_plane(const Plane<float>& in,
                            const std::array<float, 9>& k) {
  Plane<float> out(in.width(), in.height(), 0.f);
  exec::parallel_for_2d(in.height(), in.width(), [&](int y, int x) {
    float acc = 0;
    for (int dy = -1; dy <= 1; ++dy)
      for (int dx = -1; dx <= 1; ++dx)
        acc += k[static_cast<std::size_t>((dy + 1) * 3 + (dx + 1))] *
               in.clamped_at(x + dx, y + dy);
    out.at(x, y) = acc;
  });
  return out;
}

YccImage per_plane(const YccImage& img, auto&& fn) {
  YccImage out;
  out.y = fn(img.y);
  out.cb = fn(img.cb);
  out.cr = fn(img.cr);
  return out;
}

}  // namespace

YccImage apply_step(const Step& step, const YccImage& img) {
  switch (step.kind) {
    case Kind::kScale:
      require(step.arg0 > 0 && step.arg1 > 0, "scale target must be positive");
      return per_plane(img, [&](const Plane<float>& p) {
        return scale_plane(p, step.arg0, step.arg1);
      });
    case Kind::kCropAligned:
      require(img.bounds().contains(step.rect), "crop rect outside image");
      return per_plane(img, [&](const Plane<float>& p) {
        return gather_plane(p, step.rect, Dihedral{});
      });
    case Kind::kFilter3x3:
      return per_plane(img, [&](const Plane<float>& p) {
        return convolve_plane(p, step.kernel);
      });
    default:
      if (const auto d = dihedral_of(step.kind))
        return per_plane(img, [&](const Plane<float>& p) {
          return gather_plane(p, p.bounds(), *d);
        });
      return transform::apply(step, img);
  }
}

bool same_bits(const YccImage& a, const YccImage& b) {
  if (a.width() != b.width() || a.height() != b.height()) return false;
  for (int c = 0; c < 3; ++c) {
    const auto pa = a.component(c).pixels();
    const auto pb = b.component(c).pixels();
    if (!pa.empty() &&
        std::memcmp(pa.data(), pb.data(), pa.size_bytes()) != 0)
      return false;
  }
  return true;
}

}  // namespace puppies::transform::reference

namespace puppies::core::reference {

YccImage build_shadow(const PublicParameters& params, const KeyRing& keys) {
  std::vector<DeltaRoi> deltas;
  for (const ProtectedRoi& roi : params.rois) {
    const std::optional<MatrixSet> set =
        keys.find_set(roi.matrix_id, roi.matrix_count);
    if (!set.has_value()) continue;
    require(roi.scheme != Scheme::kZero,
            "pixel-domain recovery of a PuPPIeS-Z ROI is not possible");
    deltas.push_back(DeltaRoi{roi.rect, *set, roi.scheme, roi.params,
                              &roi.wind});
  }
  const jpeg::CoefficientImage delta_img = build_delta_image(
      jpeg::CoefficientImage(params.width, params.height, params.components,
                             params.luma_qtable, params.chroma_qtable,
                             params.chroma),
      deltas);
  YccImage shadow = jpeg::inverse_transform(delta_img);
  // inverse_transform applies the +128 level shift; a shadow is a pure
  // difference signal centred at 0.
  for (int c = 0; c < 3; ++c)
    for (float& v : shadow.component(c).pixels()) v -= 128.f;
  return shadow;
}

YccImage recover_pixels(const YccImage& transformed,
                        const PublicParameters& params,
                        const transform::Chain& chain, const KeyRing& keys) {
  require(std::pair{transformed.width(), transformed.height()} ==
              transform::map_size(chain, params.width, params.height),
          "transform chain does not match the downloaded image size");
  YccImage shadow = build_shadow(params, keys);
  for (const transform::Step& s : chain) {
    if (s.kind == transform::Kind::kRecompress) continue;
    shadow = transform::reference::apply_step(s, shadow);
  }
  YccImage out = transformed;
  for (int c = 0; c < 3; ++c) {
    Plane<float>& plane = out.component(c);
    const Plane<float>& s = shadow.component(c);
    for (int y = 0; y < plane.height(); ++y)
      for (int x = 0; x < plane.width(); ++x) plane.at(x, y) -= s.at(x, y);
  }
  return out;
}

}  // namespace puppies::core::reference
