#include "puppies/transform/transform.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <tuple>

#include "puppies/exec/parallel_for.h"
#include "puppies/jpeg/codec.h"
#include "puppies/jpeg/lossless.h"

namespace puppies::transform {

bool Step::lossless() const {
  switch (kind) {
    case Kind::kIdentity:
    case Kind::kCropAligned:
    case Kind::kRotate90:
    case Kind::kRotate180:
    case Kind::kRotate270:
    case Kind::kFlipH:
    case Kind::kFlipV:
      return true;
    default:
      return false;
  }
}

bool Step::linear() const {
  // Everything except requantization is linear in pixel values; requantize
  // rounds. (Crop/rotate/flip are linear as maps between pixel vectors.)
  return kind != Kind::kRecompress;
}

std::string Step::to_string() const {
  switch (kind) {
    case Kind::kIdentity:
      return "identity";
    case Kind::kScale:
      return "scale(" + std::to_string(arg0) + "x" + std::to_string(arg1) + ")";
    case Kind::kCropAligned:
      return "crop" + rect.to_string();
    case Kind::kRotate90:
      return "rotate90";
    case Kind::kRotate180:
      return "rotate180";
    case Kind::kRotate270:
      return "rotate270";
    case Kind::kFlipH:
      return "flip_h";
    case Kind::kFlipV:
      return "flip_v";
    case Kind::kFilter3x3:
      return "filter3x3";
    case Kind::kRecompress:
      return "recompress(q=" + std::to_string(arg0) + ")";
  }
  return "?";
}

Step identity() { return Step{}; }

Step scale(int new_w, int new_h) {
  require(new_w > 0 && new_h > 0, "scale target must be positive");
  Step s;
  s.kind = Kind::kScale;
  s.arg0 = new_w;
  s.arg1 = new_h;
  return s;
}

Step crop_aligned(const Rect& r) {
  require(r.x % 8 == 0 && r.y % 8 == 0 && r.w % 8 == 0 && r.h % 8 == 0,
          "crop rect must be 8-aligned");
  Step s;
  s.kind = Kind::kCropAligned;
  s.rect = r;
  return s;
}

Step rotate(int degrees_cw) {
  Step s;
  switch (degrees_cw) {
    case 90:
      s.kind = Kind::kRotate90;
      break;
    case 180:
      s.kind = Kind::kRotate180;
      break;
    case 270:
      s.kind = Kind::kRotate270;
      break;
    default:
      throw InvalidArgument("rotate supports 90/180/270 degrees");
  }
  return s;
}

Step flip_h() {
  Step s;
  s.kind = Kind::kFlipH;
  return s;
}

Step flip_v() {
  Step s;
  s.kind = Kind::kFlipV;
  return s;
}

Step filter3x3(const std::array<float, 9>& kernel) {
  Step s;
  s.kind = Kind::kFilter3x3;
  s.kernel = kernel;
  return s;
}

Step box_blur() {
  constexpr float k = 1.f / 9.f;
  return filter3x3({k, k, k, k, k, k, k, k, k});
}

Step sharpen() {
  return filter3x3({0, -1, 0, -1, 5, -1, 0, -1, 0});
}

Step recompress(int quality) {
  require(quality >= 1 && quality <= 100, "recompress quality");
  Step s;
  s.kind = Kind::kRecompress;
  s.arg0 = quality;
  return s;
}

namespace {

/// The D4 element of a rotation or flip step; nullopt for other kinds.
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
      return Dihedral{2, true};  // flip_v == rot180 . flip_h
    default:
      return std::nullopt;
  }
}

/// True iff `r` is a (possibly empty) rect inside a w x h image.
bool inside(const Rect& r, int w, int h) {
  return r.x >= 0 && r.y >= 0 && r.w >= 0 && r.h >= 0 && r.x <= w - r.w &&
         r.y <= h - r.h;
}

/// The bilinear taps of output coordinate `o` on an axis a scale takes from
/// n_in samples to n_out: both source samples, clamped to the axis, and the
/// weight of the second. The one formula of the scale kernel and its
/// footprint.
struct Taps {
  int a, b;
  float t;
};
Taps bilinear_taps(int o, int n_in, int n_out) {
  const float s = static_cast<float>(n_in) / n_out;
  const float f = (o + 0.5f) * s - 0.5f;
  const int i = static_cast<int>(std::floor(f));
  return {std::clamp(i, 0, n_in - 1), std::clamp(i + 1, 0, n_in - 1), f - i};
}

/// The window kernels below read a plane `in` that holds the pixels of the
/// rect `win` of a larger image, which is zero everywhere else, and write
/// the output pixels of the rect `out`. Taps are clamped to the whole image
/// exactly as a whole-plane kernel clamps them, so a window holding the
/// whole image is the whole-plane kernel, and a window around every nonzero
/// pixel yields that kernel's pixels in `out` bit for bit. Output rows are
/// independent; each writes only its own row.
struct WindowReader {
  const Plane<float>& in;
  const Rect& win;
  std::vector<float> zeros =
      std::vector<float>(static_cast<std::size_t>(win.w));

  /// Row `y` of the image, relative to the window's columns.
  const float* row(int y) const {
    y -= win.y;
    return y >= 0 && y < win.h ? in.row(y).data() : zeros.data();
  }
  /// Pixel `x` of a row(), zero outside the window.
  float at(const float* row, int x) const {
    x -= win.x;
    return x >= 0 && x < win.w ? row[x] : 0.f;
  }
};

/// Pixels `out` of the bilinear resize of a w x h plane to nw x nh.
Plane<float> scale_plane(const Plane<float>& in, const Rect& win, int w, int h,
                         int nw, int nh, const Rect& out) {
  require(w > 0 && h > 0, "scale of an empty image");
  Plane<float> res(out.w, out.h, 0.f);
  const WindowReader rd{in, win};
  std::vector<Taps> xs;
  for (int x = out.x; x < out.right(); ++x)
    xs.push_back(bilinear_taps(x, w, nw));
  exec::parallel_for(static_cast<std::size_t>(out.h), [&](std::size_t row) {
    const Taps ty = bilinear_taps(out.y + static_cast<int>(row), h, nh);
    const float* r0 = rd.row(ty.a);
    const float* r1 = rd.row(ty.b);
    const float wy = ty.t;
    float* dst = res.row(static_cast<int>(row)).data();
    for (int i = 0; i < out.w; ++i) {
      const Taps& tx = xs[static_cast<std::size_t>(i)];
      const float wx = tx.t;
      const float a = rd.at(r0, tx.a);
      const float b = rd.at(r0, tx.b);
      const float c = rd.at(r1, tx.a);
      const float d = rd.at(r1, tx.b);
      dst[i] = a * (1 - wx) * (1 - wy) + b * wx * (1 - wy) +
               c * (1 - wx) * wy + d * wx * wy;
    }
  });
  return res;
}

/// Pixels `out` of the 3x3 convolution of a w x h plane with `k`.
Plane<float> convolve_plane(const Plane<float>& in, const Rect& win, int w,
                            int h, const std::array<float, 9>& k,
                            const Rect& out) {
  Plane<float> res(out.w, out.h, 0.f);
  const WindowReader rd{in, win};
  exec::parallel_for(static_cast<std::size_t>(out.h), [&](std::size_t row) {
    const int y = out.y + static_cast<int>(row);
    const float* rows[3];
    for (int dy = -1; dy <= 1; ++dy)
      rows[dy + 1] = rd.row(std::clamp(y + dy, 0, h - 1));
    float* dst = res.row(static_cast<int>(row)).data();
    for (int i = 0; i < out.w; ++i) {
      const int x = out.x + i;
      float acc = 0;
      for (int dy = -1; dy <= 1; ++dy)
        for (int dx = -1; dx <= 1; ++dx)
          acc += k[static_cast<std::size_t>((dy + 1) * 3 + (dx + 1))] *
                 rd.at(rows[dy + 1], std::clamp(x + dx, 0, w - 1));
      dst[i] = acc;
    }
  });
  return res;
}

/// Pixels `out` of the pixel rect `source` moved through `d`: the plane twin
/// of jpeg::move_blocks, a pure gather over output rows. Every pixel `out`
/// reads must lie in the window.
Plane<float> gather_plane(const Plane<float>& in, const Rect& win,
                          const Rect& source, const Dihedral& d,
                          const Rect& out) {
  const auto [w, h] = d.output_size(source.w, source.h);
  const Dihedral inv = d.inverse();
  Plane<float> res(out.w, out.h, 0.f);
  if (out.empty()) return res;
  const Rect read = inv.map(out, w, h);
  require(win.contains(
              Rect{source.x + read.x, source.y + read.y, read.w, read.h}),
          "gather reads outside its window");
  exec::parallel_for(static_cast<std::size_t>(out.h), [&](std::size_t row) {
    const int y = out.y + static_cast<int>(row);
    // d^-1 is affine, so the row's source pixels are a fixed stride apart.
    const auto [x0, y0] = inv.map(out.x, y, w, h);
    const auto [x1, y1] = inv.map(out.x + 1, y, w, h);
    const int sx = source.x - win.x + x0;
    const int sy = source.y - win.y + y0;
    float* dst = res.row(static_cast<int>(row)).data();
    for (int x = 0; x < out.w; ++x)
      dst[x] = in.at(sx + x * (x1 - x0), sy + x * (y1 - y0));
  });
  return res;
}

YccImage per_plane(const YccImage& img, auto&& fn) {
  YccImage out;
  out.y = fn(img.y);
  out.cb = fn(img.cb);
  out.cr = fn(img.cr);
  return out;
}

}  // namespace

YccImage apply(const Step& step, const YccImage& img) {
  switch (step.kind) {
    case Kind::kIdentity:
      return img;
    case Kind::kRecompress: {
      // Pixel-domain stand-in for requantization: round trip through the
      // coefficient domain at the new quality.
      const jpeg::CoefficientImage c = jpeg::forward_transform(img, step.arg0);
      return jpeg::inverse_transform(c);
    }
    default: {
      const auto [w, h] = map_size(step, img.width(), img.height());
      return apply(step, img, img.bounds(), Rect{0, 0, w, h}, img.width(),
                   img.height());
    }
  }
}

YccImage apply(const Step& step, const YccImage& in, const Rect& window,
               const Rect& out, int w, int h) {
  require(step.kind != Kind::kRecompress,
          "recompress has no window form: it reads whole blocks");
  const auto [ow, oh] = map_size(step, w, h);
  require(in.width() == window.w && in.height() == window.h &&
              inside(window, w, h),
          "window outside the image");
  require(inside(out, ow, oh), "output rect outside the step's output");
  const Rect image{0, 0, w, h};
  switch (step.kind) {
    case Kind::kScale:
      return per_plane(in, [&](const Plane<float>& p) {
        return scale_plane(p, window, w, h, ow, oh, out);
      });
    case Kind::kFilter3x3:
      return per_plane(in, [&](const Plane<float>& p) {
        return convolve_plane(p, window, w, h, step.kernel, out);
      });
    case Kind::kCropAligned:
      require(image.contains(step.rect), "crop rect outside image");
      return per_plane(in, [&](const Plane<float>& p) {
        return gather_plane(p, window, step.rect, Dihedral{}, out);
      });
    default: {
      const Dihedral d = dihedral_of(step.kind).value_or(Dihedral{});
      return per_plane(in, [&](const Plane<float>& p) {
        return gather_plane(p, window, image, d, out);
      });
    }
  }
}

Rect footprint(const Step& step, const Rect& r, int w, int h) {
  switch (step.kind) {
    case Kind::kScale: {
      require(w > 0 && h > 0, "scale of an empty image");
      const auto [nw, nh] = map_size(step, w, h);
      // The outputs whose taps reach [r0, r1): taps are monotonic, so they
      // are one run.
      const auto reach = [](int n_in, int n_out, int r0, int r1) {
        int lo = 0;
        while (lo < n_out && bilinear_taps(lo, n_in, n_out).b < r0) ++lo;
        int hi = n_out;
        while (hi > lo && bilinear_taps(hi - 1, n_in, n_out).a >= r1) --hi;
        return std::pair{lo, hi};
      };
      const auto [x0, x1] = reach(w, nw, r.x, r.right());
      const auto [y0, y1] = reach(h, nh, r.y, r.bottom());
      return Rect{x0, y0, x1 - x0, y1 - y0};
    }
    case Kind::kFilter3x3:
      return Rect::intersect(Rect{r.x - 1, r.y - 1, r.w + 2, r.h + 2},
                             Rect{0, 0, w, h});
    default:
      return map_rect(step, r, w, h);
  }
}

YccImage apply(const Chain& chain, YccImage img) {
  for (const Step& s : chain) img = apply(s, img);
  return img;
}

LosslessMap fold_lossless(const Chain& chain, int w, int h,
                          bool subsampled) {
  LosslessMap m{Rect{0, 0, w, h}, Dihedral{}};
  for (const Step& s : chain) {
    if (s.kind == Kind::kIdentity) continue;  // no blocks move
    require(s.lossless(),
            "transform step is not lossless: " + s.to_string());
    require(!subsampled,
            "lossless coefficient transforms require 4:4:4 (transcode "
            "subsampled images through the pixel path)");
    const auto [cw, ch] = m.d.output_size(m.source.w, m.source.h);
    if (s.kind == Kind::kCropAligned) {
      const Rect& r = s.rect;
      // Written so that no sum of a hostile chain's fields can overflow.
      require(r.x >= 0 && r.y >= 0 && r.w > 0 && r.h > 0 &&
                  r.x <= cw - r.w && r.y <= ch - r.h,
              "crop rect outside image");
      require(r.x % 8 == 0 && r.y % 8 == 0 && r.w % 8 == 0 && r.h % 8 == 0,
              "pixel rect must be 8x8-block aligned");
      // crop . D == D . crop': pull the rect back into source coordinates.
      const Rect back = m.d.inverse().map(r, cw, ch);
      m.source = Rect{m.source.x + back.x, m.source.y + back.y, back.w, back.h};
    } else {
      require(cw % 8 == 0 && ch % 8 == 0,
              "lossless flip/rotate requires multiple-of-8 dimensions");
      m.d = m.d.then(*dihedral_of(s.kind));
    }
  }
  return m;
}

jpeg::CoefficientImage apply_lossless(const Chain& chain,
                                      const jpeg::CoefficientImage& img) {
  const LosslessMap m =
      fold_lossless(chain, img.width(), img.height(), img.subsampled());
  if (m.source == img.bounds() && m.d.identity()) return img;
  const auto [w, h] = m.d.output_size(m.source.w, m.source.h);
  jpeg::CoefficientImage out = jpeg::blank_like(img, w, h, m.d);
  jpeg::move_blocks(img, m.source, m.d, out, 0, 0);
  return out;
}

std::pair<int, int> map_size(const Step& step, int w, int h) {
  std::pair<int, int> out{w, h};
  switch (step.kind) {
    case Kind::kScale:
      require(step.arg0 > 0 && step.arg1 > 0, "scale target must be positive");
      out = {step.arg0, step.arg1};
      break;
    case Kind::kCropAligned:
      out = {step.rect.w, step.rect.h};
      break;
    default:
      if (const auto d = dihedral_of(step.kind)) out = d->output_size(w, h);
      break;
  }
  // The decoder's pixel bound: a chain from an untrusted peer must not size
  // an image the parser would refuse.
  const long long pixels = static_cast<long long>(out.first) * out.second;
  require(pixels <= 0 || static_cast<unsigned long long>(pixels) <=
                             jpeg::max_decode_pixels(),
          "transform output " + std::to_string(out.first) + "x" +
              std::to_string(out.second) + " exceeds the decode limit");
  return out;
}

std::pair<int, int> map_size(const Chain& chain, int w, int h) {
  for (const Step& s : chain) std::tie(w, h) = map_size(s, w, h);
  return {w, h};
}

Rect map_rect(const Step& step, const Rect& r, int w, int h) {
  switch (step.kind) {
    case Kind::kScale: {
      const double sx = static_cast<double>(step.arg0) / w;
      const double sy = static_cast<double>(step.arg1) / h;
      const int x0 = static_cast<int>(std::floor(r.x * sx));
      const int y0 = static_cast<int>(std::floor(r.y * sy));
      const int x1 = static_cast<int>(std::ceil(r.right() * sx));
      const int y1 = static_cast<int>(std::ceil(r.bottom() * sy));
      return Rect{x0, y0, x1 - x0, y1 - y0};
    }
    case Kind::kCropAligned: {
      const Rect inter = Rect::intersect(r, step.rect);
      return Rect{inter.x - step.rect.x, inter.y - step.rect.y, inter.w,
                  inter.h};
    }
    default:
      if (const auto d = dihedral_of(step.kind)) return d->map(r, w, h);
      return r;
  }
}

Rect map_rect(const Chain& chain, Rect r, int w, int h) {
  for (const Step& s : chain) {
    r = map_rect(s, r, w, h);
    std::tie(w, h) = map_size(s, w, h);
  }
  return r;
}

namespace {

// Fixed-point kernel storage (1e-6 resolution) keeps the format
// platform-independent.
std::int32_t tap_to_micros(float k) {
  return static_cast<std::int32_t>(std::lround(k * 1e6));
}

float tap_from_micros(std::int32_t micros) {
  return static_cast<float>(micros) * 1e-6f;
}

}  // namespace

void write_chain(ByteWriter& out, const Chain& chain) {
  out.u32(static_cast<std::uint32_t>(chain.size()));
  for (const Step& s : chain) {
    out.u8(static_cast<std::uint8_t>(s.kind));
    out.i32(s.arg0);
    out.i32(s.arg1);
    out.i32(s.rect.x);
    out.i32(s.rect.y);
    out.i32(s.rect.w);
    out.i32(s.rect.h);
    for (float k : s.kernel) out.i32(tap_to_micros(k));
  }
}

Chain read_chain(ByteReader& in) {
  // Wire size of one step: kind byte, six i32 fields, nine i32 kernel taps.
  const std::uint32_t n = in.count(1 + 6 * 4 + 9 * 4);
  Chain chain;
  chain.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Step s;
    const std::uint8_t kind = in.u8();
    if (kind > static_cast<std::uint8_t>(Kind::kRecompress))
      throw ParseError("unknown transform kind");
    s.kind = static_cast<Kind>(kind);
    s.arg0 = in.i32();
    s.arg1 = in.i32();
    s.rect.x = in.i32();
    s.rect.y = in.i32();
    s.rect.w = in.i32();
    s.rect.h = in.i32();
    for (float& k : s.kernel) {
      k = tap_from_micros(in.i32());
      // Every tap within [-8, 8] re-encodes to the same float. Past about
      // 9.2 some decode to a float that writes back as another, and the
      // chain the PSP publishes would differ from the one it applied.
      if (tap_from_micros(tap_to_micros(k)) != k)
        throw ParseError("filter tap does not survive re-encoding");
    }
    chain.push_back(s);
  }
  return chain;
}

namespace {

/// Zeroes the fields `kind` does not read, so hand-built steps with stray
/// values in unused fields key the cache identically to factory-built ones.
Step normalized(const Step& s) {
  Step out;
  out.kind = s.kind;
  switch (s.kind) {
    case Kind::kScale:
      out.arg0 = s.arg0;
      out.arg1 = s.arg1;
      break;
    case Kind::kCropAligned:
      out.rect = s.rect;
      break;
    case Kind::kFilter3x3:
      out.kernel = s.kernel;
      break;
    case Kind::kRecompress:
      out.arg0 = s.arg0;
      break;
    default:  // identity / rotations / flips carry no parameters
      break;
  }
  return out;
}

}  // namespace

Chain canonicalize(const Chain& chain) {
  Chain out;
  // The current run of rotations/flips, folded into one D4 element. Both
  // reductions are exact: each operation is a pure permutation of pixels
  // (and, in the coefficient domain, of blocks with fixed sign patterns
  // that obey the same group law).
  Dihedral run;
  bool in_run = false;
  const auto emit_run = [&] {
    if (!in_run) return;
    if (run.flipped) out.push_back(flip_h());
    if (run.quarter_turns != 0) out.push_back(rotate(run.quarter_turns * 90));
    run = Dihedral{};
    in_run = false;
  };
  for (const Step& s : chain) {
    if (s.kind == Kind::kIdentity) continue;
    if (const auto d = dihedral_of(s.kind)) {
      run = run.then(*d);
      in_run = true;
      continue;
    }
    emit_run();
    out.push_back(normalized(s));
  }
  emit_run();
  return out;
}

}  // namespace puppies::transform
