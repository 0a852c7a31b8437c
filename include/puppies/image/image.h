#pragma once

#include <cstdint>
#include <span>

#include "puppies/common/error.h"
#include "puppies/image/buffer.h"
#include "puppies/image/geometry.h"

namespace puppies {

/// Single-channel raster of T, row-major. The basic pixel container shared
/// by the whole library. Pixels live in an ImageBuffer, so constructing,
/// copying and filling a large plane runs on the exec pool.
template <typename T>
class Plane {
 public:
  Plane() = default;
  Plane(int width, int height, T fill = T{})
      : w_(width), h_(height), data_(area(width, height), fill) {}

  int width() const { return w_; }
  int height() const { return h_; }
  bool empty() const { return w_ == 0 || h_ == 0; }
  Rect bounds() const { return Rect{0, 0, w_, h_}; }

  T& at(int x, int y) { return data_[idx(x, y)]; }
  const T& at(int x, int y) const { return data_[idx(x, y)]; }

  /// Border-clamped read; safe for any (x, y). Used by filters/resamplers.
  T clamped_at(int x, int y) const {
    x = x < 0 ? 0 : (x >= w_ ? w_ - 1 : x);
    y = y < 0 ? 0 : (y >= h_ ? h_ - 1 : y);
    return data_[idx(x, y)];
  }

  std::span<T> row(int y) {
    return std::span<T>(data_.data() + static_cast<std::size_t>(y) * w_,
                        static_cast<std::size_t>(w_));
  }
  std::span<const T> row(int y) const {
    return std::span<const T>(data_.data() + static_cast<std::size_t>(y) * w_,
                              static_cast<std::size_t>(w_));
  }

  std::span<T> pixels() { return data_; }
  std::span<const T> pixels() const { return data_; }

  void fill(T v) { data_.fill(v); }

  bool operator==(const Plane&) const = default;

 private:
  static std::size_t area(int width, int height) {
    require(width >= 0 && height >= 0, "Plane dimensions must be >= 0");
    return static_cast<std::size_t>(width) * height;
  }
  std::size_t idx(int x, int y) const {
    return static_cast<std::size_t>(y) * w_ + x;
  }
  int w_ = 0;
  int h_ = 0;
  ImageBuffer<T> data_;
};

using GrayU8 = Plane<std::uint8_t>;
using GrayF = Plane<float>;

/// 8-bit RGB image as three full-resolution planes.
struct RgbImage {
  Plane<std::uint8_t> r, g, b;

  RgbImage() = default;
  RgbImage(int width, int height, std::uint8_t fill = 0)
      : r(width, height, fill), g(width, height, fill),
        b(width, height, fill) {}

  int width() const { return r.width(); }
  int height() const { return r.height(); }
  Rect bounds() const { return r.bounds(); }
  bool operator==(const RgbImage&) const = default;
};

/// Float YCbCr image (JFIF full-range convention, nominal ranges
/// Y in [0,255], Cb/Cr in [0,255] centered at 128). Float planes keep the
/// shadow-ROI reconstruction path linear (see DESIGN.md §5.3).
struct YccImage {
  Plane<float> y, cb, cr;

  YccImage() = default;
  YccImage(int width, int height)
      : y(width, height, 0.f), cb(width, height, 128.f),
        cr(width, height, 128.f) {}

  int width() const { return y.width(); }
  int height() const { return y.height(); }
  Rect bounds() const { return y.bounds(); }
  static constexpr int kComponents = 3;

  Plane<float>& component(int c) {
    require(c >= 0 && c < 3, "component index");
    return c == 0 ? y : (c == 1 ? cb : cr);
  }
  const Plane<float>& component(int c) const {
    return const_cast<YccImage*>(this)->component(c);
  }
};

/// RGB -> YCbCr (JFIF full range).
YccImage rgb_to_ycc(const RgbImage& rgb);
/// YCbCr -> RGB, clamped to [0,255].
RgbImage ycc_to_rgb(const YccImage& ycc);
/// One row of ycc_to_rgb into caller-owned width()-pixel buffers, without
/// materializing the whole RGB image. ycc_to_rgb() and the chunked encode
/// pipeline (jpeg/chunk.h) both run on this, so a row-streamed consumer
/// sees byte-identical pixels to the whole-image conversion.
void ycc_to_rgb_row_u8(const YccImage& ycc, int y, std::uint8_t* r,
                       std::uint8_t* g, std::uint8_t* b);
/// Luma-only grayscale view of an RGB image.
GrayU8 to_gray(const RgbImage& rgb);
/// Grayscale u8 -> float plane and back (clamping).
GrayF to_float(const GrayU8& g);
GrayU8 to_u8(const GrayF& g);

/// Clamps a float sample to [0,255] and rounds to nearest.
std::uint8_t clamp_u8(float v);

}  // namespace puppies
