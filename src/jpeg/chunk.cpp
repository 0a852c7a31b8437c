#include "puppies/jpeg/chunk.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "puppies/exec/parallel_for.h"
#include "puppies/jpeg/dct.h"
#include "puppies/jpeg/quant.h"
#include "puppies/kernels/kernels.h"

namespace puppies::jpeg {

namespace {

constexpr int kMaxBandMcuRows = 16;

int ceil_div(int a, int b) { return (a + b - 1) / b; }

/// Bounded-allocation gate of both directions: past this check the engine
/// only allocates the output image plus per-lane band scratch.
void require_pixel_limit(int width, int height, const char* direction) {
  const std::uint64_t pixels =
      static_cast<std::uint64_t>(width) * static_cast<std::uint64_t>(height);
  require(pixels <= max_decode_pixels(),
          "image " + std::to_string(width) + "x" + std::to_string(height) +
              " exceeds the " + direction + " limit of " +
              std::to_string(max_decode_pixels()) +
              " pixels (PUPPIES_MAX_PIXELS)");
}

/// Pixel rows per MCU row of an encode in `mode`.
int mcu_px_of(ChromaMode mode) { return mode == ChromaMode::k420 ? 16 : 8; }

/// The encode-side gate, ahead of any allocation.
void require_encodable(int width, int height) {
  require(width > 0 && height > 0, "encode dimensions");
  require_pixel_limit(width, height, "encode");
}

/// The band schedule of one call (DESIGN.md §11). `units` rows (MCU rows;
/// for a transcode, rows of the coarser MCU) are cut into equal bands of at
/// most the ChunkOptions cap, sized so every lane gets the same number of
/// bands; band b runs on lane b % lanes. One parallel region per call, and
/// a lane walks its bands in order in its own scratch.
class BandPlan {
 public:
  BandPlan(int units, const ChunkOptions& copt) : units_(units) {
    const int cap = copt.mcu_rows > 0 ? copt.mcu_rows : kMaxBandMcuRows;
    const int lanes = std::clamp(exec::thread_count(), 1, units);
    const int waves = ceil_div(units, lanes * cap);
    band_ = ceil_div(units, lanes * waves);
    bands_ = ceil_div(units, band_);
    lanes_ = std::min(lanes, bands_);
  }

  int band() const { return band_; }
  /// Unit range [first, second) of band b.
  std::pair<int, int> units_of(int b) const {
    return {b * band_, std::min(units_, (b + 1) * band_)};
  }

  /// One make() per lane, built by the calling thread. Callers build it
  /// before their output image: the short-lived scratch then sits below the
  /// long-lived output in the caller's malloc arena, and once freed leaves
  /// holes that the call's later small allocations reuse, instead of those
  /// landing above the output and keeping its memory resident after it is
  /// freed (DESIGN.md §11).
  template <typename Make>
  auto scratch(Make&& make) const {
    std::vector<decltype(make())> lanes;
    for (int l = 0; l < lanes_; ++l) lanes.push_back(make());
    return lanes;
  }

  /// Runs fn(scratch[lane], u0, u1) for every band.
  template <typename Scratch, typename Fn>
  void run(std::vector<Scratch>& scratch, Fn&& fn) const {
    exec::parallel_for(static_cast<std::size_t>(lanes_), [&](std::size_t l) {
      for (int b = static_cast<int>(l); b < bands_; b += lanes_) {
        const auto [u0, u1] = units_of(b);
        fn(scratch[l], u0, u1);
      }
    });
  }

  /// Fills `stats`, if given, for lanes of `lane_bytes` scratch each.
  void report(ChunkStats* stats, std::size_t lane_bytes) const {
    if (!stats) return;
    stats->peak_chunk_bytes = lane_bytes;
    stats->chunks = bands_;
    stats->chunk_mcu_rows = band_;
    stats->lanes = lanes_;
  }

 private:
  int units_ = 0;
  int band_ = 0;
  int bands_ = 0;
  int lanes_ = 0;
};

/// Full-resolution YCbCr row pointers a forward source hands out.
struct YccRow {
  const float* y;
  const float* cb;
  const float* cr;
};

/// Forward half of the engine: color convert -> chroma decimate ->
/// fdct8x8/quantize_scan, one MCU row at a time. Every block sees exactly
/// the samples the whole-plane encoder read (the row pointers past the
/// bottom edge repeat the last row, the column index clamps at the right
/// edge, as Plane::clamped_at does), so the output is bit-identical to it.
class Encoder {
 public:
  /// Per-lane scratch: one MCU row of converted YCbCr and one u8 RGB row
  /// (sources that convert), plus the decimated chroma rows (4:2:0).
  struct Scratch {
    Scratch(int width, ChromaMode mode, bool converts) {
      const std::size_t w = static_cast<std::size_t>(width);
      if (converts) {
        ycc.resize(3 * w * static_cast<std::size_t>(mcu_px_of(mode)));
        rgb.resize(3 * w);
      }
      if (mode == ChromaMode::k420) chroma.resize(2 * 8 * ((w + 1) / 2));
    }
    std::size_t bytes() const {
      return (ycc.size() + chroma.size()) * sizeof(float) + rgb.size();
    }

    std::vector<float> ycc;
    std::vector<std::uint8_t> rgb;
    std::vector<float> chroma;
  };

  Encoder(int width, int height, int quality, ChromaMode mode,
          ScanIndex* scan)
      : out_(width, height, 3, luma_quant_table(quality),
             chroma_quant_table(quality), mode),
        scan_(scan),
        k_(kernels::active()),
        mcu_px_(mcu_px_of(mode)),
        sub_(mode == ChromaMode::k420),
        cw_((width + 1) / 2),
        ch_((height + 1) / 2) {
    qc_[0] = quant_constants(out_.qtable_for(0));
    qc_[1] = quant_constants(out_.qtable_for(1));
    if (scan) {
      scan->masks.resize(3);
      for (int c = 0; c < 3; ++c)
        scan->masks[static_cast<std::size_t>(c)].assign(
            out_.component(c).blocks.size(), 0);
    }
  }

  int mcu_px() const { return mcu_px_; }

  /// Encodes MCU rows [m0, m1). source(y, ycc_dst, rgb_dst) returns image
  /// row y, either pointing into longer-lived storage or converted into the
  /// three ycc_dst rows (rgb_dst is a one-row u8 scratch it may use).
  template <typename Source>
  void encode(int m0, int m1, Scratch& s, Source&& source) {
    const std::size_t w = static_cast<std::size_t>(out_.width());
    for (int m = m0; m < m1; ++m) {
      const int y0 = m * mcu_px_;
      const int n = std::min(mcu_px_, out_.height() - y0);
      const float* rows[3][16];
      for (int i = 0; i < mcu_px_; ++i) {
        if (i >= n) {
          for (int c = 0; c < 3; ++c) rows[c][i] = rows[c][n - 1];
          continue;
        }
        float* dst[3] = {nullptr, nullptr, nullptr};
        std::uint8_t* rgb[3] = {nullptr, nullptr, nullptr};
        if (!s.ycc.empty())
          for (int c = 0; c < 3; ++c) {
            dst[c] = s.ycc.data() +
                     (static_cast<std::size_t>(c) * mcu_px_ + i) * w;
            rgb[c] = s.rgb.data() + static_cast<std::size_t>(c) * w;
          }
        const YccRow r = source(y0 + i, dst, rgb);
        rows[0][i] = r.y;
        rows[1][i] = r.cb;
        rows[2][i] = r.cr;
      }
      const int w_px = out_.width();
      encode_block_row(0, m * out_.component(0).v, rows[0], w_px);
      if (!sub_) {
        encode_block_row(1, m, rows[1], w_px);
        encode_block_row(2, m, rows[2], w_px);
        continue;
      }
      encode_block_row(0, 2 * m + 1, rows[0] + 8, w_px);
      // 4:2:0: chroma row 8m + j averages image rows 2j and 2j + 1 of this
      // MCU row (the clamped pointers reproduce the whole-plane odd-height
      // tail); rows past the chroma plane repeat its last row.
      for (int c = 1; c < 3; ++c) {
        const float* crow[8];
        for (int j = 0; j < 8; ++j) {
          if (8 * m + j >= ch_) {
            crow[j] = crow[j - 1];
            continue;
          }
          float* d = s.chroma.data() +
                     (static_cast<std::size_t>(c - 1) * 8 + j) * cw_;
          k_.downsample2x_row(rows[c][2 * j], rows[c][2 * j + 1], w_px, cw_,
                              d);
          crow[j] = d;
        }
        encode_block_row(c, m, crow, cw_);
      }
    }
  }

  CoefficientImage take() { return std::move(out_); }

 private:
  /// DCT + quantize block row `by` of component c from its eight plane
  /// rows; each block writes its own coefficient and mask slot.
  void encode_block_row(int c, int by, const float* const* rows,
                        int plane_w) {
    Component& comp = out_.component(c);
    const kernels::QuantConstants& qc = qc_[c == 0 ? 0 : 1];
    std::uint64_t* masks =
        scan_ ? scan_->masks[static_cast<std::size_t>(c)].data() +
                    static_cast<std::size_t>(by) * comp.blocks_w
              : nullptr;
    FloatBlock samples, coeffs;
    for (int bx = 0; bx < comp.blocks_w; ++bx) {
      const int x0 = bx * 8;
      if (x0 + 8 <= plane_w) {
        for (int y = 0; y < 8; ++y)
          for (int x = 0; x < 8; ++x)
            samples[y * 8 + x] = rows[y][x0 + x] - 128.f;
      } else {
        for (int y = 0; y < 8; ++y)
          for (int x = 0; x < 8; ++x)
            samples[y * 8 + x] = rows[y][std::min(x0 + x, plane_w - 1)] - 128.f;
      }
      k_.fdct8x8(samples.data(), coeffs.data());
      const std::uint64_t m =
          k_.quantize_scan(coeffs.data(), qc, comp.block(bx, by).data());
      if (masks) masks[bx] = m;
    }
  }

  CoefficientImage out_;
  ScanIndex* scan_;
  const kernels::KernelTable& k_;
  kernels::QuantConstants qc_[2];
  int mcu_px_;
  bool sub_;
  int cw_, ch_;
};

/// Encodes a width x height image whose rows come from `source` (see
/// Encoder::encode; `converts` says whether it writes the scratch rows).
template <typename Source>
CoefficientImage encode_image(int width, int height, int quality,
                              ChromaMode mode, const ChunkOptions& copt,
                              ScanIndex* scan, ChunkStats* stats,
                              bool converts, Source&& source) {
  require_encodable(width, height);
  const BandPlan plan(ceil_div(height, mcu_px_of(mode)), copt);
  auto scratch = plan.scratch(
      [&] { return Encoder::Scratch(width, mode, converts); });
  plan.report(stats, scratch.front().bytes());
  Encoder enc(width, height, quality, mode, scan);
  plan.run(scratch, [&](Encoder::Scratch& s, int m0, int m1) {
    enc.encode(m0, m1, s, source);
  });
  return enc.take();
}

/// Inverse half of the engine: dequantize_idct -> chroma upsample ->
/// (optionally) color convert, one MCU row at a time. Every kernel sees the
/// values the whole-plane decoder computed — the same block samples, the
/// same upsample taps (a 4:2:0 band first decodes the chroma block rows its
/// taps read, including one halo row past each edge) — so YCbCr and RGB
/// rows are bit-identical to it.
class Decoder {
 public:
  /// Per-lane scratch: one MCU row of YCbCr (RGB targets), the band's
  /// decoded chroma rows (4:2:0), and a band of u8 RGB rows (band targets).
  struct Scratch {
    std::vector<float> ycc;
    std::vector<float> chroma;
    std::vector<std::uint8_t> rgb;
    int band_rows = 0;  ///< rows `rgb` holds
    int ccap = 0;       ///< rows per plane `chroma` holds
    int cbase = 0;      ///< first chroma row resident in `chroma`

    std::size_t bytes() const {
      return (ycc.size() + chroma.size()) * sizeof(float) + rgb.size();
    }
  };

  explicit Decoder(const CoefficientImage& coeffs)
      : coeffs_(coeffs),
        k_(kernels::active()),
        w_(coeffs.width()),
        h_(coeffs.height()),
        mcu_px_(8 * coeffs.v_max()) {
    require(coeffs.component_count() == 3,
            "inverse transform expects a 3-component image");
    require_pixel_limit(w_, h_, "decode");
    for (int c = 0; c < 3; ++c)
      qc_[c] = quant_constants(coeffs.qtable_for(c));
    const Component& chroma = coeffs.component(1);
    cw_ = (w_ * chroma.h + coeffs.h_max() - 1) / coeffs.h_max();
    ch_ = (h_ * chroma.v + coeffs.v_max() - 1) / coeffs.v_max();
    sub_ = cw_ != w_ || ch_ != h_;
    sx_ = static_cast<float>(cw_) / w_;
    sy_ = static_cast<float>(ch_) / h_;
  }

  int mcu_px() const { return mcu_px_; }
  int mcu_rows() const { return coeffs_.mcu_rows(); }
  /// Image rows [first, second) of MCU rows [m0, m1).
  std::pair<int, int> rows(int m0, int m1) const {
    return {m0 * mcu_px_, std::min(h_, m1 * mcu_px_)};
  }

  /// Scratch for bands of up to `band_rows` pixel rows; `to_rgb` adds the
  /// YCbCr MCU row, `rgb_band` the u8 band rows.
  Scratch scratch(int band_rows, bool to_rgb, bool rgb_band) const {
    Scratch s;
    const std::size_t w = static_cast<std::size_t>(w_);
    if (to_rgb) s.ycc.resize(3 * w * static_cast<std::size_t>(mcu_px_));
    if (sub_) {
      // A band of N rows reads at most N/2 + 1 chroma rows (the taps are
      // monotonic in y), padded to whole blocks with a halo row each side.
      s.ccap = std::min((band_rows + 1) / 2 + 24, ch_);
      s.chroma.resize(2 * static_cast<std::size_t>(cw_) * s.ccap);
    }
    if (rgb_band) {
      s.band_rows = band_rows;
      s.rgb.resize(3 * w * static_cast<std::size_t>(band_rows));
    }
    return s;
  }

  /// Decodes MCU rows [m0, m1) straight into `out` (unclamped floats).
  void decode_ycc(int m0, int m1, Scratch& s, YccImage& out) const {
    decode(
        m0, m1, s,
        [&out](int c, int y) { return out.component(c).row(y).data(); },
        [](int, const float*, const float*, const float*) {});
  }

  /// Decodes MCU rows [m0, m1) to clamped RGB; dst(y) names the three u8
  /// rows that receive image row y.
  template <typename Dst>
  void decode_rgb(int m0, int m1, Scratch& s, Dst&& dst) const {
    const std::size_t w = static_cast<std::size_t>(w_);
    decode(
        m0, m1, s,
        [&](int c, int y) {
          return s.ycc.data() +
                 (static_cast<std::size_t>(c) * mcu_px_ + y % mcu_px_) * w;
        },
        [&](int y, const float* Y, const float* cb, const float* cr) {
          const auto [r, g, b] = dst(y);
          k_.ycc_to_rgb_row(Y, cb, cr, w_, r, g, b);
        });
  }

  /// decode_rgb into the scratch's band rows: image row y lands at
  /// band_row(s, c, y - y0), y0 the first row of MCU row m0.
  void decode_band(int m0, int m1, Scratch& s) const {
    const int y0 = m0 * mcu_px_;
    decode_rgb(m0, m1, s, [&](int y) {
      return std::array<std::uint8_t*, 3>{band_row(s, 0, y - y0),
                                          band_row(s, 1, y - y0),
                                          band_row(s, 2, y - y0)};
    });
  }
  std::uint8_t* band_row(Scratch& s, int c, int i) const {
    return s.rgb.data() +
           (static_cast<std::size_t>(c) * s.band_rows + i) * w_;
  }

 private:
  template <typename Target, typename Emit>
  void decode(int m0, int m1, Scratch& s, Target&& target, Emit&& emit) const {
    const auto [y0, y1] = rows(m0, m1);
    if (sub_) decode_chroma(y0, y1, s);
    for (int my = y0; my < y1; my += mcu_px_) {
      const int my1 = std::min(y1, my + mcu_px_);
      idct_rows(0, my, my1, w_, [&](int y) { return target(0, y); });
      if (!sub_) {
        idct_rows(1, my, my1, w_, [&](int y) { return target(1, y); });
        idct_rows(2, my, my1, w_, [&](int y) { return target(2, y); });
      } else {
        for (int y = my; y < my1; ++y)
          upsample(s, y, target(1, y), target(2, y));
      }
      for (int y = my; y < my1; ++y)
        emit(y, target(0, y), target(1, y), target(2, y));
    }
  }

  /// Dequantize + IDCT the block rows of component c covering plane rows
  /// [r0, r1) (r0 block-aligned), writing sample + 128 into dst(row),
  /// columns clipped to plane_w — deposit_block's values exactly.
  template <typename Dst>
  void idct_rows(int c, int r0, int r1, int plane_w, Dst&& dst) const {
    const Component& comp = coeffs_.component(c);
    FloatBlock samples;
    for (int by = r0 / 8; by * 8 < r1; ++by) {
      const int n = std::min(8, r1 - by * 8);
      float* rows[8];
      for (int i = 0; i < n; ++i) rows[i] = dst(by * 8 + i);
      for (int bx = 0; bx < comp.blocks_w; ++bx) {
        k_.dequantize_idct(comp.block(bx, by).data(), qc_[c], samples.data());
        const int x0 = bx * 8;
        const int xe = std::min(8, plane_w - x0);
        if (n == 8 && xe == 8) {
          for (int i = 0; i < 8; ++i)
            for (int x = 0; x < 8; ++x)
              rows[i][x0 + x] = samples[i * 8 + x] + 128.f;
          continue;
        }
        for (int i = 0; i < n; ++i)
          for (int x = 0; x < xe; ++x)
            rows[i][x0 + x] = samples[i * 8 + x] + 128.f;
      }
    }
  }

  int clamp_chroma_row(int t) const {
    return t < 0 ? 0 : (t > ch_ - 1 ? ch_ - 1 : t);
  }
  /// Vertical chroma position of output row y (upsample_to's).
  float chroma_y(int y) const { return (y + 0.5f) * sy_ - 0.5f; }
  int chroma_tap(int y) const {
    return static_cast<int>(std::floor(chroma_y(y)));
  }
  float* chroma_row(Scratch& s, int plane, int cy) const {
    return s.chroma.data() +
           (static_cast<std::size_t>(plane) * s.ccap + (cy - s.cbase)) * cw_;
  }

  /// 4:2:0: decodes the chroma block rows the vertical taps of output rows
  /// [y0, y1) read, halo included. Boundary block rows decode again in the
  /// neighbouring band, bit-identically.
  void decode_chroma(int y0, int y1, Scratch& s) const {
    const int ca = clamp_chroma_row(chroma_tap(y0));
    const int cb = clamp_chroma_row(chroma_tap(y1 - 1) + 1);
    s.cbase = ca / 8 * 8;
    const int cend = std::min((cb / 8 + 1) * 8, ch_);
    require(cend - s.cbase <= s.ccap, "chroma band overflow");
    for (int c = 1; c < 3; ++c)
      idct_rows(c, s.cbase, cend, cw_,
                [&](int cy) { return chroma_row(s, c - 1, cy); });
  }

  /// upsample_to's per-row tap selection for output row y.
  void upsample(Scratch& s, int y, float* cb, float* cr) const {
    const float fy = chroma_y(y);
    const int t0 = static_cast<int>(std::floor(fy));
    const float wy = fy - t0;
    const int ya = clamp_chroma_row(t0);
    const int yb = clamp_chroma_row(t0 + 1);
    k_.upsample_row(chroma_row(s, 0, ya), chroma_row(s, 0, yb), cw_, sx_, wy,
                    w_, cb);
    k_.upsample_row(chroma_row(s, 1, ya), chroma_row(s, 1, yb), cw_, sx_, wy,
                    w_, cr);
  }

  const CoefficientImage& coeffs_;
  const kernels::KernelTable& k_;
  int w_, h_, mcu_px_;
  int cw_ = 0, ch_ = 0;
  bool sub_ = false;
  float sx_ = 1.f, sy_ = 1.f;
  kernels::QuantConstants qc_[3];
};

}  // namespace

CoefficientImage forward_transform(const YccImage& img, int quality,
                                   ChromaMode mode, ScanIndex* scan) {
  // Zero-copy source: the caller's planes are read in place, unclamped.
  return encode_image(img.width(), img.height(), quality, mode, {}, scan,
                      nullptr, false,
                      [&img](int y, float* const*, std::uint8_t* const*) {
                        return YccRow{img.y.row(y).data(),
                                      img.cb.row(y).data(),
                                      img.cr.row(y).data()};
                      });
}

CoefficientImage forward_transform_chunked(const RgbImage& img, int quality,
                                           ChromaMode mode,
                                           const ChunkOptions& copt,
                                           ScanIndex* scan,
                                           ChunkStats* stats) {
  const kernels::KernelTable& k = kernels::active();
  return encode_image(
      img.width(), img.height(), quality, mode, copt, scan, stats, true,
      [&](int y, float* const* dst, std::uint8_t* const*) {
        k.rgb_to_ycc_row(img.r.row(y).data(), img.g.row(y).data(),
                         img.b.row(y).data(), img.width(), dst[0], dst[1],
                         dst[2]);
        return YccRow{dst[0], dst[1], dst[2]};
      });
}

CoefficientImage forward_transform_clamped_chunked(const YccImage& ycc,
                                                   int quality,
                                                   ChromaMode mode,
                                                   const ChunkOptions& copt,
                                                   ScanIndex* scan,
                                                   ChunkStats* stats) {
  // Clamp one row at a time through the same kernel ycc_to_rgb uses, so the
  // round trip float YCC -> u8 RGB -> float YCC matches
  // rgb_to_ycc(ycc_to_rgb(ycc)) sample for sample without materializing
  // either intermediate.
  const kernels::KernelTable& k = kernels::active();
  return encode_image(
      ycc.width(), ycc.height(), quality, mode, copt, scan, stats, true,
      [&](int y, float* const* dst, std::uint8_t* const* rgb) {
        ycc_to_rgb_row_u8(ycc, y, rgb[0], rgb[1], rgb[2]);
        k.rgb_to_ycc_row(rgb[0], rgb[1], rgb[2], ycc.width(), dst[0], dst[1],
                         dst[2]);
        return YccRow{dst[0], dst[1], dst[2]};
      });
}

Bytes compress(const RgbImage& img, int quality, const EncodeOptions& opts,
               const ChunkOptions& copt, ChunkStats* stats) {
  ScanIndex scan;
  const CoefficientImage coeffs =
      forward_transform_chunked(img, quality, opts.chroma, copt, &scan, stats);
  return serialize(coeffs, opts, &scan);
}

YccImage inverse_transform(const CoefficientImage& coeffs) {
  const Decoder dec(coeffs);
  const BandPlan plan(dec.mcu_rows(), {});
  const int band_px = plan.band() * dec.mcu_px();
  auto scratch =
      plan.scratch([&] { return dec.scratch(band_px, false, false); });
  YccImage out(coeffs.width(), coeffs.height());
  plan.run(scratch, [&](Decoder::Scratch& s, int m0, int m1) {
    dec.decode_ycc(m0, m1, s, out);
  });
  return out;
}

RgbImage decode_to_rgb(const CoefficientImage& coeffs,
                       const ChunkOptions& copt, ChunkStats* stats) {
  const Decoder dec(coeffs);
  const BandPlan plan(dec.mcu_rows(), copt);
  const int band_px = plan.band() * dec.mcu_px();
  auto scratch =
      plan.scratch([&] { return dec.scratch(band_px, true, false); });
  plan.report(stats, scratch.front().bytes());
  RgbImage out(coeffs.width(), coeffs.height());
  plan.run(scratch, [&](Decoder::Scratch& s, int m0, int m1) {
    dec.decode_rgb(m0, m1, s, [&](int y) {
      return std::array<std::uint8_t*, 3>{
          out.r.row(y).data(), out.g.row(y).data(), out.b.row(y).data()};
    });
  });
  return out;
}

CoefficientImage transcode_chunked(const CoefficientImage& coeffs, int quality,
                                   ChromaMode mode, const ChunkOptions& copt,
                                   ScanIndex* scan, ChunkStats* stats) {
  const int w = coeffs.width(), h = coeffs.height();
  const Decoder dec(coeffs);
  // Bands cover whole MCU rows on both sides: count them in rows of the
  // coarser MCU (16 px if either side is 4:2:0, else 8).
  const int unit_px = std::max(dec.mcu_px(), mcu_px_of(mode));
  const BandPlan plan(ceil_div(h, unit_px), copt);
  const int band_px = plan.band() * unit_px;
  struct Scratch {
    Decoder::Scratch dec;
    Encoder::Scratch enc;
  };
  auto scratch = plan.scratch([&] {
    return Scratch{dec.scratch(band_px, true, true),
                   Encoder::Scratch(w, mode, true)};
  });
  plan.report(stats,
              scratch.front().dec.bytes() + scratch.front().enc.bytes());
  Encoder enc(w, h, quality, mode, scan);
  const kernels::KernelTable& k = kernels::active();
  plan.run(scratch, [&](Scratch& s, int u0, int u1) {
    const int y0 = u0 * unit_px, y1 = std::min(h, u1 * unit_px);
    dec.decode_band(y0 / dec.mcu_px(), ceil_div(y1, dec.mcu_px()), s.dec);
    enc.encode(y0 / enc.mcu_px(), ceil_div(y1, enc.mcu_px()), s.enc,
               [&](int y, float* const* dst, std::uint8_t* const*) {
                 k.rgb_to_ycc_row(dec.band_row(s.dec, 0, y - y0),
                                  dec.band_row(s.dec, 1, y - y0),
                                  dec.band_row(s.dec, 2, y - y0), w, dst[0],
                                  dst[1], dst[2]);
                 return YccRow{dst[0], dst[1], dst[2]};
               });
  });
  return enc.take();
}

Bytes recompress_chunked(const CoefficientImage& coeffs, int quality,
                         const EncodeOptions& opts, const ChunkOptions& copt,
                         ChunkStats* stats, EncodeStats* encode_stats) {
  ScanIndex scan;
  const CoefficientImage out =
      transcode_chunked(coeffs, quality, opts.chroma, copt, &scan, stats);
  return serialize(out, opts, &scan, encode_stats);
}

}  // namespace puppies::jpeg
