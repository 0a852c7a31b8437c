// Differential suite for the band engine (jpeg/chunk.h) and the parallel
// restart-segment entropy encoder (DESIGN.md §11).
//
// The contract under test: the band engine and the segment-parallel
// serialize are pure execution strategies — for every band cap, image
// shape, chroma mode, perturbation scheme, Huffman table mode, restart
// interval, and thread count, the coefficients and bytes match the
// whole-plane reference codec (codec_reference.h) and the single-writer
// encoder exactly. scripts/tier1.sh reruns this binary with
// PUPPIES_SIMD=scalar and under TSan (bands run concurrently on the pool).

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "codec_reference.h"
#include "puppies/core/pipeline.h"
#include "puppies/exec/parallel_for.h"
#include "puppies/exec/pool.h"
#include "puppies/fault/fault.h"
#include "puppies/image/image.h"
#include "puppies/jpeg/chunk.h"
#include "puppies/jpeg/codec.h"
#include "puppies/metrics/metrics.h"
#include "puppies/synth/synth.h"

namespace puppies {
namespace {

RgbImage scene(int w, int h, int index = 1) {
  return synth::generate(synth::Dataset::kPascal, index, w, h).image;
}

/// synth::generate requires >= 32x32 scenes; sub-MCU and tiny shapes get a
/// deterministic gradient-plus-texture fill instead so every channel varies
/// along both axes.
RgbImage tiny_pattern(int w, int h) {
  RgbImage img(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      img.r.at(x, y) = static_cast<std::uint8_t>(x * 29 + y * 7);
      img.g.at(x, y) = static_cast<std::uint8_t>(x * 5 + y * 31 + 64);
      img.b.at(x, y) = static_cast<std::uint8_t>((x ^ (y * 3)) * 17 + 128);
    }
  return img;
}

RgbImage test_image(int w, int h) {
  return (w >= 32 && h >= 32) ? scene(w, h) : tiny_pattern(w, h);
}

/// YCbCr planes pushed outside [0, 255] in both directions — what a
/// pixel-domain transform of a perturbed image hands the encoder.
YccImage out_of_range_ycc(int w, int h) {
  YccImage ycc = rgb_to_ycc(test_image(w, h));
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      ycc.y.at(x, y) += ((x + y) % 7 - 3) * 60.f;
      ycc.cb.at(x, y) -= (x % 5) * 70.f;
      ycc.cr.at(x, y) += (y % 3) * 90.f;
    }
  return ycc;
}

/// Shapes the band schedule has to get right: 500x330 splits into fewer
/// MCU rows per lane than the cap (and, at 8 lanes in 4:2:0, fewer bands
/// than lanes), 16x8 is a single band, odd widths and heights exercise the
/// clamped border blocks and the duplicated odd-height chroma tail.
const std::vector<std::pair<int, int>>& shapes() {
  static const std::vector<std::pair<int, int>> kShapes = {
      {96, 64}, {97, 63}, {33, 17}, {16, 16}, {8, 8},
      {129, 40}, {500, 330}, {16, 8}, {41, 75}};
  return kShapes;
}

jpeg::CoefficientImage perturbed(const jpeg::CoefficientImage& img,
                                 core::Scheme scheme) {
  core::RoiPolicy policy;
  policy.rect = Rect{16, 16, 48, 32};
  policy.key = SecretKey::from_label("chunked-differential");
  policy.scheme = scheme;
  policy.level = core::PrivacyLevel::kMedium;
  return core::protect(img, {policy}).perturbed;
}

/// Restores auto thread count when a test pins the pool width.
struct ThreadGuard {
  ~ThreadGuard() { exec::configure(exec::Config{}); }
};

/// Restores the env/default pixel limit.
struct PixelLimitGuard {
  ~PixelLimitGuard() { jpeg::set_max_decode_pixels(0); }
};

const char* chroma_name(jpeg::ChromaMode mode) {
  return mode == jpeg::ChromaMode::k420 ? "420" : "444";
}

// ---------------------------------------------------------------------------
// Band engine vs the whole-plane reference.

TEST(ChunkedForward, MatchesWholeImageAcrossChunkSizesAndShapes) {
  ThreadGuard guard;
  for (const auto& [w, h] : shapes()) {
    const RgbImage img = test_image(w, h);
    for (jpeg::ChromaMode mode :
         {jpeg::ChromaMode::k444, jpeg::ChromaMode::k420}) {
      jpeg::ScanIndex whole_scan;
      const jpeg::CoefficientImage whole = jpeg::reference::forward_transform(
          rgb_to_ycc(img), 75, mode, &whole_scan);
      const Bytes whole_bytes = jpeg::serialize(whole, {}, &whole_scan);
      const int mcu_rows = whole.mcu_rows();
      for (int threads : {1, 2, 8}) {
        exec::configure(exec::Config{threads});
        for (int chunk : {1, 2, 5, 1000}) {
          jpeg::ChunkOptions copt;
          copt.mcu_rows = chunk;
          jpeg::ScanIndex scan;
          jpeg::ChunkStats stats;
          const jpeg::CoefficientImage chunked =
              jpeg::forward_transform_chunked(img, 75, mode, copt, &scan,
                                              &stats);
          ASSERT_EQ(chunked, whole)
              << w << "x" << h << " chroma " << chroma_name(mode)
              << " chunk " << chunk << " threads " << threads;
          ASSERT_EQ(scan.masks, whole_scan.masks);
          ASSERT_EQ(jpeg::serialize(chunked, {}, &scan), whole_bytes);
          // The schedule: bands of at most the cap, covering every MCU row,
          // spread over at most one lane per thread; when one wave of bands
          // fits under the cap, each lane gets exactly one band.
          ASSERT_LE(stats.chunk_mcu_rows, chunk);
          ASSERT_EQ(stats.chunks,
                    (mcu_rows + stats.chunk_mcu_rows - 1) /
                        stats.chunk_mcu_rows);
          ASSERT_EQ(stats.lanes, std::min(threads, stats.chunks));
          const int lanes = std::min(threads, mcu_rows);
          if (chunk * lanes >= mcu_rows) {
            ASSERT_EQ(stats.chunk_mcu_rows, (mcu_rows + lanes - 1) / lanes);
          }
        }
      }
    }
  }
}

TEST(ChunkedForward, UnclampedYccMatchesWholePlaneReference) {
  // forward_transform reads the caller's float planes in place: samples
  // below 0 and above 255 must quantize exactly as the whole-plane
  // reference quantizes them, never clamped.
  ThreadGuard guard;
  for (const auto& [w, h] : shapes()) {
    const YccImage ycc = out_of_range_ycc(w, h);
    for (jpeg::ChromaMode mode :
         {jpeg::ChromaMode::k444, jpeg::ChromaMode::k420}) {
      jpeg::ScanIndex want_scan;
      const jpeg::CoefficientImage want =
          jpeg::reference::forward_transform(ycc, 90, mode, &want_scan);
      for (int threads : {1, 2, 8}) {
        exec::configure(exec::Config{threads});
        jpeg::ScanIndex scan;
        ASSERT_EQ(jpeg::forward_transform(ycc, 90, mode, &scan), want)
            << w << "x" << h << " chroma " << chroma_name(mode)
            << " threads " << threads;
        ASSERT_EQ(scan.masks, want_scan.masks);
      }
    }
  }
}

TEST(ChunkedInverse, KeepsOutOfRangeValuesUnclamped) {
  // inverse_transform writes unclamped floats straight into its result;
  // decoding an out-of-range encode must reproduce the reference's samples
  // below 0 and above 255 bit for bit (Lemma III.1 rests on it).
  ThreadGuard guard;
  for (const auto& [w, h] : shapes()) {
    for (jpeg::ChromaMode mode :
         {jpeg::ChromaMode::k444, jpeg::ChromaMode::k420}) {
      const jpeg::CoefficientImage coeffs =
          jpeg::reference::forward_transform(out_of_range_ycc(w, h), 100,
                                             mode);
      const YccImage want = jpeg::reference::inverse_transform(coeffs);
      float lo = 0.f, hi = 255.f;
      for (int c = 0; c < 3; ++c)
        for (float v : want.component(c).pixels()) {
          lo = std::min(lo, v);
          hi = std::max(hi, v);
        }
      ASSERT_LT(lo, 0.f) << w << "x" << h;
      ASSERT_GT(hi, 255.f) << w << "x" << h;
      for (int threads : {1, 2, 8}) {
        exec::configure(exec::Config{threads});
        const YccImage got = jpeg::inverse_transform(coeffs);
        for (int c = 0; c < 3; ++c)
          ASSERT_EQ(got.component(c), want.component(c))
              << w << "x" << h << " chroma " << chroma_name(mode)
              << " threads " << threads << " component " << c;
      }
    }
  }
}

TEST(ChunkedForward, ClampedReencodeMatchesWholeImagePath) {
  // The serving-side path: a float YCC image with out-of-range samples
  // (what a pixel-domain transform of a perturbed image produces) is
  // clamped to u8 RGB and re-encoded. The band engine and the whole-plane
  // reference must agree bit for bit, including on the clamp.
  ThreadGuard guard;
  for (const auto& [w, h] :
       std::vector<std::pair<int, int>>{{97, 63}, {500, 330}, {16, 8}}) {
    const YccImage ycc = out_of_range_ycc(w, h);
    for (jpeg::ChromaMode mode :
         {jpeg::ChromaMode::k444, jpeg::ChromaMode::k420}) {
      jpeg::ScanIndex whole_scan;
      const jpeg::CoefficientImage whole = jpeg::reference::forward_transform(
          rgb_to_ycc(ycc_to_rgb(ycc)), 85, mode, &whole_scan);
      for (int threads : {1, 2, 8}) {
        exec::configure(exec::Config{threads});
        jpeg::ChunkOptions copt;
        copt.mcu_rows = 2;
        jpeg::ScanIndex scan;
        const jpeg::CoefficientImage chunked =
            jpeg::forward_transform_clamped_chunked(ycc, 85, mode, copt,
                                                    &scan);
        ASSERT_EQ(chunked, whole) << w << "x" << h << " threads " << threads;
        ASSERT_EQ(scan.masks, whole_scan.masks);
      }
    }
  }
}

TEST(ChunkedForward, CompressRoutesThroughChunkedPipeline) {
  const RgbImage img = scene(97, 63);
  jpeg::EncodeOptions eo;
  eo.chroma = jpeg::ChromaMode::k420;
  jpeg::ChunkStats stats;
  ASSERT_EQ(jpeg::compress(img, 75, eo, {}, &stats),
            jpeg::serialize(jpeg::reference::forward_transform(
                                rgb_to_ycc(img), 75, eo.chroma),
                            eo));
  EXPECT_GT(stats.peak_chunk_bytes, 0u);
  EXPECT_GT(stats.chunks, 0);
}

// ---------------------------------------------------------------------------
// Parallel restart-segment serialize: thread-count and scheme invariance.

TEST(ParallelSegments, ByteIdenticalAcrossThreadCountsAndSchemes) {
  ThreadGuard guard;
  const std::vector<core::Scheme> schemes = {
      core::Scheme::kNaive, core::Scheme::kBase, core::Scheme::kCompression,
      core::Scheme::kZero};
  for (jpeg::ChromaMode mode :
       {jpeg::ChromaMode::k444, jpeg::ChromaMode::k420}) {
    const jpeg::CoefficientImage base =
        jpeg::forward_transform(rgb_to_ycc(scene(96, 64)), 75, mode);
    for (core::Scheme s : schemes) {
      const jpeg::CoefficientImage img = perturbed(base, s);
      for (jpeg::HuffmanMode hm :
           {jpeg::HuffmanMode::kStandard, jpeg::HuffmanMode::kOptimized}) {
        for (int restart : {0, 1, 4, 64}) {
          jpeg::EncodeOptions opts;
          opts.huffman = hm;
          opts.restart_interval = restart;
          exec::configure(exec::Config{1});
          const Bytes oracle = jpeg::serialize(img, opts);
          for (int threads : {2, 8}) {
            exec::configure(exec::Config{threads});
            ASSERT_EQ(jpeg::serialize(img, opts), oracle)
                << "chroma " << (mode == jpeg::ChromaMode::k420 ? 420 : 444)
                << " scheme " << static_cast<int>(s) << " mode "
                << static_cast<int>(hm) << " restart " << restart
                << " threads " << threads;
          }
        }
      }
    }
  }
}

TEST(ParallelSegments, ParallelEncodedStreamsDecodeLosslessly) {
  ThreadGuard guard;
  exec::configure(exec::Config{8});
  const jpeg::CoefficientImage img = perturbed(
      jpeg::forward_transform(rgb_to_ycc(scene(96, 64)), 75,
                              jpeg::ChromaMode::k444),
      core::Scheme::kCompression);
  for (jpeg::HuffmanMode hm :
       {jpeg::HuffmanMode::kStandard, jpeg::HuffmanMode::kOptimized}) {
    jpeg::EncodeOptions opts;
    opts.huffman = hm;
    opts.restart_interval = 4;
    ASSERT_EQ(jpeg::parse(jpeg::serialize(img, opts)), img);
  }
}

TEST(ParallelSegments, CorruptSegmentInjectionIsDetectedOrVisible) {
  ThreadGuard guard;
  exec::configure(exec::Config{8});
  const jpeg::CoefficientImage img = perturbed(
      jpeg::forward_transform(rgb_to_ycc(scene(96, 64)), 75,
                              jpeg::ChromaMode::k444),
      core::Scheme::kBase);
  // 4: 96x64 = 96 MCUs -> 24 segments; 0: the single-segment scan, which
  // the same writer (and fault hook) covers.
  for (int restart : {4, 0}) {
    jpeg::EncodeOptions opts;
    opts.restart_interval = restart;
    Bytes corrupt;
    {
      // fired() counts since arming, and ScopedPlan's disarm resets the
      // count, so it must be read while the plan is still live.
      fault::ScopedPlan plan("jpeg.encode.segment=once");
      corrupt = jpeg::serialize(img, opts);
      EXPECT_EQ(fault::fired("jpeg.encode.segment"), 1u)
          << "restart " << restart;
    }
    // A corrupted worker must never silently produce the clean stream: the
    // decoder either rejects the stream or decodes something else. Restart
    // markers bound the blast radius to one segment, so the stream
    // structure itself usually survives.
    bool detected = false;
    try {
      detected = !(jpeg::parse(corrupt) == img);
    } catch (const ParseError&) {
      detected = true;
    }
    EXPECT_TRUE(detected) << "restart " << restart;
    // And with no plan armed, the same encode is clean.
    ASSERT_EQ(jpeg::parse(jpeg::serialize(img, opts)), img)
        << "restart " << restart;
  }
}

// ---------------------------------------------------------------------------
// Bounded-allocation guarantee (PUPPIES_MAX_PIXELS on the streaming path).

TEST(BoundedMemory, JustOverLimitImageFailsCleanly) {
  PixelLimitGuard guard;
  jpeg::set_max_decode_pixels(10'000);
  const RgbImage over = scene(128, 80);  // 10'240 pixels
  EXPECT_THROW(jpeg::forward_transform_chunked(over, 75), InvalidArgument);
  EXPECT_THROW(jpeg::compress(over, 75), InvalidArgument);
  try {
    jpeg::forward_transform_chunked(over, 75);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("PUPPIES_MAX_PIXELS"),
              std::string::npos);
  }
  // A large image under the limit encodes fine.
  const RgbImage under = scene(124, 80);  // 9'920 pixels
  EXPECT_EQ(jpeg::parse(jpeg::compress(under, 75)),
            jpeg::forward_transform(rgb_to_ycc(under), 75));
}

TEST(BoundedMemory, ScratchIsIndependentOfImageHeight) {
  jpeg::ChunkOptions copt;
  copt.mcu_rows = 4;
  for (jpeg::ChromaMode mode :
       {jpeg::ChromaMode::k444, jpeg::ChromaMode::k420}) {
    jpeg::ChunkStats short_stats, tall_stats;
    jpeg::forward_transform_chunked(scene(64, 128), 75, mode, copt, nullptr,
                                    &short_stats);
    jpeg::forward_transform_chunked(scene(64, 1024), 75, mode, copt, nullptr,
                                    &tall_stats);
    // 8x the pixel rows, same scratch high-water mark: the band buffer is
    // the only pixel-domain allocation and it never grows with height.
    EXPECT_EQ(tall_stats.peak_chunk_bytes, short_stats.peak_chunk_bytes);
    EXPECT_GT(tall_stats.chunks, short_stats.chunks);
    // Measured budget: 3 u8 + 3 float full-res band planes (+ 2 decimated
    // float chroma planes in 4:2:0), for width * (4 MCU rows) pixels.
    const int band_rows = copt.mcu_rows * (mode == jpeg::ChromaMode::k420
                                               ? 16 : 8);
    std::size_t budget = static_cast<std::size_t>(64) * band_rows *
                         (3 * sizeof(std::uint8_t) + 3 * sizeof(float));
    if (mode == jpeg::ChromaMode::k420)
      budget += 2 * static_cast<std::size_t>(32) * (band_rows / 2) *
                sizeof(float);
    EXPECT_LE(tall_stats.peak_chunk_bytes, budget);
  }
}

// ---------------------------------------------------------------------------
// ScanIndex rebuild observability (psp.codec.scanindex_rebuilds).

TEST(ScanIndexMetrics, RebuildCounterTracksFastPathExits) {
  jpeg::ScanIndex scan;
  const jpeg::CoefficientImage img = jpeg::forward_transform(
      rgb_to_ycc(scene(64, 64)), 75, jpeg::ChromaMode::k444, &scan);
  auto rebuilds = [] {
    return metrics::counter("psp.codec.scanindex_rebuilds").value();
  };

  // Fast path: a matching index is trusted, no rebuild.
  const std::uint64_t base = rebuilds();
  jpeg::serialize(img, {}, &scan);
  EXPECT_EQ(rebuilds(), base);

  // No index: one rebuild.
  jpeg::serialize(img, {});
  EXPECT_EQ(rebuilds(), base + 1);

  // Shape-mismatched index (stale after a geometry change): one rebuild,
  // and the bytes still match the fast path exactly.
  jpeg::ScanIndex stale;
  stale.masks.resize(1);
  const Bytes via_stale = jpeg::serialize(img, {}, &stale);
  EXPECT_EQ(rebuilds(), base + 2);
  EXPECT_EQ(via_stale, jpeg::serialize(img, {}, &scan));

  // Once touched, the counter is part of the registry dump — the same JSON
  // `puppies store stats --json` embeds, so rebuild storms are observable
  // operationally, not just in this test.
  EXPECT_NE(metrics::dump_json().find("psp.codec.scanindex_rebuilds"),
            std::string::npos);
}

}  // namespace
}  // namespace puppies
