// Differential suite for the ROI-delta serving path (DESIGN.md §15):
// jpeg::serialize_delta must be byte-identical to the full serial re-encode
// for every dirty set, chroma mode, restart interval, thread count, and
// SIMD tier — copying clean segments verbatim is an execution strategy,
// never a format change. The suite also pins the fallback matrix (any
// precondition miss routes through full serialize() and the bytes still
// match) and the serving-path observability satellites.
// scripts/tier1.sh reruns this binary with PUPPIES_SIMD=scalar and under
// TSan (the partial-index fill and segment writers are shared-state
// parallel code).

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "puppies/common/rng.h"
#include "puppies/core/perturb.h"
#include "puppies/exec/pool.h"
#include "puppies/jpeg/chunk.h"
#include "puppies/jpeg/codec.h"
#include "puppies/kernels/kernels.h"
#include "puppies/metrics/metrics.h"
#include "puppies/psp/psp.h"
#include "puppies/synth/synth.h"
#include "puppies/transform/transform.h"

namespace puppies::jpeg {
namespace {

RgbImage scene(int w, int h, int index = 7) {
  return synth::generate(synth::Dataset::kPascal, index, w, h).image;
}

Bytes encode(const RgbImage& img, int quality, int restart,
             ChromaMode chroma = ChromaMode::k444,
             HuffmanMode huffman = HuffmanMode::kStandard) {
  EncodeOptions eo;
  eo.restart_interval = restart;
  eo.chroma = chroma;
  eo.huffman = huffman;
  return compress(img, quality, eo);
}

/// Restores auto thread count when a test pins the pool width.
struct ThreadGuard {
  ~ThreadGuard() { exec::configure(exec::Config{}); }
};

/// Restores the boot tier when a test forces a specific one.
struct TierGuard {
  kernels::SimdTier initial = kernels::active_tier();
  ~TierGuard() { kernels::configure(initial); }
};

std::vector<kernels::SimdTier> supported_tiers() {
  std::vector<kernels::SimdTier> out;
  for (kernels::SimdTier t :
       {kernels::SimdTier::kScalar, kernels::SimdTier::kSse2,
        kernels::SimdTier::kAvx2})
    if (kernels::tier_supported(t)) out.push_back(t);
  return out;
}

/// A parsed delta source: the coefficients plus the retained scan context.
struct Source {
  EncodeOptions eo;
  Bytes jfif;
  CoefficientImage coeffs;
  ScanSource scan;
};

Source make_source(int w, int h, int restart, ChromaMode chroma,
                   int quality = 75,
                   HuffmanMode huffman = HuffmanMode::kStandard) {
  Source s;
  s.eo.restart_interval = restart;
  s.eo.chroma = chroma;
  s.eo.huffman = huffman;
  s.jfif = compress(scene(w, h), quality, s.eo);
  s.coeffs = parse(s.jfif, nullptr, &s.scan);
  return s;
}

// ---------------------------------------------------------------------------
// DirtyMcuSet semantics.

TEST(DirtyMcuSet, MarkTestCountAndRangeQueries) {
  DirtyMcuSet d;
  d.reset(130);
  EXPECT_EQ(d.count(), 0);
  EXPECT_FALSE(d.any_in(0, 130));
  d.mark(0);
  d.mark(63);
  d.mark(64);
  d.mark(129);
  EXPECT_EQ(d.count(), 4);
  EXPECT_TRUE(d.test(63));
  EXPECT_FALSE(d.test(62));
  EXPECT_TRUE(d.any_in(60, 64));
  EXPECT_FALSE(d.any_in(65, 129));
  EXPECT_TRUE(d.any_in(129, 130));
  d.mark_all();
  EXPECT_EQ(d.count(), 130);
  EXPECT_TRUE(d.any_in(65, 66));
}

// ---------------------------------------------------------------------------
// The randomized differential: delta output == full serial re-encode, byte
// for byte, across chroma x restart x threads x SIMD tier. 2304 cases.

TEST(DeltaFuzz, ByteIdenticalToFullReencodeAcrossAllExecutionAxes) {
  ThreadGuard tg;
  TierGuard kg;
  const std::vector<kernels::SimdTier> tiers = supported_tiers();
  // One source per (chroma, restart) cell; quality varies with the cell so
  // both sparse and dense coefficient statistics are covered.
  std::vector<Source> sources;
  for (const ChromaMode chroma : {ChromaMode::k444, ChromaMode::k420})
    for (const int restart : {1, 3, 64})
      sources.push_back(make_source(96, 80, restart, chroma,
                                    restart == 3 ? 90 : 75));
  const core::MatrixSet keys =
      core::MatrixSet::derive(SecretKey::from_label("delta-fuzz"), 2);
  const core::PerturbParams params =
      core::params_for(core::PrivacyLevel::kMedium);
  const int kThreads[3] = {1, 2, 8};

  constexpr int kCases = 2304;
  int configured_threads = 0;
  kernels::SimdTier configured_tier = kernels::active_tier();
  for (int i = 0; i < kCases; ++i) {
    const Source& src = sources[static_cast<std::size_t>(i) % sources.size()];
    const int threads = kThreads[(i / 6) % 3];
    const kernels::SimdTier tier =
        tiers[static_cast<std::size_t>(i / 18) % tiers.size()];
    if (threads != configured_threads) {
      exec::configure(exec::Config{threads});
      configured_threads = threads;
    }
    if (tier != configured_tier) {
      kernels::configure(tier);
      configured_tier = tier;
    }

    // Random MCU-aligned ROI (or two), then the MCUs the perturbation
    // changed, found by comparing against the source coefficients.
    Rng rng("delta-fuzz/" + std::to_string(i));
    const int align = src.eo.chroma == ChromaMode::k420 ? 16 : 8;
    const int w = src.coeffs.width(), h = src.coeffs.height();
    CoefficientImage img = src.coeffs;
    const int rois = 1 + (i % 5 == 0 ? 1 : 0);
    for (int r = 0; r < rois; ++r) {
      const int rw = align * rng.range(1, w / align);
      const int rh = align * rng.range(1, h / align);
      const int rx = align * rng.range(0, (w - rw) / align);
      const int ry = align * rng.range(0, (h - rh) / align);
      core::perturb_roi(img, Rect{rx, ry, rw, rh}, keys,
                        static_cast<core::Scheme>(rng.range(0, 2)), params);
    }
    DirtyMcuSet dirty;
    diff_dirty_mcus(img, src.coeffs, dirty);

    const Bytes full = serialize(img, src.eo);
    DeltaStats ds;
    const Bytes delta =
        serialize_delta(img, src.eo, src.scan, dirty, nullptr, nullptr, &ds);
    ASSERT_EQ(delta, full)
        << "case " << i << " threads=" << threads
        << " tier=" << kernels::to_string(tier)
        << " restart=" << src.eo.restart_interval;
    EXPECT_FALSE(ds.fallback) << "case " << i;
    EXPECT_EQ(ds.segments_total,
              ds.segments_copied + ds.segments_reencoded);
    EXPECT_GT(ds.segments_reencoded, 0) << "case " << i;
    if (i % 64 == 0) EXPECT_EQ(parse(delta), img) << "case " << i;
  }
}

// A matching supplied ScanIndex must be trusted and produce the same bytes
// as the partial-index path.
TEST(DeltaFuzz, SuppliedScanIndexMatchesPartialIndexPath) {
  ScanIndex scan;
  const CoefficientImage img = forward_transform(
      rgb_to_ycc(scene(96, 80)), 75, ChromaMode::k444, &scan);
  EncodeOptions eo;
  eo.huffman = HuffmanMode::kStandard;
  eo.restart_interval = 4;
  ScanSource src;
  parse(serialize(img, eo, &scan), nullptr, &src);
  // Spuriously-dirty MCUs: the marked segments re-encode (to identical
  // bytes) while the rest copy, with and without the supplied index.
  DirtyMcuSet dirty;
  dirty.reset(img.mcu_count());
  dirty.mark(0);
  dirty.mark(img.mcu_count() / 2);
  const Bytes with_index = serialize_delta(img, eo, src, dirty, &scan);
  const Bytes without_index = serialize_delta(img, eo, src, dirty, nullptr);
  EXPECT_EQ(with_index, without_index);
  EXPECT_EQ(with_index, serialize(img, eo, &scan));
}

// ---------------------------------------------------------------------------
// diff_dirty_mcus: the identity-fold recompress path's dirty detector.

TEST(DiffDirtyMcus, FindsExactlyTheTouchedMcus) {
  const Source src = make_source(96, 80, 3, ChromaMode::k444);
  CoefficientImage img = src.coeffs;
  // Touch one block in MCU (1, 2) and one in the last MCU.
  img.component(0).block(1, 2)[5] += 1;
  img.component(2).block(img.component(2).blocks_w - 1,
                         img.component(2).blocks_h - 1)[0] += 1;
  DirtyMcuSet dirty;
  diff_dirty_mcus(img, src.coeffs, dirty);
  EXPECT_EQ(dirty.count(), 2);
  EXPECT_TRUE(dirty.test(2 * img.mcu_cols() + 1));
  EXPECT_TRUE(dirty.test(img.mcu_count() - 1));
  const Bytes delta = serialize_delta(img, src.eo, src.scan, dirty);
  EXPECT_EQ(delta, serialize(img, src.eo));
}

TEST(DiffDirtyMcus, CleanDiffCopiesEverySegmentVerbatim) {
  const Source src = make_source(96, 80, 3, ChromaMode::k420);
  DirtyMcuSet dirty;
  diff_dirty_mcus(src.coeffs, src.coeffs, dirty);
  EXPECT_EQ(dirty.count(), 0);
  DeltaStats ds;
  const Bytes delta = serialize_delta(src.coeffs, src.eo, src.scan, dirty,
                                      nullptr, nullptr, &ds);
  EXPECT_FALSE(ds.fallback);
  EXPECT_EQ(ds.segments_reencoded, 0);
  EXPECT_EQ(ds.segments_copied, ds.segments_total);
  // A pure copy of a canonical source reproduces the source bytes.
  EXPECT_EQ(delta, src.jfif);
}

// ---------------------------------------------------------------------------
// Fallback matrix: every precondition miss must route through the full
// path, flag DeltaStats::fallback, and still produce the full path's bytes.

void expect_fallback_matches_full(const CoefficientImage& img,
                                  const EncodeOptions& eo,
                                  const ScanSource& src,
                                  const DirtyMcuSet& dirty,
                                  const char* label) {
  DeltaStats ds;
  const Bytes delta = serialize_delta(img, eo, src, dirty, nullptr, nullptr,
                                      &ds);
  EXPECT_TRUE(ds.fallback) << label;
  EXPECT_EQ(delta, serialize(img, eo)) << label;
  EXPECT_EQ(parse(delta), img) << label;
}

TEST(DeltaFallback, OptimizedHuffmanRetablesEverySegment) {
  const Source src = make_source(64, 64, 4, ChromaMode::k444);
  CoefficientImage img = src.coeffs;
  DirtyMcuSet dirty;
  dirty.reset(img.mcu_count());
  dirty.mark(0);
  EncodeOptions eo = src.eo;
  eo.huffman = HuffmanMode::kOptimized;
  expect_fallback_matches_full(img, eo, src.scan, dirty, "optimized tables");
}

TEST(DeltaFallback, NoRestartIntervalInTarget) {
  const Source src = make_source(64, 64, 4, ChromaMode::k444);
  DirtyMcuSet dirty;
  dirty.reset(src.coeffs.mcu_count());
  EncodeOptions eo = src.eo;
  eo.restart_interval = 0;
  expect_fallback_matches_full(src.coeffs, eo, src.scan, dirty, "restart 0");
}

TEST(DeltaFallback, RestartCadenceMismatch) {
  const Source src = make_source(64, 64, 4, ChromaMode::k444);
  DirtyMcuSet dirty;
  dirty.reset(src.coeffs.mcu_count());
  EncodeOptions eo = src.eo;
  eo.restart_interval = 8;
  expect_fallback_matches_full(src.coeffs, eo, src.scan, dirty,
                               "cadence mismatch");
}

TEST(DeltaFallback, SourceWithoutRestartMarkers) {
  // A restart-free source stream retains no segment table: !valid().
  const Source src = make_source(64, 64, 0, ChromaMode::k444);
  EXPECT_FALSE(src.scan.valid());
  DirtyMcuSet dirty;
  dirty.reset(src.coeffs.mcu_count());
  EncodeOptions eo = src.eo;
  eo.restart_interval = 4;
  expect_fallback_matches_full(src.coeffs, eo, src.scan, dirty,
                               "sourceless");
}

TEST(DeltaFallback, OptimizedTableSourceIsNotStandard) {
  // The source stream carries image-specific Huffman tables; its entropy
  // bytes are useless to a standard-table target.
  const Source src =
      make_source(64, 64, 4, ChromaMode::k444, 75, HuffmanMode::kOptimized);
  EXPECT_TRUE(src.scan.valid());
  EXPECT_FALSE(src.scan.standard_tables);
  DirtyMcuSet dirty;
  dirty.reset(src.coeffs.mcu_count());
  EncodeOptions eo = src.eo;
  eo.huffman = HuffmanMode::kStandard;
  expect_fallback_matches_full(src.coeffs, eo, src.scan, dirty,
                               "foreign tables");
}

TEST(DeltaFallback, GeometryChangingChainsInvalidateTheSource) {
  const Source src = make_source(96, 80, 4, ChromaMode::k444);
  for (const transform::Chain& chain :
       {transform::Chain{transform::rotate(90)},
        transform::Chain{transform::crop_aligned(Rect{8, 8, 48, 40})}}) {
    DirtyMcuSet dirty;
    const CoefficientImage out =
        transform::apply_lossless(chain, src.coeffs, &dirty);
    EXPECT_EQ(dirty.total, out.mcu_count());
    EXPECT_EQ(dirty.count(), out.mcu_count());  // rewrite marks everything
    expect_fallback_matches_full(out, src.eo, src.scan, dirty,
                                 "geometry chain");
  }
}

TEST(DeltaFallback, UndersizedDirtySetFallsBack) {
  const Source src = make_source(64, 64, 4, ChromaMode::k444);
  DirtyMcuSet dirty;  // never reset: total == 0 != mcu_count
  expect_fallback_matches_full(src.coeffs, src.eo, src.scan, dirty,
                               "stale dirty set");
}

// Geometry-preserving lossless rewrites (flips, 180) mark everything dirty
// but stay eligible: the delta path degenerates to a full parallel
// re-encode with identical bytes.
TEST(DeltaFallback, FullRewriteStaysEligibleAndReencodesEverySegment) {
  const Source src = make_source(96, 80, 4, ChromaMode::k444);
  DirtyMcuSet dirty;
  const CoefficientImage out = transform::apply_lossless(
      transform::Chain{transform::flip_h()}, src.coeffs, &dirty);
  DeltaStats ds;
  const Bytes delta =
      serialize_delta(out, src.eo, src.scan, dirty, nullptr, nullptr, &ds);
  EXPECT_FALSE(ds.fallback);
  EXPECT_EQ(ds.segments_copied, 0);
  EXPECT_EQ(delta, serialize(out, src.eo));
}

// ---------------------------------------------------------------------------
// Identity-fold recompress delta (jpeg/chunk.h): bytes equal the full
// streamed recompress for a same-quality round trip and for a
// quality-changing one (where the diff finds everything dirty).

TEST(DeltaRecompress, MatchesFullRecompressBytes) {
  const Source src = make_source(96, 80, 4, ChromaMode::k444);
  for (const int quality : {75, 60}) {
    const Bytes full = recompress_chunked(src.coeffs, quality, src.eo);
    DeltaStats ds;
    const Bytes delta = recompress_delta_chunked(
        src.coeffs, src.scan, quality, src.eo, {}, nullptr, nullptr, &ds);
    EXPECT_EQ(delta, full) << "quality " << quality;
    EXPECT_EQ(parse(delta), parse(full)) << "quality " << quality;
  }
}

// ---------------------------------------------------------------------------
// Serving path (PSP): coefficient-domain downloads route through the delta
// path and the segment counters are observable.

TEST(DeltaServing, IdentityChainDownloadCopiesEverySegment) {
  psp::PspConfig cfg;
  cfg.huffman = HuffmanMode::kStandard;
  psp::PspService psp(cfg);
  EncodeOptions eo;
  eo.huffman = HuffmanMode::kStandard;
  eo.restart_interval = cfg.restart_interval;
  const Bytes upload = compress(scene(96, 80), 75, eo);
  const std::string id = psp.upload(upload, {});

  const std::uint64_t copied_before =
      metrics::counter("psp.codec.segments_copied").value();
  const std::uint64_t reenc_before =
      metrics::counter("psp.codec.segments_reencoded").value();
  psp.apply_transform(id, {}, psp::DeliveryMode::kCoefficients);
  const psp::Download d = psp.download(id);
  // The empty chain leaves every MCU clean: the served bytes are a pure
  // splice of the upload's own segments.
  EXPECT_EQ(d.jfif, upload);
  EXPECT_GT(metrics::counter("psp.codec.segments_copied").value(),
            copied_before);
  EXPECT_EQ(metrics::counter("psp.codec.segments_reencoded").value(),
            reenc_before);
}

TEST(DeltaServing, LosslessRewriteChainStaysByteIdenticalToFullPath) {
  // The served bytes (delta path) equal a full serialize() of the same
  // transformed coefficients.
  EncodeOptions eo;
  eo.huffman = HuffmanMode::kStandard;
  eo.restart_interval = psp::PspConfig{}.restart_interval;
  const Bytes upload = compress(scene(96, 80), 75, eo);
  const transform::Chain chain{transform::flip_v()};

  psp::PspConfig cfg;
  cfg.huffman = HuffmanMode::kStandard;
  cfg.cache_bytes = 0;
  psp::PspService psp(cfg);
  const std::string id = psp.upload(upload, {});
  psp.apply_transform(id, chain, psp::DeliveryMode::kCoefficients);
  EXPECT_EQ(psp.download(id).jfif,
            serialize(transform::apply_lossless(chain, parse(upload)), eo));
}

// Satellite regression: a serving-path download whose encode has no usable
// ScanIndex must bump psp.codec.scanindex_rebuilds, and the counter is in
// the same registry JSON `puppies store stats --json` embeds.
TEST(DeltaServing, ShapeMismatchedIndexOnServingPathBumpsRebuildCounter) {
  psp::PspService psp;  // default config: optimized Huffman -> full path
  EncodeOptions eo;
  eo.restart_interval = 64;
  const Bytes upload = compress(scene(96, 80), 75, eo);
  const std::string id = psp.upload(upload, {});
  const std::uint64_t before =
      metrics::counter("psp.codec.scanindex_rebuilds").value();
  // rotate(90) changes the coefficient grid's shape, so no index matching
  // the upload parse can cover the transformed image: the serving encode
  // must rebuild.
  psp.apply_transform(id, {transform::rotate(90)},
                      psp::DeliveryMode::kCoefficients);
  const psp::Download d = psp.download(id);
  EXPECT_FALSE(d.jfif.empty());
  EXPECT_GT(metrics::counter("psp.codec.scanindex_rebuilds").value(), before);
  EXPECT_NE(metrics::dump_json().find("psp.codec.scanindex_rebuilds"),
            std::string::npos);
}

}  // namespace
}  // namespace puppies::jpeg
