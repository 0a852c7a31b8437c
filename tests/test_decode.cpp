// Differential suite for the decode side of the codec: the segment-parallel
// entropy decoder, the marker-aware restart-segment scanner, the fused
// Huffman+magnitude LUT, and the inverse half of the band engine (DESIGN.md
// §13).
//
// The contract under test mirrors tests_chunked's encode-side contract: all
// of these are pure execution-strategy changes — for every restart interval,
// chroma mode, thread count, SIMD tier, and band size, the decoded
// coefficients, RGB pixels, and error taxonomy match the serial decoder and
// the whole-plane reference codec (codec_reference.h) exactly.
// scripts/tier1.sh reruns this binary with PUPPIES_SIMD=scalar and under
// TSan (the segment decoders are new shared-state parallel code).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "codec_reference.h"
#include "puppies/common/error.h"
#include "puppies/common/rng.h"
#include "puppies/exec/parallel_for.h"
#include "puppies/exec/pool.h"
#include "puppies/image/image.h"
#include "puppies/jpeg/chunk.h"
#include "puppies/jpeg/codec.h"
#include "puppies/kernels/kernels.h"
#include "puppies/metrics/metrics.h"
#include "puppies/psp/psp.h"
#include "puppies/synth/synth.h"
#include "puppies/transform/transform.h"

namespace puppies::jpeg {
namespace {

RgbImage scene(int w, int h, int index = 9) {
  return synth::generate(synth::Dataset::kPascal, index, w, h).image;
}

Bytes encode(const RgbImage& img, int quality, int restart,
             ChromaMode chroma = ChromaMode::k444,
             HuffmanMode huffman = HuffmanMode::kOptimized) {
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

/// Lanes the segment-parallel side of each differential runs on: more than
/// one, so parse() takes the segment path whatever the host's core count.
constexpr int kParallelLanes = 4;

/// Serial reference decode: on a one-lane pool parse() always walks the
/// segments on a single reader. Callers hold a ThreadGuard; the pool is
/// left at kParallelLanes.
CoefficientImage parse_serial(const Bytes& data, ParseStats* stats = nullptr) {
  exec::configure(exec::Config{1});
  struct Restore {
    ~Restore() { exec::configure(exec::Config{kParallelLanes}); }
  } restore;
  return parse(data, stats);
}

std::vector<kernels::SimdTier> supported_tiers() {
  std::vector<kernels::SimdTier> out;
  for (kernels::SimdTier t : {kernels::SimdTier::kScalar,
                              kernels::SimdTier::kSse2,
                              kernels::SimdTier::kAvx2})
    if (kernels::tier_supported(t)) out.push_back(t);
  return out;
}

// ---------------------------------------------------------------------------
// Segment-parallel decode vs the serial decoder.

TEST(ParallelDecode, MatchesSerialAcrossRestartChromaAndThreads) {
  ThreadGuard guard;
  const RgbImage img = scene(120, 88);
  for (int restart : {0, 1, 3, 64}) {
    for (ChromaMode chroma : {ChromaMode::k444, ChromaMode::k420}) {
      const Bytes stream = encode(img, 80, restart, chroma);
      ParseStats serial_stats;
      const CoefficientImage want = parse_serial(stream, &serial_stats);
      EXPECT_FALSE(serial_stats.parallel);
      for (int threads : {1, 2, 8}) {
        exec::configure(exec::Config{threads});
        ParseStats stats;
        const CoefficientImage got = parse(stream, &stats);
        ASSERT_EQ(got, want) << "restart=" << restart
                             << " chroma=" << static_cast<int>(chroma)
                             << " threads=" << threads;
        EXPECT_EQ(stats.restart_segments, serial_stats.restart_segments);
        // Multi-segment scans from our own encoder always partition cleanly;
        // a one-lane pool decodes serially.
        EXPECT_EQ(stats.parallel, stats.restart_segments > 1 && threads > 1)
            << "restart=" << restart << " threads=" << threads;
      }
      exec::configure(exec::Config{});
    }
  }
}

TEST(ParallelDecode, ReportsSegmentCountAndDecodesSeriallyOnOneLane) {
  ThreadGuard guard;
  exec::configure(exec::Config{kParallelLanes});
  const RgbImage img = scene(96, 64);
  // 96x64 in 4:4:4 = 12x8 MCUs; restart every 5 MCUs = ceil(96/5) = 20
  // segments.
  const Bytes stream = encode(img, 75, 5);
  ParseStats stats;
  (void)parse(stream, &stats);
  EXPECT_EQ(stats.restart_interval, 5);
  EXPECT_EQ(stats.restart_segments, 20);
  EXPECT_TRUE(stats.parallel);
  ParseStats one_lane;
  const CoefficientImage serial = parse_serial(stream, &one_lane);
  EXPECT_EQ(one_lane.restart_segments, 20);
  EXPECT_FALSE(one_lane.parallel);
  EXPECT_EQ(serial, parse(stream));
  // No restart interval: one segment, nothing to parallelize.
  ParseStats single;
  (void)parse(encode(img, 75, 0), &single);
  EXPECT_EQ(single.restart_interval, 0);
  EXPECT_EQ(single.restart_segments, 1);
  EXPECT_FALSE(single.parallel);
}

TEST(ParallelDecode, MatchesSerialWithStandardTablesAndHighDetail) {
  // Standard (mismatched) tables produce longer codes, exercising the fused
  // LUT's slow-path fallback for codes over 8 bits; a low-quality encode of
  // a busy scene exercises dense AC runs.
  ThreadGuard guard;
  exec::configure(exec::Config{kParallelLanes});
  const RgbImage img = scene(104, 72, 23);
  for (int quality : {25, 92}) {
    const Bytes stream =
        encode(img, quality, 4, ChromaMode::k444, HuffmanMode::kStandard);
    ASSERT_EQ(parse(stream), parse_serial(stream)) << "quality=" << quality;
  }
}

// ---------------------------------------------------------------------------
// The marker-aware segment scanner, on synthetic byte streams.

TEST(SegmentScanner, SplitsAtMarkersAndSkipsStuffedBytes) {
  // Stuffed 0xFF 0x00 inside segment 0 must not split it; the RST0 marker
  // separates two segments whose ranges exclude the marker bytes.
  const std::vector<std::uint8_t> entropy = {0x12, 0xFF, 0x00, 0x34,
                                             0xFF, 0xD0, 0x56, 0x78};
  const auto segs = scan_restart_segments(entropy, 2);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].begin, 0u);
  EXPECT_EQ(segs[0].end, 4u);
  EXPECT_EQ(segs[1].begin, 6u);
  EXPECT_EQ(segs[1].end, 8u);
}

TEST(SegmentScanner, RejectsAnomalies) {
  const std::vector<std::uint8_t> ok = {0x11, 0xFF, 0xD0, 0x22};
  EXPECT_EQ(scan_restart_segments(ok, 2).size(), 2u);
  // Wrong expected count (markers present but too few/too many segments).
  EXPECT_TRUE(scan_restart_segments(ok, 1).empty());
  EXPECT_TRUE(scan_restart_segments(ok, 3).empty());
  // Out-of-sequence marker (RST1 where RST0 is due).
  const std::vector<std::uint8_t> wrong_seq = {0x11, 0xFF, 0xD1, 0x22};
  EXPECT_TRUE(scan_restart_segments(wrong_seq, 2).empty());
  // A non-restart marker terminates the scan: the segment ends there and the
  // count must line up.
  const std::vector<std::uint8_t> eoi = {0x11, 0xFF, 0xD0, 0x22, 0xFF, 0xD9};
  const auto segs = scan_restart_segments(eoi, 2);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[1].end, 4u);
  EXPECT_TRUE(scan_restart_segments(eoi, 3).empty());
}

TEST(SegmentScanner, DanglingTrailingFfStaysInFinalSegment) {
  // A truncated stream ending in a bare 0xFF: the scanner must not read past
  // the end; the byte lands in the final segment for the entropy decoder to
  // reject exactly as the serial path would.
  const std::vector<std::uint8_t> dangling = {0x11, 0xFF, 0xD0, 0x22, 0xFF};
  const auto segs = scan_restart_segments(dangling, 2);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[1].begin, 3u);
  EXPECT_EQ(segs[1].end, 5u);
}

// ---------------------------------------------------------------------------
// Fuzz differential: the parallel path (with its serial fallback) must be
// observationally identical to the serial decoder on corrupt input — same
// accept/reject outcome, same image, same error message.

Bytes mutate_stream(const Bytes& base, Rng& rng) {
  Bytes m = base;
  switch (rng.below(4)) {
    case 0: {  // bit flips
      const int flips = 1 + static_cast<int>(rng.below(8));
      for (int f = 0; f < flips; ++f)
        m[rng.below(m.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      break;
    }
    case 1:  // truncation
      m.resize(rng.below(m.size()));
      break;
    case 2: {  // corrupt the byte after some 0xFF (marker-targeted)
      std::vector<std::size_t> markers;
      for (std::size_t i = 0; i + 1 < m.size(); ++i)
        if (m[i] == 0xFF) markers.push_back(i + 1);
      if (!markers.empty())
        m[markers[rng.below(markers.size())]] =
            static_cast<std::uint8_t>(rng.below(256));
      break;
    }
    default: {  // overwrite a span with 0xFF bytes (forges markers)
      const std::size_t pos = rng.below(m.size());
      const std::size_t len =
          std::min<std::size_t>(1 + rng.below(4), m.size() - pos);
      for (std::size_t i = 0; i < len; ++i) m[pos + i] = 0xFF;
      break;
    }
  }
  return m;
}

TEST(FuzzDifferential, ParallelAndSerialAgreeOnMutants) {
  constexpr int kMutants = 2'500;
  // Mutants run in batches: each batch decodes on a one-lane pool first
  // (the serial reference), then on kParallelLanes lanes, so the pool is
  // rebuilt twice per batch rather than twice per mutant.
  constexpr int kBatch = 100;
  ThreadGuard guard;
  const RgbImage img = scene(96, 64, 31);
  const std::vector<Bytes> bases = {
      encode(img, 70, 3),
      encode(img, 55, 1, ChromaMode::k420),
      encode(img, 85, 16, ChromaMode::k444, HuffmanMode::kStandard),
  };
  struct Outcome {
    Bytes mutant;
    bool ok = true;
    std::string err;
    CoefficientImage img;
  };
  Rng rng("decode-differential");
  int rejected = 0;
  for (int batch = 0; batch < kMutants; batch += kBatch) {
    std::vector<Outcome> serial(kBatch);
    exec::configure(exec::Config{1});
    for (Outcome& o : serial) {
      o.mutant = mutate_stream(bases[rng.below(bases.size())], rng);
      try {
        o.img = parse(o.mutant);
      } catch (const ParseError& e) {
        o.ok = false;
        o.err = e.what();
      }
    }
    exec::configure(exec::Config{kParallelLanes});
    for (int i = 0; i < kBatch; ++i) {
      const Outcome& want = serial[static_cast<std::size_t>(i)];
      const int trial = batch + i;
      try {
        const CoefficientImage par_img = parse(want.mutant);
        ASSERT_TRUE(want.ok) << "trial " << trial
                             << ": parallel accepted what serial rejected ("
                             << want.err << ")";
        ASSERT_EQ(par_img, want.img) << "trial " << trial;
      } catch (const ParseError& e) {
        ASSERT_FALSE(want.ok)
            << "trial " << trial
            << ": parallel rejected what serial accepted: " << e.what();
        ASSERT_EQ(std::string(e.what()), want.err) << "trial " << trial;
        ++rejected;
      }
    }
  }
  EXPECT_GT(rejected, 0);  // the mix must actually reach the reject paths
}

// ---------------------------------------------------------------------------
// Band-engine decode vs the whole-plane reference.

TEST(ChunkedDecode, MatchesDecodeToRgbAcrossChunkSizes) {
  for (ChromaMode chroma : {ChromaMode::k444, ChromaMode::k420}) {
    for (const auto& [w, h] : std::vector<std::pair<int, int>>{
             {33, 33}, {64, 48}, {96, 200}, {120, 88}}) {
      const CoefficientImage coeffs = parse(encode(scene(w, h), 80, 0, chroma));
      const RgbImage want = reference::decode_to_rgb(coeffs);
      for (int rows : {1, 2, 5, 1000}) {
        ChunkOptions copt;
        copt.mcu_rows = rows;
        ChunkStats stats;
        const RgbImage got = decode_to_rgb(coeffs, copt, &stats);
        ASSERT_EQ(got, want) << w << "x" << h << " chunk=" << rows
                             << " chroma=" << static_cast<int>(chroma);
        EXPECT_LE(stats.chunk_mcu_rows, rows);
        EXPECT_GT(stats.chunks, 0);
        EXPECT_GT(stats.peak_chunk_bytes, 0u);
      }
    }
  }
}

TEST(ChunkedDecode, MatchesOnEverySupportedTier) {
  const CoefficientImage coeffs =
      parse(encode(scene(88, 72), 77, 0, ChromaMode::k420));
  ChunkOptions copt;
  copt.mcu_rows = 2;
  for (kernels::SimdTier tier : supported_tiers()) {
    kernels::configure(tier);
    const RgbImage want = reference::decode_to_rgb(coeffs);
    const RgbImage got = decode_to_rgb(coeffs, copt);
    EXPECT_EQ(got, want) << "tier=" << kernels::to_string(tier);
  }
  kernels::configure(kernels::detected_tier());
}

TEST(ChunkedDecode, PeakScratchIsHeightIndependent) {
  // Same width and chunk size, 4x the height: the band scratch must not
  // change — that is the bounded-memory claim of the streaming decoder.
  ChunkOptions copt;
  copt.mcu_rows = 2;
  ChunkStats small, tall;
  const CoefficientImage a = parse(encode(scene(96, 64), 80, 0));
  const CoefficientImage b = parse(encode(scene(96, 256), 80, 0));
  (void)decode_to_rgb(a, copt, &small);
  (void)decode_to_rgb(b, copt, &tall);
  EXPECT_EQ(small.peak_chunk_bytes, tall.peak_chunk_bytes);
  EXPECT_GT(tall.chunks, small.chunks);
}

// ---------------------------------------------------------------------------
// Streaming transcode vs the whole-plane inverse + clamp + forward.

TEST(ChunkedTranscode, MatchesInverseThenForwardPath) {
  for (ChromaMode in_chroma : {ChromaMode::k444, ChromaMode::k420}) {
    const CoefficientImage coeffs =
        parse(encode(scene(104, 120), 85, 0, in_chroma));
    for (ChromaMode out_chroma : {ChromaMode::k444, ChromaMode::k420}) {
      for (int rows : {1, 3, 1000}) {
        ChunkOptions copt;
        copt.mcu_rows = rows;
        ScanIndex want_scan, got_scan;
        const CoefficientImage want = reference::forward_transform(
            rgb_to_ycc(reference::decode_to_rgb(coeffs)), 60, out_chroma,
            &want_scan);
        ChunkStats stats;
        const CoefficientImage got =
            transcode_chunked(coeffs, 60, out_chroma, copt, &got_scan, &stats);
        ASSERT_EQ(got, want)
            << "in=" << static_cast<int>(in_chroma)
            << " out=" << static_cast<int>(out_chroma) << " chunk=" << rows;
        // Identical coefficients + identical scan masks => identical bytes.
        EXPECT_EQ(serialize(got, {}, &got_scan), serialize(want, {}, &want_scan));
        EXPECT_GT(stats.peak_chunk_bytes, 0u);
      }
    }
  }
}

TEST(ChunkedTranscode, PspStreamsIdentityChainRecompress) {
  // A transform chain that folds to the identity (a full D4 turn) must take
  // the streamed transcode path on the PSP's clamped-reencode branch — and
  // because D4 folding is exact, the served bytes must equal the jpeg-layer
  // streamed recompress of the retained parse, which tests above pin equal
  // to the materializing inverse+forward path. That byte identity is what
  // keeps the transform cache key honest about ignoring the execution path.
  psp::PspService psp;
  const Bytes upload = encode(scene(72, 96), 88, 0);
  const std::string id = psp.upload(upload, {});
  const transform::Chain full_turn{transform::rotate(90), transform::rotate(90),
                                   transform::rotate(90),
                                   transform::rotate(90)};
  ASSERT_TRUE(transform::canonicalize(full_turn).empty());
  const std::uint64_t streamed_before =
      metrics::counter("psp.codec.recompress_streamed").value();
  psp.apply_transform(id, full_turn, psp::DeliveryMode::kClampedReencode, 70);
  const psp::Download d = psp.download(id);
  EXPECT_EQ(metrics::counter("psp.codec.recompress_streamed").value(),
            streamed_before + 1);

  // PSP defaults: optimized Huffman, 4:4:4, restart every 64 MCUs.
  EncodeOptions eo;
  eo.restart_interval = psp::PspConfig{}.restart_interval;
  ScanIndex scan;
  const CoefficientImage want =
      transcode_chunked(parse(upload), 70, eo.chroma, {}, &scan);
  EXPECT_EQ(d.jfif, serialize(want, eo, &scan));
}

TEST(ChunkedTranscode, RecompressMatchesSerializeOfTranscode) {
  const CoefficientImage coeffs = parse(encode(scene(80, 64), 90, 0));
  EncodeOptions eo;
  eo.chroma = ChromaMode::k420;
  ScanIndex scan;
  const Bytes want = serialize(
      transcode_chunked(coeffs, 55, eo.chroma, {}, &scan), eo, &scan);
  EXPECT_EQ(recompress_chunked(coeffs, 55, eo), want);
  // And the round trip stays parseable.
  EXPECT_NO_THROW((void)parse(recompress_chunked(coeffs, 55, eo)));
}

}  // namespace
}  // namespace puppies::jpeg
