#pragma once

#include "puppies/common/bytes.h"
#include "puppies/image/image.h"
#include "puppies/jpeg/codec.h"
#include "puppies/jpeg/coeffs.h"

namespace puppies::jpeg {

/// The band engine (DESIGN.md §11, §13): every pixel <-> coefficient
/// conversion in the library — forward_transform, inverse_transform,
/// decode_to_rgb, compress and the entry points below — runs one MCU row at
/// a time through the same kernels (color convert -> chroma decimate ->
/// fdct8x8/quantize_scan forward; dequantize_idct -> chroma upsample ->
/// color convert inverse). A band of MCU rows is the unit of pool work: one
/// parallel region per call hands each pool lane a contiguous run of
/// bands, and each lane walks its bands in order in its own scratch. Every
/// kernel invocation sees exactly the rows a whole-plane codec would have
/// handed it, so coefficients, scan masks, pixels and serialized bytes are
/// identical for every band size, on every SIMD tier, at every thread count
/// (tests_chunked and tests_decode difference the engine against a
/// whole-plane reference kept in tests/).

/// Band-engine equivalent of forward_transform(rgb_to_ycc(img), ...): reads
/// the RGB planes row by row, never materializing the float YCbCr image.
CoefficientImage forward_transform_chunked(
    const RgbImage& img, int quality, ChromaMode mode = ChromaMode::k444,
    const ChunkOptions& copt = {}, ScanIndex* scan = nullptr,
    ChunkStats* stats = nullptr);

/// Band-engine equivalent of the serving-side clamp + re-encode:
/// forward_transform(rgb_to_ycc(ycc_to_rgb(ycc)), ...) without ever holding
/// the clamped RGB image or the round-tripped YCbCr planes. `ycc` is the
/// unclamped float result of a pixel-domain transform chain.
CoefficientImage forward_transform_clamped_chunked(
    const YccImage& ycc, int quality, ChromaMode mode = ChromaMode::k444,
    const ChunkOptions& copt = {}, ScanIndex* scan = nullptr,
    ChunkStats* stats = nullptr);

/// Streaming transcode: decode `coeffs`, clamp, and re-encode at `quality`
/// one band at a time, never materializing a full-resolution pixel plane on
/// either side. Each band decodes its own input rows (and, for 4:2:0
/// input, the chroma halo its upsampling taps read), so bands are fully
/// independent. The result is identical to
/// forward_transform_clamped_chunked(inverse_transform(coeffs), ...) — the
/// PSP recompress path streams through this when a transform chain folds to
/// the identity. Bands are counted in rows of the coarser of the input and
/// output MCU heights.
CoefficientImage transcode_chunked(const CoefficientImage& coeffs, int quality,
                                   ChromaMode mode = ChromaMode::k444,
                                   const ChunkOptions& copt = {},
                                   ScanIndex* scan = nullptr,
                                   ChunkStats* stats = nullptr);

/// transcode_chunked + serialize: recompress a parsed stream at a new
/// quality with bounded pixel memory. `encode_stats` (optional) receives
/// serialize()'s entropy-segment accounting.
Bytes recompress_chunked(const CoefficientImage& coeffs, int quality,
                         const EncodeOptions& opts = {},
                         const ChunkOptions& copt = {},
                         ChunkStats* stats = nullptr,
                         EncodeStats* encode_stats = nullptr);

// ---------------------------------------------------------------------------
// Compatibility block (see the one at the end of jpeg/codec.h): kept only
// for the frozen benchmark replay, which compiles against it.

/// Deleted by the benchmark change that moves the replay. Forwards to
/// recompress_chunked(coeffs, quality, opts, copt).
inline Bytes recompress_delta_chunked(const CoefficientImage& coeffs,
                                      const ScanSource&, int quality,
                                      const EncodeOptions& opts,
                                      const ChunkOptions& copt) {
  return recompress_chunked(coeffs, quality, opts, copt);
}

}  // namespace puppies::jpeg
