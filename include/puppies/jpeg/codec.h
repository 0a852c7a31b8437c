#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "puppies/common/bytes.h"
#include "puppies/image/image.h"
#include "puppies/jpeg/coeffs.h"

namespace puppies::jpeg {

/// Which Huffman tables serialize() uses.
///
/// kStandard = Annex K typical tables (what the paper's PuPPIeS-B overhead
/// numbers implicitly measure: default tables mismatched to perturbed
/// statistics). kOptimized = tables rebuilt from the actual symbol histogram
/// (libjpeg -optimize; the paper's fix in PuPPIeS-C).
enum class HuffmanMode { kStandard, kOptimized };

/// EncodeOptions::restart_interval value for one restart segment per MCU
/// row: serialize() writes a DRI of the image's mcu_cols().
inline constexpr int kRestartEveryMcuRow = -1;

struct EncodeOptions {
  HuffmanMode huffman = HuffmanMode::kOptimized;
  /// Chroma layout used by compress() when encoding pixels.
  ChromaMode chroma = ChromaMode::k444;
  /// Restart interval in MCUs (DRI segment + RSTn markers); 0 = none. The
  /// default, one segment per MCU row, lets serialize() write and parse()
  /// read the scan's segments on every exec pool lane for about 0.25% more
  /// bytes; restart markers also bound error propagation in damaged
  /// streams.
  int restart_interval = kRestartEveryMcuRow;
};

/// Per-block nonzero-coefficient masks (bit z set iff the zig-zag position z
/// of that block is nonzero), one vector per component in block row-major
/// order. The fused quantize→zigzag→scan kernel fills this during
/// forward_transform; serialize() then run-length codes by iterating set
/// bits instead of rescanning 64 coefficients per block. Purely an
/// accelerator: the encoded bytes never depend on whether an index is
/// supplied.
struct ScanIndex {
  std::vector<std::vector<std::uint64_t>> masks;

  /// True iff the index shape matches `img` (the validity precondition
  /// serialize() enforces before trusting the masks).
  bool matches(const CoefficientImage& img) const;
};

/// What serialize() spent and saved on the entropy-coded segment(s).
struct EncodeStats {
  /// Entropy-coded bytes emitted (scan data incl. stuffing and restart
  /// markers, excluding headers and EOI).
  std::size_t entropy_bytes = 0;
  /// Exact bytes the optimized tables saved vs the Annex K standard tables
  /// (priced from the symbol histograms; 0 in kStandard mode).
  std::size_t saved_bytes = 0;
};

/// Knob for the band engine (jpeg/chunk.h) behind every pixel <->
/// coefficient conversion.
struct ChunkOptions {
  /// Upper bound on MCU rows per band (one MCU row = 8 pixel rows in 4:4:4,
  /// 16 in 4:2:0); 0 means the built-in cap of 16. The engine cuts the
  /// image's MCU rows into equal bands of at most this many rows, the same
  /// number for every pool lane. Purely an execution knob: output is
  /// identical for every value.
  int mcu_rows = 0;
};

/// How the band engine scheduled one call.
struct ChunkStats {
  /// Pixel scratch one pool lane holds while it walks its bands. Depends on
  /// width, band rows and chroma mode — never on image height; `lanes`
  /// lanes hold one each at the same time.
  std::size_t peak_chunk_bytes = 0;
  int chunks = 0;          ///< bands processed
  int chunk_mcu_rows = 0;  ///< MCU rows per band (the last may be short)
  int lanes = 0;           ///< lanes the bands were split over
};

/// Pixel -> quantized-coefficient domain at the given JPEG quality, on the
/// band engine, reading the caller's float planes in place (no copy, no
/// clamp: out-of-range samples quantize as they are). `mode` selects
/// full-resolution (4:4:4) or subsampled (4:2:0) chroma. A non-null `scan`
/// is filled with per-block nonzero masks for serialize().
CoefficientImage forward_transform(const YccImage& img, int quality,
                                   ChromaMode mode = ChromaMode::k444,
                                   ScanIndex* scan = nullptr);

/// Coefficient -> pixel domain on the band engine, which writes rows
/// straight into the result. The YccImage is float and UNCLAMPED: perturbed
/// regions may exceed [0,255], and keeping them linear is what makes
/// shadow-ROI subtraction exact (DESIGN.md §5.3).
YccImage inverse_transform(const CoefficientImage& coeffs);

/// Decode straight to clamped 8-bit RGB (display path); equals
/// ycc_to_rgb(inverse_transform(coeffs)) without the float image.
RgbImage decode_to_rgb(const CoefficientImage& coeffs,
                       const ChunkOptions& copt = {},
                       ChunkStats* stats = nullptr);

/// Entropy-encodes a coefficient image into a JFIF byte stream. Lossless:
/// parse(serialize(x)) == x.
///
/// `scan` (optional) supplies precomputed nonzero masks from
/// forward_transform; a null or shape-mismatched index is recomputed on the
/// fly via the active nonzero_mask kernel, so output bytes are identical
/// either way. `stats` (optional) receives entropy-segment accounting.
Bytes serialize(const CoefficientImage& coeffs, const EncodeOptions& opts = {},
                const ScanIndex* scan = nullptr, EncodeStats* stats = nullptr);

/// What parse() observed in the entropy-coded scan.
struct ParseStats {
  /// The scan's restart interval in MCUs (the DRI value; 0 = none).
  int restart_interval = 0;
  /// Restart segments in the scan (1 when no restart interval is in force).
  int restart_segments = 0;
  /// True iff the scan decoded on the exec pool (segment-parallel path);
  /// false for single-segment scans, a one-lane pool, or a fallback.
  bool parallel = false;
};

/// One restart segment's byte range within an entropy-coded scan:
/// [begin, end) holds the segment's entropy bytes; the RSTn marker (or the
/// scan-terminating marker) sits at `end`.
struct ScanSegment {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Parses a JFIF stream produced by serialize() (baseline, 4:4:4 or gray).
/// Malformed or hostile input throws ParseError — never anything else, and
/// never an unbounded allocation: SOF dimensions whose pixel footprint
/// exceeds max_decode_pixels() are rejected before any buffer is sized.
///
/// Scans with restart intervals decode segment-parallel when the exec pool
/// has more than one lane (each segment gets its own BitReader and fresh DC
/// predictors — the exact inverse of serialize()'s segment writers);
/// anything the marker-aware segment scanner cannot cleanly partition falls
/// back to the serial decoder, so output bytes and error taxonomy are
/// identical to a serial decode at any thread count. A one-lane pool
/// (exec::configure({1})) always decodes serially.
CoefficientImage parse(std::span<const std::uint8_t> data,
                       ParseStats* stats = nullptr);

/// Marker-aware partition of an entropy-coded byte range at its RSTn
/// boundaries: O(bytes), stuffed-0xFF-safe, no entropy decoding. Returns
/// exactly `expected_segments` ranges when the scan's restart structure is
/// well formed (markers present, in RST0..RST7 sequence, right count before
/// the terminating marker), and an empty vector on any anomaly — the
/// caller's cue to decode serially and surface the serial error.
std::vector<ScanSegment> scan_restart_segments(
    std::span<const std::uint8_t> entropy, int expected_segments);

/// Decoder allocation guard: the largest width*height (in pixels) parse()
/// will accept from an SOF header. Default 1'000'000'000 (1 GP — both codec
/// directions stream MCU-row bands, so pixel scratch stays O(width × chunk
/// rows) and only the coefficient planes scale with the image), overridable
/// with the PUPPIES_MAX_PIXELS environment variable; a crafted 65535x65535
/// header would otherwise commit the decoder to multi-GB coefficient
/// buffers before a single MCU is decoded.
std::size_t max_decode_pixels();

/// Overrides the guard at runtime (tests, embedders); 0 restores the
/// env/default resolution.
void set_max_decode_pixels(std::size_t pixels);

/// End-to-end conveniences. compress() is forward_transform_chunked +
/// serialize.
Bytes compress(const RgbImage& img, int quality,
               const EncodeOptions& opts = {}, const ChunkOptions& copt = {},
               ChunkStats* stats = nullptr);
RgbImage decompress(std::span<const std::uint8_t> data);

/// The PSP-side "compression" transform: requantizes all coefficients to a
/// coarser quality level (new tables, values re-rounded).
CoefficientImage requantize(const CoefficientImage& coeffs, int new_quality);

// ---------------------------------------------------------------------------
// Compatibility block: the removed ROI-delta entry points, kept as forwards
// only because the frozen benchmark replay (perfbench/e2e_load.cpp) compiles
// against them. Nothing else may call them.

/// Deleted by the benchmark change that moves the replay. Holds nothing.
struct ScanSource {};
/// Deleted by the benchmark change that moves the replay. Holds nothing.
struct DirtyMcuSet {};

/// Deleted by the benchmark change that moves the replay. Forwards to
/// parse(data, stats).
inline CoefficientImage parse(std::span<const std::uint8_t> data,
                              ParseStats* stats, ScanSource*) {
  return parse(data, stats);
}

/// Deleted by the benchmark change that moves the replay. Forwards to
/// serialize(coeffs, opts).
inline Bytes serialize_delta(const CoefficientImage& coeffs,
                             const EncodeOptions& opts, const ScanSource&,
                             const DirtyMcuSet&) {
  return serialize(coeffs, opts);
}

}  // namespace puppies::jpeg
