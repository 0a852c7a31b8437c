#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace puppies::kernels {

/// SIMD dispatch tiers, ordered weakest to strongest. Every tier produces
/// byte-identical results (see DESIGN.md §8): the float kernels run one
/// output column per vector lane with the scalar accumulation order, and the
/// kernel TUs are built with -ffp-contract=off so no tier fuses multiply-add.
enum class SimdTier : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// "scalar" / "sse2" / "avx2".
std::string_view to_string(SimdTier tier);

/// Parses a tier name (the --simd / PUPPIES_SIMD vocabulary). Throws
/// InvalidArgument on anything else.
SimdTier parse_tier(std::string_view name);

/// Per-QuantTable constants precomputed once and reused for every block
/// (jpeg::quant_constants builds one). All arrays are in natural (row-major)
/// order; `natural_of_zigzag` maps the output zig-zag position to its natural
/// index so quantize can run vectorized in natural order and permute once.
///
/// `recip` is a double reciprocal: lround(float(double(v) * recip)) equals
/// lround(v / step) for every float v and integer step in [1, 65535] (the
/// double path's relative error ~2^-52 is far below the ~2^-41 gap between
/// any representable quotient v/step and the nearest float rounding
/// boundary), so replacing the divide keeps quantize bit-exact.
struct QuantConstants {
  std::array<double, 64> recip;               ///< 1.0 / step
  std::array<float, 64> step;                 ///< step as float (dequantize)
  std::array<float, 64> lo, hi;               ///< clamp bounds per position
  std::array<std::uint8_t, 64> natural_of_zigzag;
};

/// Runtime-dispatched kernel table. All block pointers are 64-float or
/// 64-int16 8x8 blocks; "natural" is row-major, "zigzag" the JPEG scan
/// order. Inputs and outputs must not alias.
struct KernelTable {
  /// Forward 8x8 DCT-II, JPEG normalization (DC of constant v is 8v).
  void (*fdct8x8)(const float* in_natural, float* out_natural);
  /// Inverse of fdct8x8 up to float rounding.
  void (*idct8x8)(const float* in_natural, float* out_natural);
  /// raw natural-order coefficients -> clamped zig-zag int16 block.
  void (*quantize)(const float* raw_natural, const QuantConstants& qc,
                   std::int16_t* out_zigzag);
  /// zig-zag int16 block -> raw natural-order coefficients.
  void (*dequantize)(const std::int16_t* in_zigzag, const QuantConstants& qc,
                     float* out_natural);
  /// One row of JFIF full-range RGB -> YCbCr (n pixels).
  void (*rgb_to_ycc_row)(const std::uint8_t* r, const std::uint8_t* g,
                         const std::uint8_t* b, int n, float* y, float* cb,
                         float* cr);
  /// One row of YCbCr -> RGB, clamped to [0,255] with lround semantics.
  void (*ycc_to_rgb_row)(const float* y, const float* cb, const float* cr,
                         int n, std::uint8_t* r, std::uint8_t* g,
                         std::uint8_t* b);
  /// 2x box decimation of two adjacent rows into one output row of
  /// out_w = (in_w + 1) / 2 pixels; the odd-width tail column clamps.
  void (*downsample2x_row)(const float* row0, const float* row1, int in_w,
                           int out_w, float* out);
  /// Bilinear horizontal resample of two vertically pre-selected rows:
  /// out[x] = lerp taps at fx = (x + 0.5) * sx - 0.5 with vertical weight
  /// wy. Border taps clamp to [0, in_w - 1]; the interior runs unchecked.
  void (*upsample_row)(const float* row0, const float* row1, int in_w,
                       float sx, float wy, int out_w, float* out);
  /// Nonzero scan of a zig-zag int16 block: bit z set iff
  /// block_zigzag[z] != 0. The entropy encoder iterates set bits instead of
  /// testing all 63 AC positions per block.
  std::uint64_t (*nonzero_mask)(const std::int16_t* block_zigzag);
  /// quantize() fused with the nonzero scan: writes exactly quantize()'s
  /// output and returns nonzero_mask(out_zigzag) from the same pass.
  std::uint64_t (*quantize_scan)(const float* raw_natural,
                                 const QuantConstants& qc,
                                 std::int16_t* out_zigzag);
  /// dequantize() fused with idct8x8(): zig-zag int16 block straight to
  /// spatial samples through a tier-local temporary, so the decode loop
  /// never round-trips raw coefficients through a caller-side buffer.
  /// Bit-identical to dequantize() followed by idct8x8() on every tier.
  void (*dequantize_idct)(const std::int16_t* in_zigzag,
                          const QuantConstants& qc, float* out_natural);
};

/// Best tier this CPU supports (CPUID probe, cached).
SimdTier detected_tier();

/// True if `tier` can run on this CPU (and was compiled in).
bool tier_supported(SimdTier tier);

/// Kernel table for an explicit tier; throws InvalidArgument if the tier is
/// not supported on this machine. Used by the equivalence tests and benches.
const KernelTable& table_for(SimdTier tier);

/// Forces the dispatch tier (CLI --simd). Overrides PUPPIES_SIMD and CPUID;
/// throws InvalidArgument if unsupported. Not thread-safe against concurrent
/// kernel use (configure at startup, like exec::configure).
void configure(SimdTier tier);

/// The tier active() currently dispatches to. Resolution order:
/// configure() > PUPPIES_SIMD env var > CPUID. Also published as the
/// metrics gauge "kernels.simd_tier".
SimdTier active_tier();

/// The active kernel table. First call resolves the tier (thread-safe).
const KernelTable& active();

/// SHA-256 compression paths behind `Sha256` (common/digest.h). Every path
/// yields the same digest; kPortable is the FIPS 180-4 reference loop.
enum class Sha256Impl : int { kPortable = 0, kShaNi = 1 };

/// "portable" / "sha_ni".
std::string_view to_string(Sha256Impl impl);

/// True if `impl` can run here: kShaNi needs the compiled-in SHA-NI TU and
/// CPUID leaf 7 EBX bit 29 (SHA) plus SSE4.1. `Sha256(impl)` hashes on an
/// explicit path, which is how the differential tests and benches pick one.
bool sha256_impl_supported(Sha256Impl impl);

/// The path `Sha256` takes by default, resolved with the tier: the scalar
/// tier runs kPortable, any other tier kShaNi where supported. Published
/// as the metrics gauge "kernels.sha256_impl" (0 portable, 1 SHA-NI).
Sha256Impl active_sha256_impl();

/// The shared 8x8 DCT cosine tables every tier reads, so all tiers use
/// literally the same constants. cos_table()[u * 8 + x] =
/// 0.5 * C(u) * cos((2x+1) u pi / 16); cos_table_t is its transpose.
const float* cos_table();
const float* cos_table_t();

}  // namespace puppies::kernels
