#pragma once

// Internal contract between the dispatcher (kernels.cpp) and the per-tier
// translation units. Each tier TU defines a table_<tier>() accessor; a tier
// that is not compiled in simply has no TU (kernels.cpp gates on the
// PUPPIES_KERNELS_HAVE_* macros from CMake).
//
// Bit-exactness rules for every implementation in these TUs:
//  - float kernels: one output column per vector lane, accumulating in the
//    scalar order (x, then y/v/u ascending), first term by multiply (not
//    0 + term), separate mul/add instructions — never FMA;
//  - the TUs are compiled with -ffp-contract=off so the compiler cannot
//    introduce fused multiply-adds either;
//  - integer kernels must be exactly the seed algorithms.

#include <cmath>
#include <cstddef>

#include "puppies/kernels/kernels.h"

namespace puppies::kernels::detail {

const KernelTable& table_scalar();
#if defined(PUPPIES_KERNELS_HAVE_SSE2)
const KernelTable& table_sse2();
#endif
#if defined(PUPPIES_KERNELS_HAVE_AVX2)
const KernelTable& table_avx2();
#endif

// SHA-256 block functions: each absorbs `blocks` whole 64-byte blocks of
// `data` into the eight-word state (FIPS 180-4 order a..h). The portable
// loop is in digest.cpp, the SHA-NI one in its own TU built with -msha
// -msse4.1; both read the round constants from the one table in digest.cpp.
using Sha256Blocks = void (*)(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks);
alignas(16) extern const std::uint32_t kSha256RoundK[64];
void sha256_blocks_portable(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t blocks);
#if defined(PUPPIES_KERNELS_HAVE_SHANI)
void sha256_blocks_shani(std::uint32_t* state, const std::uint8_t* data,
                         std::size_t blocks);
#endif

/// Block function for `impl`; throws InvalidArgument if it cannot run here.
Sha256Blocks sha256_blocks_for(Sha256Impl impl);

// Scalar reference bodies, shared so the SIMD tiers can delegate border /
// tail handling (and whole kernels where vectorization does not pay) to the
// exact same code path the scalar tier runs.
void fdct8x8_scalar(const float* in, float* out);
void idct8x8_scalar(const float* in, float* out);
void quantize_scalar(const float* raw, const QuantConstants& qc,
                     std::int16_t* out);
std::uint64_t nonzero_mask_scalar(const std::int16_t* block_zigzag);
std::uint64_t quantize_scan_scalar(const float* raw, const QuantConstants& qc,
                                   std::int16_t* out);
void dequantize_scalar(const std::int16_t* in, const QuantConstants& qc,
                       float* out);
void rgb_to_ycc_px(const std::uint8_t* r, const std::uint8_t* g,
                   const std::uint8_t* b, int first, int n, float* y,
                   float* cb, float* cr);
void ycc_to_rgb_px(const float* y, const float* cb, const float* cr,
                   int first, int n, std::uint8_t* r, std::uint8_t* g,
                   std::uint8_t* b);
void downsample2x_px(const float* row0, const float* row1, int in_w,
                     int first, int out_w, float* out);
void upsample_px(const float* row0, const float* row1, int in_w, float sx,
                 float wy, int first, int n, float* out);
void upsample_row_scalar(const float* row0, const float* row1, int in_w,
                         float sx, float wy, int out_w, float* out);

/// Shared zigzag permute + nonzero-scan epilogue of quantize_scan: every
/// tier's divide/clamp/round core writes natural-order int16, then this one
/// loop reorders into zig-zag and accumulates the nonzero bitmask, so the
/// int16 output is identical to quantize() by construction.
inline std::uint64_t permute_zigzag_mask(const std::int16_t* nat,
                                         const QuantConstants& qc,
                                         std::int16_t* out) {
  std::uint64_t mask = 0;
  for (int z = 0; z < 64; ++z) {
    const std::int16_t v = nat[qc.natural_of_zigzag[z]];
    out[z] = v;
    mask |= static_cast<std::uint64_t>(v != 0) << z;
  }
  return mask;
}

/// lround with clamp for one already-divided value; kept inline so scalar
/// and tail paths share the exact sequence.
inline std::int16_t quantize_one(float raw, double recip, float lo,
                                 float hi) {
  const float r = static_cast<float>(static_cast<double>(raw) * recip);
  long q = std::lround(r);
  const long llo = static_cast<long>(lo), lhi = static_cast<long>(hi);
  if (q < llo) q = llo;
  if (q > lhi) q = lhi;
  return static_cast<std::int16_t>(q);
}

}  // namespace puppies::kernels::detail
