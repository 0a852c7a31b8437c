// Whole-plane reference codec: the pixel <-> coefficient conversion written
// one whole component plane at a time — full-image chroma
// decimation/upsampling, border blocks read through Plane::clamped_at —
// with the same kernels as the library's band engine (jpeg/chunk.h). The
// differential suites (tests_chunked, tests_decode, tests_encode) check the
// engine's output against this independent formulation at every band size,
// thread count and SIMD tier.
#pragma once

#include "puppies/image/image.h"
#include "puppies/jpeg/codec.h"
#include "puppies/jpeg/coeffs.h"

namespace puppies::jpeg::reference {

/// Whole-plane forward_transform.
CoefficientImage forward_transform(const YccImage& img, int quality,
                                   ChromaMode mode = ChromaMode::k444,
                                   ScanIndex* scan = nullptr);

/// Single-component (grayscale) forward transform, which the library has
/// no entry point for; it feeds the gray serializer differential.
CoefficientImage forward_transform(const GrayU8& img, int quality,
                                   ScanIndex* scan = nullptr);

/// Whole-plane inverse_transform (float, unclamped).
YccImage inverse_transform(const CoefficientImage& coeffs);

/// ycc_to_rgb(inverse_transform(coeffs)).
RgbImage decode_to_rgb(const CoefficientImage& coeffs);

}  // namespace puppies::jpeg::reference
