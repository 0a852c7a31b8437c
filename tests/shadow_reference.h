// Whole-frame reference for pixel-domain recovery: the shadow built as one
// image-sized delta, inverse-transformed, carried through the chain by
// whole-plane kernels and subtracted from every pixel. The differential
// suites check the library against it bit for bit: ShadowWindows.* and
// ShadowMerge.* (tests_core) and FuzzRecover.KeyedRoiGridsRecoverInBoundedTime
// (tests_fuzz) its windowed recover_pixels, and
// Apply.PixelStepsMatchWholePlaneReference and
// Apply.WindowFormIsTheWholeImageApplyInsideTheFootprint (tests_core) its
// window kernels.
#pragma once

#include "puppies/core/params.h"
#include "puppies/image/image.h"
#include "puppies/transform/transform.h"

namespace puppies::transform::reference {

/// One step over the whole image with whole-plane kernels: bilinear scale,
/// 3x3 convolution, and crops, rotations and flips as one gather each.
/// Identity and recompress go to the library.
YccImage apply_step(const Step& step, const YccImage& img);

/// Bitwise equality of two images: Plane's operator== compares floats, so
/// it calls -0.f equal to +0.f.
bool same_bits(const YccImage& a, const YccImage& b);

}  // namespace puppies::transform::reference

namespace puppies::core::reference {

/// The pixel-domain shadow of every ROI recoverable with `keys`, over the
/// whole image: decoded deltas around 0 (Fig. 9's shadow ROI generator for
/// the whole canvas).
YccImage build_shadow(const PublicParameters& params, const KeyRing& keys);

/// Recovery by subtracting the whole-frame shadow, replayed through the
/// chain one whole image at a time (recompress steps pass it through).
YccImage recover_pixels(const YccImage& transformed,
                        const PublicParameters& params,
                        const transform::Chain& chain, const KeyRing& keys);

}  // namespace puppies::core::reference
