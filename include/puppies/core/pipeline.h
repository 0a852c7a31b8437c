#pragma once

#include "puppies/core/params.h"
#include "puppies/image/image.h"

namespace puppies::core {

/// One privacy policy the image owner attaches to a region: which rectangle,
/// how strongly to perturb it, and under which secret key (i.e. which
/// receiver group can undo it). Personalized sharing = different keys on
/// different ROIs.
struct RoiPolicy {
  Rect rect{};  ///< any pixel rect; the sender 8-aligns it outward
  SecretKey key;
  Scheme scheme = Scheme::kCompression;
  PrivacyLevel level = PrivacyLevel::kMedium;
  /// Section IV-D: number of matrix pairs cycled over the ROI's blocks.
  /// More pairs = more key material per ROI (176 bytes each).
  int matrix_count = 1;
};

/// Sender output: the perturbed image (safe to upload) plus the public
/// parameter record the PSP stores next to it.
struct ProtectResult {
  jpeg::CoefficientImage perturbed;
  PublicParameters params;
};

/// Sender side (Fig. 6): perturbs every policy's ROI in the coefficient
/// domain. ROI rects are aligned outward to the 8x8 block grid; overlapping
/// aligned ROIs are rejected (use split_disjoint upstream).
ProtectResult protect(const jpeg::CoefficientImage& original,
                      const std::vector<RoiPolicy>& policies);

/// Receiver side, scenario 1 (Fig. 7, no PSP transformation): recovers every
/// ROI whose matrix id is present in `keys`; others stay perturbed. Exact
/// (Lemma III.1). The empty-chain case of recover_lossless, with its checks.
jpeg::CoefficientImage recover(const jpeg::CoefficientImage& shared,
                               const PublicParameters& params,
                               const KeyRing& keys);

/// Receiver side, scenario 2, lossless PSP chain (rotate/flip/aligned crop):
/// exact coefficient-domain recovery. Works for all schemes including
/// PuPPIeS-Z. One copy of the download, in which recover_roi undoes each
/// keyed ROI where the folded chain moved its blocks. Throws
/// InvalidArgument if the chain contains a non-lossless step or moves
/// blocks of a 4:2:0 image, if the download's size, component count or
/// chroma mode contradicts the chain applied to the protected image, or if
/// a keyed ROI's rect fails PublicParameters::roi_fits.
jpeg::CoefficientImage recover_lossless(
    const jpeg::CoefficientImage& transformed, const PublicParameters& params,
    const transform::Chain& chain, const KeyRing& keys);

/// Receiver side, scenario 2, pixel-domain PSP chain (scaling, filtering,
/// arbitrary mixes; Fig. 8): shadow-ROI recovery. `transformed` is the
/// linear (unclamped float) pixel image served by the PSP. The shadow is
/// zero outside the keyed ROIs, so it is built, carried through the chain
/// and subtracted only over windows around them: each ROI's deltas are
/// inverse-transformed on a window the size of the ROI (one MCU of padding
/// each side in 4:2:0, the whole image when a 4:2:0 side is odd), and each
/// step grows a window by its footprint (transform::footprint). Windows
/// whose footprints meet are merged, so every output pixel is the
/// whole-frame shadow's bit for bit; windows that together cover the image
/// become one whole-image window. Apart from those whole-image windows, the
/// one image-sized buffer is the returned copy of `transformed`. Recompress
/// steps pass the shadow through unchanged (bounded approximation; see
/// DESIGN.md). Throws
/// InvalidArgument if the download's size contradicts the chain applied to
/// the protected image, if the chain fails transform::map_size or crops
/// outside the image, if the parameters are not a 3-component image within
/// jpeg::max_decode_pixels(), or if a keyed ROI fails
/// PublicParameters::roi_fits or uses PuPPIeS-Z (its shadow is undefined);
/// ROIs without keys are simply left perturbed.
YccImage recover_pixels(const YccImage& transformed,
                        const PublicParameters& params,
                        const transform::Chain& chain, const KeyRing& keys);

}  // namespace puppies::core
