#pragma once

#include <array>
#include <vector>

#include "puppies/common/bytes.h"
#include "puppies/image/image.h"
#include "puppies/jpeg/codec.h"
#include "puppies/jpeg/coeffs.h"

namespace puppies::transform {

/// The PSP-side image transformations PUPPIES supports (Table I columns).
/// 32 bits wide so `Step` has no padding bytes: its object representation is
/// fully determined by its fields (gtest prints it into parameterized test
/// names, which must not vary from run to run). The wire format stays one byte.
enum class Kind : std::uint32_t {
  kIdentity = 0,
  kScale,        ///< bilinear resize to (arg0 x arg1)
  kCropAligned,  ///< crop to 8-aligned `rect`
  kRotate90,     ///< clockwise
  kRotate180,
  kRotate270,
  kFlipH,
  kFlipV,
  kFilter3x3,    ///< convolution with `kernel` (filtering / blur / sharpen)
  kRecompress,   ///< requantize to quality arg0 (lossy "compression")
};

/// One transformation step with its public parameters. The PSP publishes the
/// steps it applied (the paper's "transformation type at PSP side" public
/// datum); receivers replay them on shadow ROIs.
struct Step {
  Kind kind = Kind::kIdentity;
  int arg0 = 0;
  int arg1 = 0;
  Rect rect{};
  std::array<float, 9> kernel{};

  /// True if this step can run losslessly in the coefficient domain.
  bool lossless() const;
  /// True if the step is linear in pixel values (shadow-ROI recoverable).
  bool linear() const;

  std::string to_string() const;
  bool operator==(const Step&) const = default;
};

using Chain = std::vector<Step>;

// Factories.
Step identity();
Step scale(int new_w, int new_h);
Step crop_aligned(const Rect& r);
Step rotate(int degrees_cw);  ///< 90 / 180 / 270
Step flip_h();
Step flip_v();
Step filter3x3(const std::array<float, 9>& kernel);
Step box_blur();
Step sharpen();
Step recompress(int quality);

/// Applies a step / chain in the float pixel domain (unclamped, linear).
/// Every step but recompress is the window form below over the whole image.
YccImage apply(const Step& step, const YccImage& img);
YccImage apply(const Chain& chain, YccImage img);

/// The window form of a step: the pixels in `out` (a rect of the step's
/// output) of `step` applied to a w x h image that equals `in` over the rect
/// `window` and is zero everywhere else. Taps are clamped to the w x h image
/// exactly as the whole-image apply clamps them, so the result equals that
/// apply's pixels in `out` bit for bit. Crops, rotations, flips and
/// identity must read only inside `window`. Throws InvalidArgument for
/// recompress (it reads whole blocks of the quantized image), for a window
/// or `out` outside its image, and where the whole-image apply throws.
YccImage apply(const Step& step, const YccImage& in, const Rect& window,
               const Rect& out, int w, int h);

/// The output pixels of `step` on a w x h image that can read a pixel of
/// `r`: for a scale, every output pixel whose clamped 2x2 bilinear taps
/// touch `r`; for a 3x3 filter, `r` grown by one pixel; for a crop, rotation
/// or flip, map_rect (empty if a crop removes `r`); `r` itself for identity
/// and recompress. Clipped to the output image. A step applied to an image
/// that is zero outside `r` leaves its output zero outside the footprint.
Rect footprint(const Step& step, const Rect& r, int w, int h);

/// A lossless chain folded into one move: crop the pixel rect `source` (the
/// whole image when the chain crops nothing; 8-aligned otherwise), then
/// apply `d`.
struct LosslessMap {
  Rect source;
  Dihedral d;
};

/// Folds a lossless chain on a w x h image into one LosslessMap. A crop
/// after a rotation or flip is pulled back through d^-1, since
/// crop . D == D . crop'. Each step is checked against the geometry it
/// would see if the chain ran one step at a time: 4:4:4 only (`subsampled`
/// false), multiple-of-8 sides before a rotate or flip, and an 8-aligned
/// crop inside the current image. Identity steps are skipped unchecked.
/// Throws InvalidArgument at the first failing or non-lossless step.
LosslessMap fold_lossless(const Chain& chain, int w, int h,
                          bool subsampled);

/// Applies a chain of lossless steps in the coefficient domain: one fold,
/// then one jpeg::move_blocks gather (throws as fold_lossless does).
jpeg::CoefficientImage apply_lossless(const Chain& chain,
                                      const jpeg::CoefficientImage& img);

/// Maps a pixel rect through a step/chain: where an ROI lands after the PSP
/// transformation (image size `w` x `h` before the step).
Rect map_rect(const Step& step, const Rect& r, int w, int h);
Rect map_rect(const Chain& chain, Rect r, int w, int h);
/// Output image size of a step applied to a w x h image. Throws
/// InvalidArgument for a scale target that is not positive and for any step
/// output over jpeg::max_decode_pixels(), so a chain from an untrusted peer
/// cannot size an image the decoder would refuse.
std::pair<int, int> map_size(const Step& step, int w, int h);
std::pair<int, int> map_size(const Chain& chain, int w, int h);

/// Chain (de)serialization for the PSP's public metadata. Filter taps are
/// stored in fixed point (1e-6); read_chain throws ParseError on a tap that
/// would not write back as itself, so a parsed chain re-encodes exactly.
void write_chain(ByteWriter& out, const Chain& chain);
Chain read_chain(ByteReader& in);

/// Canonical form of a chain for cache keying: two chains with equal
/// canonical forms produce byte-identical results in every delivery mode.
/// Three rewrites, each exactness-preserving (see DESIGN.md §7):
///   1. identity steps are dropped;
///   2. fields a step kind does not read are zeroed (e.g. a rotate's rect);
///   3. consecutive runs of rotations/flips — the dihedral group D4, whose
///      elements compose exactly as pixel/coefficient permutations — fold
///      into at most two steps ([flip_h] then [rotate]).
/// Scales, crops, filters, and recompressions are never merged.
Chain canonicalize(const Chain& chain);

// ---------------------------------------------------------------------------
// Compatibility block (see the one at the end of jpeg/codec.h): kept only
// for the frozen benchmark replay, which compiles against it.

/// Deleted by the benchmark change that moves the replay. Forwards to
/// apply_lossless(chain, img).
inline jpeg::CoefficientImage apply_lossless(const Chain& chain,
                                             const jpeg::CoefficientImage& img,
                                             jpeg::DirtyMcuSet*) {
  return apply_lossless(chain, img);
}

}  // namespace puppies::transform
