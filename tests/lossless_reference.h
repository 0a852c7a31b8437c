// Step-at-a-time reference for the lossless transforms: each rotate, flip
// and aligned crop written as its own pass over coefficient blocks (every
// block through natural order and back) or pixel planes, and a chain applied
// one step and one intermediate image at a time. The differential suites
// (Lossless.* in tests_jpeg, Canonicalize.* in tests_store, Apply.* in
// tests_core) check the library's one folded gather (jpeg/lossless.h,
// transform::apply_lossless) against this independent formulation on every
// chain the alphabet below spans.
#pragma once

#include <optional>
#include <string>
#include <typeinfo>
#include <vector>

#include "puppies/common/error.h"
#include "puppies/image/image.h"
#include "puppies/jpeg/coeffs.h"
#include "puppies/transform/transform.h"

namespace puppies::jpeg::reference {

/// Flips and rotations require multiple-of-8 sides, crops an 8-aligned rect
/// inside the image, and all of them 4:4:4; otherwise InvalidArgument.
CoefficientImage flip_horizontal(const CoefficientImage& img);
CoefficientImage flip_vertical(const CoefficientImage& img);
CoefficientImage transpose(const CoefficientImage& img);
CoefficientImage rotate90(const CoefficientImage& img);   ///< clockwise
CoefficientImage rotate180(const CoefficientImage& img);
CoefficientImage rotate270(const CoefficientImage& img);  ///< counter-clockwise
CoefficientImage crop_aligned(const CoefficientImage& img, const Rect& r);

}  // namespace puppies::jpeg::reference

namespace puppies::transform::reference {

/// One lossless step in the coefficient domain (InvalidArgument otherwise).
jpeg::CoefficientImage apply_lossless(const Step& step,
                                      const jpeg::CoefficientImage& img);
/// The chain one step at a time.
jpeg::CoefficientImage apply_lossless(const Chain& chain,
                                      jpeg::CoefficientImage img);

/// transform::apply with rotations, flips and crops done by their own
/// per-step plane passes (every other step kind goes to the library).
YccImage apply(const Chain& chain, YccImage img);

/// The differential alphabet for a w x h image: identity, the three
/// rotations, both flips, an interior crop, and a crop reaching the right
/// and bottom edge of the block grid (out of bounds when w or h is not a
/// multiple of 8, or after a quarter turn of a non-square image).
std::vector<Step> lossless_alphabet(int w, int h);

/// Every chain of 0..max_steps steps over `alphabet`.
std::vector<Chain> all_chains(const std::vector<Step>& alphabet,
                              int max_steps);

/// The chain's steps, for failure messages.
std::string chain_name(const Chain& chain);

/// What one call produced: its value, or the dynamic type of the library
/// error it threw.
template <typename T>
struct Outcome {
  std::optional<T> value;
  std::string error;

  bool operator==(const Outcome&) const = default;
};

template <typename Fn>
auto outcome_of(Fn&& fn) -> Outcome<decltype(fn())> {
  try {
    return {fn(), ""};
  } catch (const Error& e) {
    return {std::nullopt, typeid(e).name()};
  }
}

}  // namespace puppies::transform::reference
