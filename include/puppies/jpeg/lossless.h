#pragma once

#include "puppies/jpeg/coeffs.h"

namespace puppies::jpeg {

/// The lossless coefficient-domain block mover behind every crop, rotate and
/// flip (transform::apply_lossless, and core::recover_lossless per ROI
/// block): the PSP-side operations for which PUPPIES achieves bit-exact
/// recovery, since quantized blocks move to quantized blocks with no
/// re-rounding. jpegtran's transupp.c (libjpeg) does the same per-block
/// transposes and sign flips.
///
/// move_block writes block `in` as `d` leaves it into `out` (no aliasing)
/// through one of eight private zigzag permutation-and-sign tables: the one
/// owner of the D4 block convention.
void move_block(const CoefBlock& in, const Dihedral& d, CoefBlock& out);

/// move_blocks writes `d` applied to the pixel rect `from` of `src` into
/// `dst`, with the result's top-left block at block (to_bx, to_by) of `dst`.
/// `from` starts on the block grid; a side that is not a multiple of 8
/// covers its partial border block. Each output block is the source block
/// d^-1 maps it to, run through move_block. It is a pure gather over output
/// block rows on the exec pool, so the bytes do not depend on the lane
/// count. Both images must be 4:4:4 with equal component counts, `from` must
/// lie in src's block grid and the result in dst's; otherwise
/// InvalidArgument. Quant tables are left to the caller (see blank_like).
void move_blocks(const CoefficientImage& src, const Rect& from,
                 const Dihedral& d, CoefficientImage& dst, int to_bx,
                 int to_by);

/// An all-zero w x h image shaped like `img` (components, quant indices)
/// whose quant tables are img's as `d` leaves them: transposed when `d`
/// transposes, since Annex-K tables are not symmetric.
CoefficientImage blank_like(const CoefficientImage& img, int w, int h,
                            const Dihedral& d);

}  // namespace puppies::jpeg
