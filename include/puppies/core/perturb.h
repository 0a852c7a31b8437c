#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "puppies/core/matrix.h"
#include "puppies/jpeg/coeffs.h"

namespace puppies::transform {
struct LosslessMap;
}  // namespace puppies::transform

namespace puppies::core {

/// The four perturbation schemes of Section IV-B.
enum class Scheme : std::uint8_t {
  kNaive = 0,        ///< PuPPIeS-N: same P entry for every block's DC
  kBase = 1,         ///< PuPPIeS-B: per-block DC entries, full-range AC
  kCompression = 2,  ///< PuPPIeS-C: AC ranges limited by Q' (Algorithm 1)
  kZero = 3,         ///< PuPPIeS-Z: skip zero ACs, log new zeros (Algorithm 2)
};
std::string_view to_string(Scheme scheme);

/// Position of one coefficient inside a perturbed ROI. Matches the paper's
/// 28-bit ZInd encoding: 2 bits component ("layer"), 16 bits block index
/// within the ROI (row-major), 6 bits zig-zag coefficient index. The paper
/// also spends 4 padding bits; we count 28 for size accounting.
struct CoefPosition {
  std::uint8_t component = 0;
  std::uint32_t block = 0;
  std::uint8_t coef = 0;

  std::uint64_t packed() const {
    return (static_cast<std::uint64_t>(component) << 38) |
           (static_cast<std::uint64_t>(block) << 6) | coef;
  }
  bool operator==(const CoefPosition&) const = default;
};

/// A public set of coefficient positions: ZInd (new zeros, Algorithm 2) and
/// the wrap-index extension WInd (ring overflows; DESIGN.md §5.3).
class PositionSet {
 public:
  void add(CoefPosition p) { entries_.push_back(p); }
  /// Appends another set's entries in order; merging per-chunk sets in
  /// chunk order reproduces the sequential insertion order exactly.
  void append(const PositionSet& other) {
    entries_.insert(entries_.end(), other.entries_.begin(),
                    other.entries_.end());
  }
  const std::vector<CoefPosition>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  /// Paper accounting: 28 bits per entry.
  std::size_t bit_size() const { return entries_.size() * 28; }
  std::size_t byte_size() const { return (bit_size() + 7) / 8; }

  /// O(1)-lookup view for recovery loops.
  std::unordered_set<std::uint64_t> lookup() const;

  void serialize(ByteWriter& out) const;
  static PositionSet parse(ByteReader& in);

  bool operator==(const PositionSet&) const = default;

 private:
  std::vector<CoefPosition> entries_;
};

/// Per-ROI outputs of perturbation that become public parameters.
struct PerturbOutcome {
  PositionSet zind;  ///< PuPPIeS-Z only
  PositionSet wind;  ///< all schemes; empowers exact pixel-domain recovery
};

/// Perturbs the MCU-aligned pixel rect `roi` of `img` in place (sender
/// side, Algorithms 1/2 generalized over all four schemes). All components
/// are perturbed with the same matrix material, each independently. With a
/// multi-pair MatrixSet, block k uses pair (k/64) mod count (Section IV-D).
/// Throws InvalidArgument unless `roi` is MCU-aligned, non-empty and inside
/// the image's block grid.
PerturbOutcome perturb_roi(jpeg::CoefficientImage& img, const Rect& roi,
                           const MatrixSet& keys, Scheme scheme,
                           const PerturbParams& params);
PerturbOutcome perturb_roi(jpeg::CoefficientImage& img, const Rect& roi,
                           const MatrixPair& keys, Scheme scheme,
                           const PerturbParams& params);

/// Exact inverse of perturb_roi (receiver side, scenario 1 / Lemma III.1).
/// `zind` is required for Scheme::kZero and ignored otherwise. With `place`
/// (a chain folded by transform::fold_lossless), `img` is the chain's output
/// and `roi`, in protected coordinates, is recovered where the chain moved
/// its blocks; cropped-away blocks are skipped. The caller checks `roi`
/// against the protected geometry (recover_lossless does).
void recover_roi(jpeg::CoefficientImage& img, const Rect& roi,
                 const MatrixSet& keys, Scheme scheme,
                 const PerturbParams& params,
                 const PositionSet& zind = {},
                 const transform::LosslessMap* place = nullptr);
void recover_roi(jpeg::CoefficientImage& img, const Rect& roi,
                 const MatrixPair& keys, Scheme scheme,
                 const PerturbParams& params,
                 const PositionSet& zind = {});

/// Description of one perturbed ROI for delta reconstruction.
struct DeltaRoi {
  Rect roi;
  MatrixSet keys;
  Scheme scheme = Scheme::kCompression;
  PerturbParams params;
  const PositionSet* wind = nullptr;  ///< optional; nullptr = assume no wraps
};

/// Builds the "shadow" coefficient image: the effective additive delta the
/// listed ROIs applied, on a zero canvas with `geometry`'s size and quant
/// tables. Feeding this through the inverse DCT yields the pixel-domain
/// shadow ROI of Fig. 9. Scheme::kZero is rejected (its delta depends on the
/// original coefficients; see DESIGN.md limitations).
jpeg::CoefficientImage build_delta_image(const jpeg::CoefficientImage& geometry,
                                         const std::vector<DeltaRoi>& rois);

}  // namespace puppies::core
