#include "puppies/core/pipeline.h"

#include "puppies/exec/parallel_for.h"
#include "puppies/jpeg/codec.h"

namespace puppies::core {

namespace {

std::vector<DeltaRoi> recoverable_deltas(const PublicParameters& params,
                                         const KeyRing& keys) {
  std::vector<DeltaRoi> deltas;
  for (const ProtectedRoi& roi : params.rois) {
    const std::optional<MatrixSet> set =
        keys.find_set(roi.matrix_id, roi.matrix_count);
    if (!set.has_value()) continue;
    require(roi.scheme != Scheme::kZero,
            "pixel-domain recovery of a PuPPIeS-Z ROI is not possible; use a "
            "lossless chain or scheme B/C (DESIGN.md limitations)");
    deltas.push_back(DeltaRoi{roi.rect, *set, roi.scheme, roi.params,
                              &roi.wind});
  }
  return deltas;
}

}  // namespace

ProtectResult protect(const jpeg::CoefficientImage& original,
                      const std::vector<RoiPolicy>& policies) {
  ProtectResult result;
  result.perturbed = original;
  result.params.width = original.width();
  result.params.height = original.height();
  result.params.components = original.component_count();
  result.params.chroma = original.chroma_mode();
  result.params.luma_qtable = original.qtable(0);
  result.params.chroma_qtable = original.qtable(1);

  std::vector<Rect> aligned;
  const Rect grid{0, 0, original.blocks_w() * 8, original.blocks_h() * 8};
  // ROIs align to whole MCUs: 8 px for 4:4:4, 16 px for 4:2:0.
  const int mcu = original.mcu_pixels();
  for (const RoiPolicy& policy : policies) {
    const Rect rect = policy.rect.aligned_to(mcu, grid);
    require(!rect.empty(), "ROI policy rect is empty after alignment");
    for (const Rect& prev : aligned)
      require(!rect.intersects(prev),
              "aligned ROI rects overlap; split them disjointly first");
    aligned.push_back(rect);
  }

  for (std::size_t i = 0; i < policies.size(); ++i) {
    const RoiPolicy& policy = policies[i];
    const MatrixSet set = MatrixSet::derive(policy.key, policy.matrix_count);
    const PerturbParams params = params_for(policy.level);
    PerturbOutcome outcome = perturb_roi(result.perturbed, aligned[i], set,
                                         policy.scheme, params);
    ProtectedRoi roi;
    roi.id = static_cast<std::uint32_t>(i);
    roi.rect = aligned[i];
    roi.scheme = policy.scheme;
    roi.params = params;
    roi.matrix_id = policy.key.id();
    roi.matrix_count = policy.matrix_count;
    roi.zind = std::move(outcome.zind);
    roi.wind = std::move(outcome.wind);
    result.params.rois.push_back(std::move(roi));
  }
  return result;
}

jpeg::CoefficientImage recover(const jpeg::CoefficientImage& shared,
                               const PublicParameters& params,
                               const KeyRing& keys) {
  return recover_lossless(shared, params, {}, keys);
}

jpeg::CoefficientImage recover_lossless(
    const jpeg::CoefficientImage& transformed, const PublicParameters& params,
    const transform::Chain& chain, const KeyRing& keys) {
  // recover_roi finds the ROI blocks in the download through the chain's
  // geometry, so a download that contradicts it is rejected here. The fold
  // rejects moves of 4:2:0 images.
  require(transformed.component_count() == params.components &&
              transformed.chroma_mode() == params.chroma,
          "recover_lossless requires a download with the protected image's "
          "components and chroma");
  const transform::LosslessMap m = transform::fold_lossless(
      chain, params.width, params.height, transformed.subsampled());
  require(std::pair{transformed.width(), transformed.height()} ==
              transform::map_size(chain, params.width, params.height),
          "transform chain does not match the downloaded image size");

  // Perturbation moves with its blocks (Lemma III.1), so each keyed ROI is
  // recovered in place in the download, block by block where the chain put
  // it; every other block is the download's.
  jpeg::CoefficientImage out = transformed;
  for (const ProtectedRoi& roi : params.rois) {
    const std::optional<MatrixSet> set =
        keys.find_set(roi.matrix_id, roi.matrix_count);
    if (!set.has_value()) continue;  // not shared with this receiver
    require(params.roi_fits(roi.rect),
            "ROI rect outside the protected image's MCU grid");
    recover_roi(out, roi.rect, *set, roi.scheme, roi.params, roi.zind, &m);
  }
  return out;
}

YccImage build_shadow(const PublicParameters& params, const KeyRing& keys) {
  const std::vector<DeltaRoi> deltas = recoverable_deltas(params, keys);
  const jpeg::CoefficientImage delta_img = build_delta_image(
      jpeg::CoefficientImage(params.width, params.height, params.components,
                             params.luma_qtable, params.chroma_qtable,
                             params.chroma),
      deltas);
  YccImage shadow = jpeg::inverse_transform(delta_img);
  // inverse_transform applies the +128 level shift; a shadow is a pure
  // difference signal centred at 0.
  for (int c = 0; c < 3; ++c) {
    Plane<float>& plane = shadow.component(c);
    exec::parallel_for(static_cast<std::size_t>(plane.height()),
                       [&](std::size_t y) {
                         for (float& v : plane.row(static_cast<int>(y)))
                           v -= 128.f;
                       });
  }
  return shadow;
}

YccImage recover_pixels(const YccImage& transformed,
                        const PublicParameters& params,
                        const transform::Chain& chain, const KeyRing& keys) {
  // Checked before the shadow is built at the size the parameters claim.
  require(std::pair{transformed.width(), transformed.height()} ==
              transform::map_size(chain, params.width, params.height),
          "transform chain does not match the downloaded image size");
  YccImage shadow = build_shadow(params, keys);

  // Replay the PSP chain on the shadow; requantization is not linear, so the
  // shadow passes through recompress steps unchanged (bounded error).
  for (const transform::Step& s : chain) {
    if (s.kind == transform::Kind::kRecompress) continue;
    shadow = transform::apply(s, shadow);
  }

  YccImage out = transformed;
  for (int c = 0; c < 3; ++c) {
    Plane<float>& plane = out.component(c);
    const Plane<float>& s = shadow.component(c);
    exec::parallel_for_2d(plane.height(), plane.width(), [&](int y, int x) {
      plane.at(x, y) -= s.at(x, y);
    });
  }
  return out;
}

}  // namespace puppies::core
