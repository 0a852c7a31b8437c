#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "puppies/core/pipeline.h"
#include "puppies/image/metrics.h"
#include "puppies/jpeg/codec.h"
#include "puppies/synth/synth.h"

#include "lossless_reference.h"

namespace puppies::core {
namespace {

struct Fixture {
  synth::SceneImage scene;
  jpeg::CoefficientImage original;
  SecretKey face_key = SecretKey::from_label("fixture/face");
  SecretKey plate_key = SecretKey::from_label("fixture/plate");

  explicit Fixture(int index = 0, int w = 128, int h = 96)
      : scene(synth::generate(synth::Dataset::kPascal, index, w, h)),
        original(jpeg::forward_transform(rgb_to_ycc(scene.image), 75)) {}
};

std::vector<RoiPolicy> two_policies(const Fixture& f,
                                    Scheme scheme = Scheme::kCompression) {
  return {
      RoiPolicy{Rect{16, 16, 32, 24}, f.face_key, scheme,
                PrivacyLevel::kMedium},
      RoiPolicy{Rect{64, 48, 40, 24}, f.plate_key, scheme,
                PrivacyLevel::kHigh},
  };
}

TEST(Protect, ProducesPublicParamsAndPerturbedRois) {
  const Fixture f;
  const ProtectResult result = protect(f.original, two_policies(f));
  EXPECT_EQ(result.params.rois.size(), 2u);
  EXPECT_EQ(result.params.width, 128);
  EXPECT_NE(result.perturbed, f.original);
  // Matrix ids are one-way tags of the keys.
  EXPECT_EQ(result.params.rois[0].matrix_id, f.face_key.id());
  EXPECT_EQ(result.params.rois[1].matrix_id, f.plate_key.id());
  // ROI rects are block-aligned.
  for (const ProtectedRoi& roi : result.params.rois) {
    EXPECT_EQ(roi.rect.x % 8, 0);
    EXPECT_EQ(roi.rect.w % 8, 0);
  }
}

TEST(Protect, OverlappingPoliciesRejected) {
  const Fixture f;
  std::vector<RoiPolicy> policies = {
      RoiPolicy{Rect{16, 16, 32, 32}, f.face_key},
      RoiPolicy{Rect{40, 40, 16, 16}, f.plate_key},  // overlaps after align
  };
  EXPECT_THROW(protect(f.original, policies), InvalidArgument);
}

TEST(Recover, FullKeyRingRestoresExactly) {
  const Fixture f;
  const ProtectResult result = protect(f.original, two_policies(f));
  KeyRing keys;
  keys.add(f.face_key);
  keys.add(f.plate_key);
  EXPECT_EQ(recover(result.perturbed, result.params, keys), f.original);
}

TEST(Recover, PartialKeyRingRestoresOnlyOwnedRois) {
  const Fixture f;
  const ProtectResult result = protect(f.original, two_policies(f));
  KeyRing only_face;
  only_face.add(f.face_key);
  const jpeg::CoefficientImage partial =
      recover(result.perturbed, result.params, only_face);
  EXPECT_NE(partial, f.original);

  // Face ROI blocks restored, plate ROI still perturbed.
  const Rect face_br =
      jpeg::CoefficientImage::pixel_to_block_rect(result.params.rois[0].rect);
  for (int by = face_br.y; by < face_br.bottom(); ++by)
    for (int bx = face_br.x; bx < face_br.right(); ++bx)
      EXPECT_EQ(partial.component(0).block(bx, by),
                f.original.component(0).block(bx, by));
  const Rect plate_br =
      jpeg::CoefficientImage::pixel_to_block_rect(result.params.rois[1].rect);
  bool any_diff = false;
  for (int by = plate_br.y; by < plate_br.bottom(); ++by)
    for (int bx = plate_br.x; bx < plate_br.right(); ++bx)
      any_diff |= partial.component(0).block(bx, by) !=
                  f.original.component(0).block(bx, by);
  EXPECT_TRUE(any_diff);
}

TEST(Recover, EmptyKeyRingChangesNothing) {
  const Fixture f;
  const ProtectResult result = protect(f.original, two_policies(f));
  EXPECT_EQ(recover(result.perturbed, result.params, KeyRing{}),
            result.perturbed);
}

TEST(Recover, PublicParamsSurviveSerialization) {
  const Fixture f;
  const ProtectResult result = protect(f.original, two_policies(f, Scheme::kZero));
  const PublicParameters parsed =
      PublicParameters::parse(result.params.serialize());
  EXPECT_EQ(parsed, result.params);
  KeyRing keys;
  keys.add(f.face_key);
  keys.add(f.plate_key);
  EXPECT_EQ(recover(result.perturbed, parsed, keys), f.original);
}

/// Lemma III.1 on every lossless chain of up to 4 steps. The parameter is a
/// chain prefix; the test extends it by every chain over the differential
/// alphabet (lossless_reference.h) up to 4 steps in all, and every chain the
/// PSP can apply to the image must recover exactly, for schemes C and Z,
/// with the full key ring and with the face key alone.
class LosslessChainRecovery
    : public ::testing::TestWithParam<transform::Chain> {};

TEST_P(LosslessChainRecovery, ExactAfterPspTransform) {
  const Fixture f;
  const transform::Chain& prefix = GetParam();
  const std::vector<transform::Chain> suffixes =
      transform::reference::all_chains(
          transform::reference::lossless_alphabet(f.original.width(),
                                                  f.original.height()),
          4 - static_cast<int>(prefix.size()));
  KeyRing full;
  full.add(f.face_key);
  full.add(f.plate_key);
  KeyRing face_only;
  face_only.add(f.face_key);
  for (const Scheme scheme : {Scheme::kCompression, Scheme::kZero}) {
    const ProtectResult result = protect(f.original, two_policies(f, scheme));
    const PublicParameters& params = result.params;
    // What each ring recovers without a PSP transform: the original, or the
    // original with the plate ROI still perturbed.
    const std::vector<std::pair<const KeyRing*, jpeg::CoefficientImage>>
        rings{{&full, f.original},
              {&face_only, recover(result.perturbed, params, face_only)}};
    int applied = 0;
    for (const transform::Chain& suffix : suffixes) {
      transform::Chain chain = prefix;
      chain.insert(chain.end(), suffix.begin(), suffix.end());
      // The PSP applies the chain to the perturbed coefficients; it refuses
      // chains the image's geometry cannot take.
      const auto transformed = transform::reference::outcome_of(
          [&] { return transform::apply_lossless(chain, result.perturbed); });
      if (!transformed.value) continue;
      ++applied;
      const jpeg::CoefficientImage& download = *transformed.value;
      for (const auto& [ring, unmoved] : rings) {
        const jpeg::CoefficientImage recovered =
            recover_lossless(download, params, chain, *ring);
        // Reference: the PSP transforms the recovered image instead.
        ASSERT_TRUE(recovered == transform::apply_lossless(chain, unmoved))
            << to_string(scheme) << " keys=" << ring->size() << ": "
            << transform::reference::chain_name(chain);
        // Every block outside the recovered ROIs is the download's.
        std::vector<Rect> landed;
        for (const ProtectedRoi& roi : params.rois)
          if (ring->find_set(roi.matrix_id, roi.matrix_count))
            landed.push_back(transform::map_rect(chain, roi.rect,
                                                 params.width, params.height));
        for (int c = 0; c < download.component_count(); ++c)
          for (int by = 0; by < download.blocks_h(); ++by)
            for (int bx = 0; bx < download.blocks_w(); ++bx) {
              if (std::any_of(landed.begin(), landed.end(),
                              [&](const Rect& r) {
                                return r.contains(bx * 8, by * 8);
                              }))
                continue;
              ASSERT_EQ(recovered.component(c).block(bx, by),
                        download.component(c).block(bx, by))
                  << transform::reference::chain_name(chain);
            }
      }
    }
    EXPECT_GT(applied, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Chains, LosslessChainRecovery,
    ::testing::Values(
        transform::Chain{transform::identity()},
        transform::Chain{transform::rotate(90)},
        transform::Chain{transform::rotate(180)},
        transform::Chain{transform::rotate(270)},
        transform::Chain{transform::flip_h()},
        transform::Chain{transform::flip_v()},
        transform::Chain{transform::crop_aligned(Rect{8, 8, 64, 48})},
        transform::Chain{transform::crop_aligned(Rect{32, 8, 96, 88})},
        transform::Chain{transform::crop_aligned(Rect{8, 8, 96, 64})},
        transform::Chain{transform::rotate(90), transform::flip_h()},
        transform::Chain{transform::crop_aligned(Rect{0, 0, 64, 64}),
                         transform::rotate(180)}),
    [](const ::testing::TestParamInfo<transform::Chain>& info) {
      std::string name;
      for (const transform::Step& s : info.param) {
        std::string step = s.to_string();
        for (char& c : step)
          if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
        name += step;
      }
      return name;
    });

TEST(RecoverLossless, CropDiscardsRoiOutsideWindow) {
  const Fixture f;
  const ProtectResult result = protect(f.original, two_policies(f));
  // Crop keeps only the first ROI area.
  const transform::Chain chain{transform::crop_aligned(Rect{0, 0, 64, 48})};
  jpeg::CoefficientImage transformed =
      transform::apply_lossless(chain, result.perturbed);
  KeyRing keys;
  keys.add(f.face_key);
  keys.add(f.plate_key);
  const jpeg::CoefficientImage recovered =
      recover_lossless(transformed, result.params, chain, keys);
  EXPECT_EQ(recovered, transform::apply_lossless(chain, f.original));
}

TEST(RecoverLossless, RejectsDownloadThatContradictsTheChain) {
  const Fixture f;
  const ProtectResult result = protect(f.original, two_policies(f));
  KeyRing keys;
  keys.add(f.face_key);
  // A claimed 64x48 crop served as a 32x32 image.
  const jpeg::CoefficientImage small = transform::apply_lossless(
      {transform::crop_aligned(Rect{0, 0, 32, 32})}, result.perturbed);
  EXPECT_THROW(
      recover_lossless(small, result.params,
                       {transform::crop_aligned(Rect{64, 48, 64, 48})}, keys),
      InvalidArgument);
  // A claimed crop served uncropped.
  EXPECT_THROW(
      recover_lossless(result.perturbed, result.params,
                       {transform::crop_aligned(Rect{0, 0, 64, 48})}, keys),
      InvalidArgument);
  // A claimed quarter turn of the 128x96 image served unturned.
  EXPECT_THROW(recover_lossless(result.perturbed, result.params,
                                {transform::rotate(90)}, keys),
               InvalidArgument);
  // A hostile crop whose right edge overflows int.
  transform::Step far;
  far.kind = transform::Kind::kCropAligned;
  far.rect = Rect{std::numeric_limits<int>::max() - 7, 0, 16, 16};
  EXPECT_THROW(recover_lossless(small, result.params, {far}, keys),
               InvalidArgument);
}

TEST(RecoverLossless, RejectsSubsampledOrMismatchedComponents) {
  const Fixture f;
  const ProtectResult result = protect(f.original, two_policies(f));
  KeyRing keys;
  keys.add(f.face_key);
  const jpeg::CoefficientImage subsampled = jpeg::forward_transform(
      rgb_to_ycc(f.scene.image), 75, jpeg::ChromaMode::k420);
  EXPECT_THROW(recover_lossless(subsampled, result.params,
                                {transform::identity()}, keys),
               InvalidArgument);
  const jpeg::CoefficientImage gray(128, 96, 1, result.params.luma_qtable,
                                    result.params.chroma_qtable);
  EXPECT_THROW(
      recover_lossless(gray, result.params, {transform::flip_h()}, keys),
      InvalidArgument);
  // Parameters of a 4:2:0 image served as 4:4:4.
  PublicParameters params420 = result.params;
  params420.chroma = jpeg::ChromaMode::k420;
  EXPECT_THROW(recover_lossless(result.perturbed, params420,
                                {transform::identity()}, keys),
               InvalidArgument);
}

TEST(RecoverPixels, ScalingRecoveryIsNearExact) {
  const Fixture f(1, 160, 120);
  const ProtectResult result = protect(f.original, two_policies(f));
  const transform::Chain chain{transform::scale(96, 72)};
  // PSP decodes (linear float) and scales.
  const YccImage transformed =
      transform::apply(chain, jpeg::inverse_transform(result.perturbed));

  KeyRing keys;
  keys.add(f.face_key);
  keys.add(f.plate_key);
  const YccImage recovered =
      recover_pixels(transformed, result.params, chain, keys);

  const YccImage reference =
      transform::apply(chain, jpeg::inverse_transform(f.original));
  EXPECT_GT(psnr(to_gray(ycc_to_rgb(recovered)),
                 to_gray(ycc_to_rgb(reference))),
            48.0);
}

TEST(RecoverPixels, FilterRecoveryIsNearExact) {
  const Fixture f(2, 128, 96);
  const ProtectResult result = protect(f.original, two_policies(f));
  const transform::Chain chain{transform::box_blur()};
  const YccImage transformed =
      transform::apply(chain, jpeg::inverse_transform(result.perturbed));
  KeyRing keys;
  keys.add(f.face_key);
  keys.add(f.plate_key);
  const YccImage recovered =
      recover_pixels(transformed, result.params, chain, keys);
  const YccImage reference =
      transform::apply(chain, jpeg::inverse_transform(f.original));
  EXPECT_GT(psnr(to_gray(ycc_to_rgb(recovered)),
                 to_gray(ycc_to_rgb(reference))),
            45.0);
}

TEST(RecoverPixels, WithoutKeysRoiStaysNoisy) {
  const Fixture f(3, 128, 96);
  const ProtectResult result = protect(f.original, two_policies(f));
  const transform::Chain chain{transform::scale(64, 48)};
  const YccImage transformed =
      transform::apply(chain, jpeg::inverse_transform(result.perturbed));
  const YccImage still_noisy =
      recover_pixels(transformed, result.params, chain, KeyRing{});
  const YccImage reference =
      transform::apply(chain, jpeg::inverse_transform(f.original));
  EXPECT_LT(psnr(to_gray(ycc_to_rgb(still_noisy)),
                 to_gray(ycc_to_rgb(reference))),
            25.0);
}

TEST(RecoverPixels, ZeroSchemeThrows) {
  const Fixture f(4);
  const ProtectResult result = protect(f.original, two_policies(f, Scheme::kZero));
  const transform::Chain chain{transform::scale(64, 48)};
  const YccImage transformed =
      transform::apply(chain, jpeg::inverse_transform(result.perturbed));
  KeyRing keys;
  keys.add(f.face_key);
  EXPECT_THROW(recover_pixels(transformed, result.params, chain, keys),
               InvalidArgument);
}

TEST(RecoverPixels, MixedLosslessAndPixelChain) {
  const Fixture f(5, 128, 96);
  const ProtectResult result = protect(f.original, two_policies(f));
  const transform::Chain chain{transform::rotate(180), transform::scale(64, 48)};
  const YccImage transformed =
      transform::apply(chain, jpeg::inverse_transform(result.perturbed));
  KeyRing keys;
  keys.add(f.face_key);
  keys.add(f.plate_key);
  const YccImage recovered =
      recover_pixels(transformed, result.params, chain, keys);
  const YccImage reference =
      transform::apply(chain, jpeg::inverse_transform(f.original));
  EXPECT_GT(psnr(to_gray(ycc_to_rgb(recovered)),
                 to_gray(ycc_to_rgb(reference))),
            45.0);
}

TEST(Protect, MultiMatrixRoundTripAndKeyRingSemantics) {
  // Section IV-D: an ROI protected with several matrix pairs still recovers
  // exactly — from the full key, or from a raw set of the right size, but
  // not from a set of the wrong cardinality.
  const Fixture f(7);
  std::vector<RoiPolicy> policies = {
      RoiPolicy{Rect{16, 16, 64, 48}, f.face_key, Scheme::kCompression,
                PrivacyLevel::kMedium, /*matrix_count=*/4}};
  const ProtectResult result = protect(f.original, policies);
  EXPECT_EQ(result.params.rois[0].matrix_count, 4);

  KeyRing with_key;
  with_key.add(f.face_key);
  EXPECT_EQ(recover(result.perturbed, result.params, with_key), f.original);

  KeyRing with_set;
  with_set.add(f.face_key.id(), MatrixSet::derive(f.face_key, 4));
  EXPECT_EQ(recover(result.perturbed, result.params, with_set), f.original);

  KeyRing wrong_count;
  wrong_count.add(f.face_key.id(), MatrixSet::derive(f.face_key, 2));
  EXPECT_NE(recover(result.perturbed, result.params, wrong_count),
            f.original);
}

TEST(Protect, MultiMatrixVariesDcPatternAcrossBlockRuns) {
  // With 2 pairs, block 0 and block 64 use different DC entries even though
  // k % 64 is equal.
  jpeg::CoefficientImage img(8 * 65, 8, 1, jpeg::flat_quant_table(16),
                             jpeg::flat_quant_table(16));
  for (jpeg::CoefBlock& b : img.component(0).blocks) b[0] = 100;
  const MatrixSet set = MatrixSet::derive(SecretKey::from_label("multi"), 2);
  perturb_roi(img, Rect{0, 0, 8 * 65, 8}, set, Scheme::kBase,
              params_for(PrivacyLevel::kMedium));
  // blocks 0 and 64 share k%64==0 but use different pairs.
  EXPECT_NE(img.component(0).block(0, 0)[0], img.component(0).block(64, 0)[0]);
}

TEST(KeyRing, AddAndFind) {
  KeyRing ring;
  const SecretKey key = SecretKey::from_label("ring");
  const std::string id = ring.add(key);
  ASSERT_NE(ring.find(id), nullptr);
  EXPECT_EQ(*ring.find(id), MatrixPair::derive(key));
  EXPECT_EQ(ring.find("missing"), nullptr);
  // Re-adding under the same id replaces, not duplicates.
  ring.add(key);
  EXPECT_EQ(ring.size(), 1u);
}

TEST(PublicParams, ByteSizeWithoutZindIsSmaller) {
  // Craft a coefficient that is guaranteed to wrap to zero under Z so the
  // ZInd accounting paths are exercised deterministically.
  const SecretKey key = SecretKey::from_label("zind-size");
  const MatrixPair pair = MatrixPair::derive(key);
  const RangeMatrix q = make_range_matrix(params_for(PrivacyLevel::kHigh));
  const int delta1 = pair.ac.p[1] % q[1];
  if (delta1 == 0) GTEST_SKIP() << "derived delta happens to be zero";

  jpeg::CoefficientImage img(32, 32, 3, jpeg::luma_quant_table(75),
                             jpeg::chroma_quant_table(75));
  img.component(0).block(0, 0)[1] =
      static_cast<std::int16_t>(wrap_sub(0, delta1, kAcRing));

  const ProtectResult result = protect(
      img, {RoiPolicy{Rect{0, 0, 32, 32}, key, Scheme::kZero,
                      PrivacyLevel::kHigh}});
  ASSERT_FALSE(result.params.rois[0].zind.empty());
  EXPECT_LT(result.params.byte_size_without_zind(),
            result.params.byte_size());
}

}  // namespace
}  // namespace puppies::core
