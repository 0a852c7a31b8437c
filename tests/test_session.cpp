#include <gtest/gtest.h>

#include "puppies/core/pipeline.h"
#include "puppies/image/draw.h"
#include "puppies/image/metrics.h"
#include "puppies/jpeg/codec.h"
#include "puppies/psp/session.h"
#include "puppies/synth/synth.h"

namespace puppies::psp {
namespace {

struct World {
  PspService psp;
  SecureChannel channel;
  OwnerDevice alice{"alice", psp, channel, 4242};
  ReceiverDevice bob{"bob", psp, channel};
  ReceiverDevice mallory{"mallory", psp, channel};
};

RgbImage portrait() {
  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kFeret, 6, 128, 192);
  return scene.image;
}

TEST(Session, ShareAndViewWithAndWithoutKeys) {
  World w;
  const RgbImage photo = portrait();
  const OwnerDevice::ShareOutcome outcome =
      w.alice.share(photo, {"bob"}, {}, Rect{32, 48, 64, 80});
  ASSERT_FALSE(outcome.rois.empty());
  EXPECT_GT(w.bob.private_bytes(), 0u);
  EXPECT_EQ(w.mallory.private_bytes(), 0u);

  const RgbImage bob_view = w.bob.view(outcome.image_id);
  const RgbImage mallory_view = w.mallory.view(outcome.image_id);
  // Bob's view is the exact decode of the original coefficients.
  const RgbImage reference =
      jpeg::decode_to_rgb(jpeg::forward_transform(rgb_to_ycc(photo), 75));
  EXPECT_EQ(bob_view, reference);
  // Mallory's view differs wherever the ROIs are.
  EXPECT_NE(mallory_view, reference);
  const Rect roi = outcome.rois[0];
  GrayU8 ref_roi(roi.w, roi.h), mal_roi(roi.w, roi.h);
  const GrayU8 rg = to_gray(reference), mg = to_gray(mallory_view);
  for (int y = 0; y < roi.h; ++y)
    for (int x = 0; x < roi.w; ++x) {
      ref_roi.at(x, y) = rg.clamped_at(roi.x + x, roi.y + y);
      mal_roi.at(x, y) = mg.clamped_at(roi.x + x, roi.y + y);
    }
  EXPECT_LT(psnr(ref_roi, mal_roi), 18.0);
}

TEST(Session, FreshKeyPerShare) {
  World w;
  const RgbImage photo = portrait();
  const auto a = w.alice.share(photo, {"bob"}, {}, Rect{32, 48, 64, 80});
  const auto b = w.alice.share(photo, {"bob"}, {}, Rect{32, 48, 64, 80});
  EXPECT_NE(a.key, b.key);
  EXPECT_NE(a.image_id, b.image_id);
}

TEST(Session, ViewAfterPspRotation) {
  World w;
  const RgbImage photo = portrait();
  const auto outcome = w.alice.share(photo, {"bob"}, {}, Rect{32, 48, 64, 80});
  w.psp.apply_transform(outcome.image_id, {transform::rotate(180)},
                        DeliveryMode::kCoefficients);
  const RgbImage bob_view = w.bob.view(outcome.image_id);
  const RgbImage reference = jpeg::decode_to_rgb(transform::apply_lossless(
      {transform::rotate(180)}, jpeg::forward_transform(rgb_to_ycc(photo), 75)));
  EXPECT_EQ(bob_view, reference);
}

TEST(Session, ViewAfterPspScaling) {
  // The paper's Fig. 16 model: a PSP that scales in float and never clamps.
  // The PSP serves JFIF only (a clamped re-encode loses the ROI), so the
  // test plays that PSP on the raw download and recovers with each
  // receiver's key ring.
  World w;
  const RgbImage photo = portrait();
  const auto outcome = w.alice.share(photo, {"bob"}, {}, Rect{32, 48, 64, 80});
  const transform::Chain chain{transform::scale(64, 96)};
  const Download d = w.psp.download(outcome.image_id);
  const YccImage scaled =
      transform::apply(chain, jpeg::inverse_transform(jpeg::parse(d.jfif)));
  const core::PublicParameters params =
      core::PublicParameters::parse(d.public_params);
  const auto view = [&](const std::string& receiver) {
    return ycc_to_rgb(core::recover_pixels(scaled, params, chain,
                                           w.channel.ring_for(receiver)));
  };
  const RgbImage bob_view = view("bob");
  const RgbImage reference = ycc_to_rgb(transform::apply(
      chain,
      jpeg::inverse_transform(jpeg::forward_transform(rgb_to_ycc(photo), 75))));
  EXPECT_GT(psnr(to_gray(reference), to_gray(bob_view)), 45.0);
  // Mallory sees the scaled image with the ROI still noisy.
  const RgbImage mallory_view = view("mallory");
  EXPECT_LT(psnr(to_gray(reference), to_gray(mallory_view)), 30.0);
}

TEST(Session, PreferencesShapeAutoRecommendation) {
  World w;
  // Alice has a history of rejecting every recommendation category; after
  // training, sharing a plain scene protects nothing automatically.
  for (int i = 0; i < 10; ++i)
    for (const roi::Category c : {roi::Category::kFace, roi::Category::kText,
                                  roi::Category::kObject})
      for (const Rect r : {Rect{0, 0, 16, 16}, Rect{0, 0, 64, 64},
                           Rect{0, 0, 200, 200}})
        w.alice.preferences().record(c, r, 256, 192, false);
  RgbImage plain(256, 192);
  fill_vgradient(plain, Color{90, 110, 140}, Color{150, 160, 170});
  fill_rect(plain, Rect{64, 64, 96, 64}, Color{30, 200, 40});  // salient blob
  const auto outcome = w.alice.share(plain, {"bob"});
  EXPECT_TRUE(outcome.rois.empty());
  // Nothing protected -> nothing shipped to Bob.
  EXPECT_EQ(w.bob.private_bytes(), 0u);
}

TEST(Session, ZeroSchemeSurvivesPixelDeliveryGracefully) {
  World w;
  ShareOptions options;
  options.scheme = core::Scheme::kZero;
  const RgbImage photo = portrait();
  const auto outcome =
      w.alice.share(photo, {"bob"}, options, Rect{32, 48, 64, 80});
  w.psp.apply_transform(outcome.image_id, {transform::scale(64, 96)},
                        DeliveryMode::kClampedReencode);
  // Z + pixel chain: recovery is impossible by design; the facade returns
  // the transformed perturbed view instead of throwing.
  const RgbImage bob_view = w.bob.view(outcome.image_id);
  EXPECT_EQ(bob_view.width(), 64);
  EXPECT_EQ(bob_view.height(), 96);
}

}  // namespace
}  // namespace puppies::psp
