#include <gtest/gtest.h>

#include "puppies/image/metrics.h"
#include "puppies/jpeg/codec.h"
#include "puppies/synth/synth.h"
#include "puppies/transform/transform.h"

#include "lossless_reference.h"

namespace puppies::transform {
namespace {

YccImage test_ycc(int index = 0, int w = 64, int h = 48) {
  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kPascal, index, w, h);
  return rgb_to_ycc(scene.image);
}

TEST(Step, FactoriesAndProperties) {
  EXPECT_TRUE(identity().lossless());
  EXPECT_TRUE(rotate(90).lossless());
  EXPECT_TRUE(crop_aligned(Rect{0, 0, 8, 8}).lossless());
  EXPECT_FALSE(scale(10, 10).lossless());
  EXPECT_FALSE(box_blur().lossless());
  EXPECT_FALSE(recompress(50).lossless());
  EXPECT_TRUE(scale(10, 10).linear());
  EXPECT_FALSE(recompress(50).linear());
  EXPECT_THROW(rotate(45), InvalidArgument);
  EXPECT_THROW(crop_aligned(Rect{1, 0, 8, 8}), InvalidArgument);
  EXPECT_THROW(scale(0, 5), InvalidArgument);
  EXPECT_THROW(recompress(0), InvalidArgument);
}

TEST(Apply, ScaleChangesSize) {
  const YccImage img = test_ycc();
  const YccImage scaled = apply(scale(32, 24), img);
  EXPECT_EQ(scaled.width(), 32);
  EXPECT_EQ(scaled.height(), 24);
}

TEST(Apply, ScaleIdentitySizeIsNearIdentity) {
  const YccImage img = test_ycc(1);
  const YccImage same = apply(scale(img.width(), img.height()), img);
  EXPECT_GT(psnr(to_gray(ycc_to_rgb(img)), to_gray(ycc_to_rgb(same))), 50.0);
}

TEST(Apply, RotationsComposeToIdentity) {
  const YccImage img = test_ycc(2);
  YccImage r = apply(rotate(90), img);
  r = apply(rotate(90), r);
  r = apply(rotate(180), r);
  EXPECT_EQ(ycc_to_rgb(r), ycc_to_rgb(img));
}

TEST(Apply, FlipsAreInvolutions) {
  const YccImage img = test_ycc(3);
  EXPECT_EQ(ycc_to_rgb(apply(flip_h(), apply(flip_h(), img))),
            ycc_to_rgb(img));
  EXPECT_EQ(ycc_to_rgb(apply(flip_v(), apply(flip_v(), img))),
            ycc_to_rgb(img));
}

TEST(Apply, CropExtractsRegion) {
  const YccImage img = test_ycc(4);
  const Rect r{8, 16, 24, 16};
  const YccImage cropped = apply(crop_aligned(r), img);
  EXPECT_EQ(cropped.width(), 24);
  EXPECT_EQ(cropped.height(), 16);
  EXPECT_FLOAT_EQ(cropped.y.at(0, 0), img.y.at(8, 16));
  EXPECT_FLOAT_EQ(cropped.y.at(23, 15), img.y.at(31, 31));
}

TEST(Apply, LinearStepsAreActuallyLinear) {
  // f(a + b) == f(a) + f(b) for the pixel-domain linear steps — the property
  // shadow-ROI recovery rests on.
  const YccImage a = test_ycc(5);
  const YccImage b = test_ycc(6);
  YccImage sum(a.width(), a.height());
  for (int c = 0; c < 3; ++c)
    for (int y = 0; y < a.height(); ++y)
      for (int x = 0; x < a.width(); ++x)
        sum.component(c).at(x, y) =
            a.component(c).at(x, y) + b.component(c).at(x, y);

  for (const Step& step : {scale(40, 30), box_blur(), sharpen(), rotate(90)}) {
    const YccImage fa = apply(step, a);
    const YccImage fb = apply(step, b);
    const YccImage fsum = apply(step, sum);
    double max_err = 0;
    for (int c = 0; c < 3; ++c)
      for (int y = 0; y < fsum.height(); ++y)
        for (int x = 0; x < fsum.width(); ++x)
          max_err = std::max(
              max_err,
              std::abs(static_cast<double>(fsum.component(c).at(x, y)) -
                       fa.component(c).at(x, y) - fb.component(c).at(x, y)));
    EXPECT_LT(max_err, 0.05) << step.to_string();
  }
}

TEST(Apply, SharpenKernelPreservesFlats) {
  YccImage flat(16, 16);
  flat.y.fill(100.f);
  const YccImage out = apply(sharpen(), flat);
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 16; ++x) EXPECT_NEAR(out.y.at(x, y), 100.f, 1e-3);
}

TEST(MapSize, AllSteps) {
  EXPECT_EQ(map_size(scale(10, 20), 64, 48), std::make_pair(10, 20));
  EXPECT_EQ(map_size(rotate(90), 64, 48), std::make_pair(48, 64));
  EXPECT_EQ(map_size(rotate(180), 64, 48), std::make_pair(64, 48));
  EXPECT_EQ(map_size(crop_aligned(Rect{0, 0, 16, 8}), 64, 48),
            std::make_pair(16, 8));
  EXPECT_EQ(map_size(box_blur(), 64, 48), std::make_pair(64, 48));
  const Chain chain{rotate(90), scale(10, 20)};
  EXPECT_EQ(map_size(chain, 64, 48), std::make_pair(10, 20));
}

TEST(MapRect, RotationsTrackCorners) {
  const Rect r{8, 16, 24, 8};
  // Rotate 180 in a 64x48 image.
  EXPECT_EQ(map_rect(rotate(180), r, 64, 48), (Rect{32, 24, 24, 8}));
  // Rotate 90 cw: (x,y) -> (h-1-y..., ...)
  const Rect r90 = map_rect(rotate(90), r, 64, 48);
  EXPECT_EQ(r90.w, r.h);
  EXPECT_EQ(r90.h, r.w);
  // Map back with 270 should return the original.
  EXPECT_EQ(map_rect(rotate(270), r90, 48, 64), r);
}

TEST(MapRect, FlipAndCrop) {
  EXPECT_EQ(map_rect(flip_h(), Rect{0, 0, 8, 8}, 64, 48),
            (Rect{56, 0, 8, 8}));
  EXPECT_EQ(map_rect(crop_aligned(Rect{8, 8, 32, 32}), Rect{16, 16, 8, 8}, 64,
                     48),
            (Rect{8, 8, 8, 8}));
  EXPECT_EQ(map_rect(scale(32, 24), Rect{8, 8, 16, 16}, 64, 48),
            (Rect{4, 4, 8, 8}));
}

TEST(Chain, SerializationRoundTrip) {
  const Chain chain{rotate(90), scale(100, 80),
                    crop_aligned(Rect{8, 16, 32, 24}), box_blur(),
                    recompress(60)};
  ByteWriter w;
  write_chain(w, chain);
  ByteReader r(w.bytes());
  const Chain back = read_chain(r);
  ASSERT_EQ(back.size(), chain.size());
  for (std::size_t i = 0; i < chain.size(); ++i) {
    EXPECT_EQ(back[i].kind, chain[i].kind);
    EXPECT_EQ(back[i].arg0, chain[i].arg0);
    EXPECT_EQ(back[i].rect, chain[i].rect);
    for (int k = 0; k < 9; ++k)
      EXPECT_NEAR(back[i].kernel[static_cast<std::size_t>(k)],
                  chain[i].kernel[static_cast<std::size_t>(k)], 1e-5);
  }
}

TEST(Chain, ParseRejectsUnknownKind) {
  ByteWriter w;
  w.u32(1);
  w.u8(99);  // invalid kind
  for (int i = 0; i < 6 + 9; ++i) w.i32(0);
  ByteReader r(w.bytes());
  EXPECT_THROW(read_chain(r), ParseError);
}

TEST(Chain, ParseRejectsTapsThatDoNotReencode) {
  // A filter tap is read as float(micros) * 1e-6. Every tap in [-8, 8] writes
  // back as the same float; -9202827 (the smallest such magnitude) does
  // not, so the parsed chain would re-encode as a different one.
  const auto one_filter = [](std::int32_t tap) {
    ByteWriter w;
    w.u32(1);
    w.u8(static_cast<std::uint8_t>(Kind::kFilter3x3));
    for (int i = 0; i < 6; ++i) w.i32(0);
    for (int i = 0; i < 9; ++i) w.i32(i == 4 ? tap : 0);
    return w.take();
  };
  for (const std::int32_t tap : {-8'000'000, 8'000'000, 111'111}) {
    const Bytes wire = one_filter(tap);
    ByteReader r(wire);
    const Chain chain = read_chain(r);
    ByteWriter again;
    write_chain(again, chain);
    EXPECT_EQ(again.bytes(), wire) << tap;
  }
  const Bytes hostile = one_filter(-9'202'827);
  ByteReader r(hostile);
  EXPECT_THROW(read_chain(r), ParseError);
}

TEST(Chain, ParseRejectsCountBeyondRemainingBytes) {
  // A count the remaining bytes cannot hold fails before any allocation:
  // 0xFFFFFFFF steps, and two steps with only one step's bytes behind them.
  for (const std::uint32_t count : {0xFFFFFFFFu, 2u}) {
    ByteWriter w;
    w.u32(count);
    w.u8(0);
    for (int i = 0; i < 6 + 9; ++i) w.i32(0);
    ByteReader r(w.bytes());
    EXPECT_THROW(read_chain(r), ParseError) << "count " << count;
  }
}

TEST(ApplyLossless, RejectsPixelSteps) {
  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kPascal, 7, 64, 48);
  const jpeg::CoefficientImage img =
      jpeg::forward_transform(rgb_to_ycc(scene.image), 75);
  EXPECT_THROW(apply_lossless({scale(32, 24)}, img), InvalidArgument);
  EXPECT_THROW(apply_lossless({box_blur()}, img), InvalidArgument);
}

TEST(ApplyLossless, AgreesWithPixelDomainOnRotation) {
  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kPascal, 8, 64, 48);
  const jpeg::CoefficientImage img =
      jpeg::forward_transform(rgb_to_ycc(scene.image), 85);
  const GrayU8 a =
      to_gray(jpeg::decode_to_rgb(apply_lossless({rotate(180)}, img)));
  const GrayU8 b = to_gray(
      ycc_to_rgb(apply(rotate(180), jpeg::inverse_transform(img))));
  EXPECT_GT(psnr(a, b), 48.0);
}

TEST(Apply, LosslessStepsMatchPerStepPlaneReference) {
  // Rotations, flips and crops go through one plane gather; on every chain
  // of up to 4 steps it must be float-equal to the per-step plane passes
  // and throw alike. Pixel planes take quarter turns at any size.
  for (const auto& [w, h] : {std::pair{64, 48}, std::pair{60, 44}}) {
    const YccImage img = test_ycc(4, w, h);
    for (const Chain& chain :
         reference::all_chains(reference::lossless_alphabet(w, h), 4)) {
      const auto got =
          reference::outcome_of([&] { return apply(chain, img); });
      const auto expect =
          reference::outcome_of([&] { return reference::apply(chain, img); });
      ASSERT_EQ(got.error, expect.error) << w << "x" << h;
      if (!got.value) continue;
      ASSERT_EQ(got.value->y, expect.value->y) << w << "x" << h;
      ASSERT_EQ(got.value->cb, expect.value->cb);
      ASSERT_EQ(got.value->cr, expect.value->cr);
    }
  }
}

TEST(Recompress, PixelAndCoefficientPathsAgree) {
  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kPascal, 9, 64, 48);
  const jpeg::CoefficientImage img =
      jpeg::forward_transform(rgb_to_ycc(scene.image), 90);
  const YccImage via_pixels =
      apply(recompress(40), jpeg::inverse_transform(img));
  const YccImage via_coeffs =
      jpeg::inverse_transform(jpeg::requantize(img, 40));
  EXPECT_GT(psnr(to_gray(ycc_to_rgb(via_pixels)),
                 to_gray(ycc_to_rgb(via_coeffs))),
            30.0);
}

}  // namespace
}  // namespace puppies::transform
