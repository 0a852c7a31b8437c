#include <gtest/gtest.h>

#include "puppies/common/rng.h"
#include "puppies/common/error.h"
#include "puppies/exec/pool.h"
#include "puppies/image/draw.h"
#include "puppies/image/metrics.h"
#include "puppies/jpeg/bitio.h"
#include "puppies/jpeg/codec.h"
#include "puppies/synth/synth.h"
#include "puppies/transform/transform.h"

#include "lossless_reference.h"

namespace puppies::jpeg {
namespace {

CoefficientImage random_coefficients(Rng& rng, int w, int h, int comps,
                                     int quality = 75) {
  CoefficientImage img(w, h, comps, luma_quant_table(quality),
                       chroma_quant_table(quality));
  for (int c = 0; c < comps; ++c) {
    Component& comp = img.component(c);
    for (CoefBlock& block : comp.blocks) {
      block[0] = static_cast<std::int16_t>(rng.range(kDcMin, kDcMax));
      for (int z = 1; z < 64; ++z) {
        // Realistic sparsity: most high-frequency coefficients are zero.
        if (rng.chance(0.6)) continue;
        block[static_cast<std::size_t>(z)] =
            static_cast<std::int16_t>(rng.range(kAcMin, kAcMax));
      }
    }
  }
  return img;
}

TEST(BitIo, RoundTripWithStuffing) {
  Bytes data;
  {
    BitWriter bw(data);
    bw.put(0xff, 8);  // must be stuffed
    bw.put(0x5, 3);
    bw.put(0x1abcd, 17);
    bw.flush();
  }
  // A stuffed 0x00 must follow the 0xff.
  ASSERT_GE(data.size(), 2u);
  EXPECT_EQ(data[0], 0xff);
  EXPECT_EQ(data[1], 0x00);
  BitReader br(data);
  EXPECT_EQ(br.get(8), 0xffu);
  EXPECT_EQ(br.get(3), 0x5u);
  EXPECT_EQ(br.get(17), 0x1abcdu);
}

TEST(Codec, SerializeParseRoundTripColor) {
  Rng rng("codec-color");
  for (const HuffmanMode mode : {HuffmanMode::kStandard, HuffmanMode::kOptimized}) {
    const CoefficientImage img = random_coefficients(rng, 64, 48, 3);
    const Bytes data = serialize(img, EncodeOptions{mode});
    EXPECT_EQ(parse(data), img);
  }
}

TEST(Codec, SerializeParseRoundTripGray) {
  Rng rng("codec-gray");
  const CoefficientImage img = random_coefficients(rng, 40, 24, 1);
  EXPECT_EQ(parse(serialize(img)), img);
}

TEST(Codec, RoundTripNonMultipleOf8Dimensions) {
  Rng rng("codec-odd");
  const CoefficientImage img = random_coefficients(rng, 37, 29, 3);
  const CoefficientImage back = parse(serialize(img));
  EXPECT_EQ(back.width(), 37);
  EXPECT_EQ(back.height(), 29);
  EXPECT_EQ(back, img);
}

TEST(Codec, RoundTripExtremeCoefficients) {
  // Every coefficient at a ring boundary must survive entropy coding: this
  // is what makes the perturbation ring choice sound (DESIGN.md §5.2).
  CoefficientImage img(16, 16, 3, luma_quant_table(50), chroma_quant_table(50));
  for (int c = 0; c < 3; ++c)
    for (CoefBlock& b : img.component(c).blocks) {
      b[0] = kDcMin;
      b[1] = kAcMax;
      b[2] = kAcMin;
      b[63] = kAcMax;
    }
  for (const HuffmanMode mode : {HuffmanMode::kStandard, HuffmanMode::kOptimized}) {
    EXPECT_EQ(parse(serialize(img, EncodeOptions{mode})), img);
  }
}

TEST(Codec, StartsWithSoiEndsWithEoi) {
  Rng rng("codec-markers");
  const Bytes data = serialize(random_coefficients(rng, 16, 16, 3));
  ASSERT_GE(data.size(), 4u);
  EXPECT_EQ(data[0], 0xff);
  EXPECT_EQ(data[1], 0xd8);
  EXPECT_EQ(data[data.size() - 2], 0xff);
  EXPECT_EQ(data[data.size() - 1], 0xd9);
}

TEST(Codec, ParseRejectsGarbage) {
  const Bytes garbage{1, 2, 3, 4};
  EXPECT_THROW(parse(garbage), ParseError);
  const Bytes truncated{0xff, 0xd8, 0xff};
  EXPECT_THROW(parse(truncated), ParseError);
}

TEST(Codec, ParseNamesUnsupportedFrameTypes) {
  // SOI, a one-component 16x16 SOFn header as libjpeg writes it, EOI.
  const auto header = [](std::uint8_t sof) {
    return Bytes{0xff, 0xd8, 0xff, sof,  0x00, 0x0b, 0x08, 0x00, 0x10,
                 0x00, 0x10, 0x01, 0x01, 0x11, 0x00, 0xff, 0xd9};
  };
  const auto message = [&](std::uint8_t sof) -> std::string {
    try {
      parse(header(sof));
    } catch (const ParseError& e) {
      return e.what();
    }
    return "parsed";
  };
  EXPECT_EQ(message(0xc2),
            "parse error: progressive JPEG (SOF2) not supported");
  EXPECT_EQ(message(0xc1),
            "parse error: extended sequential JPEG (SOF1) not supported");
  EXPECT_EQ(message(0xc9),
            "parse error: arithmetic-coded JPEG (SOF9) not supported");
  // Baseline gets past the frame header and fails on the missing scan.
  EXPECT_EQ(message(0xc0), "parse error: EOI before SOS");
}

TEST(Codec, OptimizedTablesNeverLargerThanStandardOnRealImages) {
  const synth::SceneImage scene = synth::generate(synth::Dataset::kPascal, 0);
  const CoefficientImage img = forward_transform(rgb_to_ycc(scene.image), 75);
  const std::size_t std_size =
      serialize(img, EncodeOptions{HuffmanMode::kStandard}).size();
  const std::size_t opt_size =
      serialize(img, EncodeOptions{HuffmanMode::kOptimized}).size();
  EXPECT_LE(opt_size, std_size);
}

TEST(Codec, EncodeDecodePixelFidelity) {
  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kPascal, 3, 160, 120);
  for (int quality : {50, 75, 90}) {
    const Bytes data = compress(scene.image, quality);
    const RgbImage back = decompress(data);
    EXPECT_GT(psnr(scene.image, back), quality >= 90 ? 32.0 : 26.0)
        << "quality " << quality;
  }
}

TEST(Codec, HigherQualityMeansHigherFidelityAndLargerFiles) {
  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kPascal, 5, 160, 120);
  const Bytes lo = compress(scene.image, 30);
  const Bytes hi = compress(scene.image, 90);
  EXPECT_LT(lo.size(), hi.size());
  EXPECT_LT(psnr(scene.image, decompress(lo)), psnr(scene.image, decompress(hi)));
}

TEST(Codec, InverseTransformIsUnclamped) {
  // A wildly perturbed coefficient image must produce out-of-range float
  // pixels rather than silently clamping (the linear shadow path depends
  // on it).
  CoefficientImage img(8, 8, 3, flat_quant_table(16), flat_quant_table(16));
  img.component(0).block(0, 0)[0] = 1000;  // DC far beyond displayable range
  const YccImage ycc = inverse_transform(img);
  EXPECT_GT(ycc.y.at(0, 0), 300.f);
}

TEST(Codec, RequantizeChangesTablesAndPreservesContent) {
  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kPascal, 7, 160, 120);
  const CoefficientImage img = forward_transform(rgb_to_ycc(scene.image), 90);
  const CoefficientImage requant = requantize(img, 40);
  EXPECT_EQ(requant.qtable(0), luma_quant_table(40));
  // Same scene, lower fidelity, fewer bytes.
  EXPECT_LT(serialize(requant).size(), serialize(img).size());
  EXPECT_GT(psnr(scene.image, decode_to_rgb(requant)), 22.0);
}

// Lossless transforms: the library's one folded block gather
// (transform::apply_lossless) against the step-at-a-time reference.

using transform::apply_lossless;

TEST(Lossless, Rotate90FourTimesIsIdentity) {
  Rng rng("lossless-rot");
  const CoefficientImage img = random_coefficients(rng, 32, 24, 3);
  const transform::Step r = transform::rotate(90);
  EXPECT_EQ(apply_lossless({r, r, r, r}, img), img);
  CoefficientImage turned = img;
  for (int i = 0; i < 4; ++i) {
    const CoefficientImage next = apply_lossless({r}, turned);
    EXPECT_EQ(next, reference::rotate90(turned)) << "turn " << i;
    turned = next;
  }
  EXPECT_EQ(turned, img);
}

TEST(Lossless, FlipsAreInvolutions) {
  Rng rng("lossless-flip");
  const CoefficientImage img = random_coefficients(rng, 32, 24, 3);
  for (const transform::Step& f : {transform::flip_h(), transform::flip_v()}) {
    EXPECT_EQ(apply_lossless({f, f}, img), img) << f.to_string();
    EXPECT_EQ(apply_lossless({f}, apply_lossless({f}, img)), img);
  }
  // A transpose is flip_h then rotate(270).
  const transform::Chain transpose{transform::flip_h(), transform::rotate(270)};
  EXPECT_EQ(apply_lossless(transpose, img), reference::transpose(img));
  EXPECT_EQ(apply_lossless(transpose, apply_lossless(transpose, img)), img);
}

TEST(Lossless, Rotate180EqualsBothFlips) {
  Rng rng("lossless-180");
  const CoefficientImage img = random_coefficients(rng, 32, 24, 3);
  EXPECT_EQ(apply_lossless({transform::rotate(180)}, img),
            apply_lossless({transform::flip_h(), transform::flip_v()}, img));
  EXPECT_EQ(apply_lossless({transform::rotate(180)}, img),
            reference::flip_vertical(reference::flip_horizontal(img)));
}

TEST(Lossless, CoefficientRotationMatchesPixelRotation) {
  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kPascal, 9, 64, 48);
  const CoefficientImage img = forward_transform(rgb_to_ycc(scene.image), 80);
  const GrayU8 rotated_pixels = [&] {
    const RgbImage dec =
        decode_to_rgb(apply_lossless({transform::rotate(90)}, img));
    return to_gray(dec);
  }();
  // Rotate the decoded original in the pixel domain.
  const RgbImage dec = decode_to_rgb(img);
  GrayU8 reference(48, 64);
  const GrayU8 dec_gray = to_gray(dec);
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 48; ++x)
      reference.at(x, y) = dec_gray.at(y, 48 - 1 - x);
  EXPECT_GT(psnr(rotated_pixels, reference), 48.0);
}

TEST(Lossless, CropAlignedExtractsBlocks) {
  Rng rng("lossless-crop");
  const CoefficientImage img = random_coefficients(rng, 64, 64, 3);
  const Rect r{16, 24, 32, 16};
  const CoefficientImage cropped =
      apply_lossless({transform::crop_aligned(r)}, img);
  EXPECT_EQ(cropped.width(), 32);
  EXPECT_EQ(cropped.height(), 16);
  EXPECT_EQ(cropped.component(0).block(0, 0), img.component(0).block(2, 3));
  EXPECT_EQ(cropped.component(2).block(3, 1), img.component(2).block(5, 4));
  EXPECT_EQ(cropped, reference::crop_aligned(img, r));
}

TEST(Lossless, NonAlignedDimensionsThrow) {
  Rng rng("lossless-bad");
  const CoefficientImage img = random_coefficients(rng, 36, 24, 3);
  EXPECT_THROW(apply_lossless({transform::rotate(90)}, img), InvalidArgument);
  // Cropping to 8-aligned sides first makes the rotation legal.
  const transform::Chain cropped_first{
      transform::crop_aligned(Rect{0, 0, 32, 24}), transform::rotate(90)};
  EXPECT_EQ(apply_lossless(cropped_first, img),
            reference::rotate90(
                reference::crop_aligned(img, Rect{0, 0, 32, 24})));
  const CoefficientImage ok = random_coefficients(rng, 32, 24, 3);
  transform::Step unaligned;  // the factory refuses this rect
  unaligned.kind = transform::Kind::kCropAligned;
  unaligned.rect = Rect{3, 0, 8, 8};
  EXPECT_THROW(apply_lossless({unaligned}, ok), InvalidArgument);
}

TEST(Lossless, EngineMatchesPerStepReferenceOnEveryChain) {
  // Every chain of up to 4 steps: same coefficients, quant tables and
  // exception type as the step-at-a-time reference, at one pool lane and at
  // four.
  struct Restore {
    ~Restore() { exec::configure(exec::Config{}); }
  } restore;
  Rng rng("lossless-diff");
  const std::vector<CoefficientImage> images = {
      random_coefficients(rng, 64, 48, 3),   // multiple-of-8 sides
      random_coefficients(rng, 60, 44, 3),   // bare rotates/flips throw
      random_coefficients(rng, 64, 48, 1)};  // grayscale
  for (const int lanes : {1, 4}) {
    exec::configure(exec::Config{lanes});
    for (const CoefficientImage& img : images) {
      const auto alphabet =
          transform::reference::lossless_alphabet(img.width(), img.height());
      for (const transform::Chain& chain :
           transform::reference::all_chains(alphabet, 4)) {
        const auto engine = transform::reference::outcome_of(
            [&] { return apply_lossless(chain, img); });
        const auto expect = transform::reference::outcome_of(
            [&] { return transform::reference::apply_lossless(chain, img); });
        ASSERT_TRUE(engine == expect)
            << lanes << " lanes, " << img.width() << "x" << img.height()
            << ": " << transform::reference::chain_name(chain) << "-> "
            << engine.error << " vs " << expect.error;
      }
    }
  }
}

}  // namespace
}  // namespace puppies::jpeg
