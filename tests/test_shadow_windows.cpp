// Windowed pixel-domain recovery against the whole-frame reference
// (tests/shadow_reference.h). Contract: transform::apply and its window
// form produce the whole-plane kernels' floats bit for bit, the footprint
// bounds every pixel a step can make nonzero, and core::recover_pixels
// returns exactly the bytes of the whole-frame shadow subtraction (or
// throws the same exception type) for every chain of up to 3 steps and
// seeded 4-step chains, on 4:4:4 and 4:2:0 images whose sides are not
// multiples of 16, with ROIs on every image edge and adjacent ROIs, under
// partial, full and empty key rings, at 1 and 4 pool lanes.
#include <gtest/gtest.h>

#include <cstring>

#include "puppies/common/rng.h"
#include "puppies/core/pipeline.h"
#include "puppies/exec/pool.h"
#include "puppies/jpeg/codec.h"
#include "puppies/synth/synth.h"

#include "lossless_reference.h"
#include "shadow_reference.h"

namespace puppies {
namespace {

using transform::Chain;
using transform::Step;
using transform::reference::same_bits;

/// A w x h image of arbitrary (not 8-bit) values, signed and fractional.
YccImage noise(int w, int h, std::uint64_t seed) {
  Rng rng("shadow-windows/noise/" + std::to_string(seed));
  YccImage img(w, h);
  for (int c = 0; c < 3; ++c)
    for (float& v : img.component(c).pixels())
      v = static_cast<float>(rng.uniform() * 300.0 - 40.0);
  return img;
}

/// The pixel steps of the differential alphabet for a w x h image: scale
/// down, up and by a non-integer ratio, both 3x3 filters, an interior crop
/// and one reaching the right and bottom edges (in bounds only when the
/// sides are multiples of 8), the rotations and both flips.
std::vector<Step> pixel_alphabet(int w, int h) {
  const auto down8 = [](int v) { return v / 8 * 8; };
  return {transform::scale(w / 2, h / 2),
          transform::scale(w * 5 / 4, h * 5 / 4),
          transform::scale(w * 7 / 10, h * 9 / 10),
          transform::box_blur(),
          transform::sharpen(),
          transform::crop_aligned(Rect{8, 8, 32, 24}),
          transform::crop_aligned(Rect{8, 8, down8(w) - 8, down8(h) - 8}),
          transform::rotate(90),
          transform::rotate(180),
          transform::rotate(270),
          transform::flip_h(),
          transform::flip_v()};
}

TEST(Apply, PixelStepsMatchWholePlaneReference) {
  for (const auto& [w, h] : {std::pair{64, 48}, std::pair{61, 45},
                             std::pair{7, 3}, std::pair{1, 1}}) {
    const YccImage img = noise(w, h, static_cast<std::uint64_t>(w));
    for (const Step& s : pixel_alphabet(64, 48)) {
      const auto got = transform::reference::outcome_of(
          [&] { return transform::apply(s, img); });
      const auto want = transform::reference::outcome_of(
          [&] { return transform::reference::apply_step(s, img); });
      ASSERT_EQ(got.error, want.error) << s.to_string() << " " << w << "x" << h;
      if (got.value) {
        EXPECT_TRUE(same_bits(*got.value, *want.value))
            << s.to_string() << " " << w << "x" << h;
      }
    }
  }
}

TEST(Apply, WindowFormIsTheWholeImageApplyInsideTheFootprint) {
  // An image that is zero outside a window: the window form over the
  // step's footprint must be the whole-image kernel's pixels there, and the
  // whole-image output must be +0 everywhere else.
  const int w = 61, h = 45;
  Rng rng("shadow-windows/window-form");
  std::vector<Rect> windows{{0, 0, w, h},   {0, 0, 1, 1},   {60, 44, 1, 1},
                            {0, 10, 9, 20}, {40, 0, 21, 7}, {20, 30, 17, 15}};
  for (int i = 0; i < 24; ++i) {
    const int x = static_cast<int>(rng.below(w));
    const int y = static_cast<int>(rng.below(h));
    windows.push_back(Rect{x, y, 1 + static_cast<int>(rng.below(w - x)),
                           1 + static_cast<int>(rng.below(h - y))});
  }
  const YccImage values = noise(w, h, 7);
  for (const Rect& win : windows) {
    YccImage whole(w, h), part(win.w, win.h);
    for (int c = 0; c < 3; ++c) {
      whole.component(c).fill(0.f);
      for (int y = 0; y < win.h; ++y)
        for (int x = 0; x < win.w; ++x)
          part.component(c).at(x, y) = whole.component(c).at(
              win.x + x, win.y + y) =
              values.component(c).at(win.x + x, win.y + y);
    }
    for (const Step& s : pixel_alphabet(64, 48)) {
      if (!Rect{0, 0, w, h}.contains(s.rect) &&
          s.kind == transform::Kind::kCropAligned)
        continue;
      const std::string what = s.to_string() + " window " + win.to_string();
      const YccImage full = transform::reference::apply_step(s, whole);
      const Rect fp = transform::footprint(s, win, w, h);
      // A crop can remove the window: then nothing may be nonzero.
      const YccImage got = fp.empty()
                               ? YccImage()
                               : transform::apply(s, part, win, fp, w, h);
      for (int c = 0; c < 3; ++c) {
        const Plane<float>& f = full.component(c);
        for (int y = 0; y < f.height(); ++y)
          for (int x = 0; x < f.width(); ++x) {
            const float want = f.at(x, y);
            const float have = fp.contains(x, y)
                                   ? got.component(c).at(x - fp.x, y - fp.y)
                                   : 0.f;
            ASSERT_EQ(std::memcmp(&want, &have, sizeof(float)), 0)
                << what << " c=" << c << " at " << x << "," << y << ": "
                << want << " vs " << have;
          }
      }
    }
  }
}

/// One protected image of the chain differential: ROIs on the left, right,
/// top and bottom edges (the right and bottom ones reach into the padded
/// MCU grid when a side is not a multiple of the MCU) and two adjacent
/// ROIs, under three keys; the partial ring lacks the bottom ROI's key.
struct Protected {
  int w, h;
  core::PublicParameters params;
  core::KeyRing partial, full;
};

Protected protect_image(int w, int h, jpeg::ChromaMode chroma) {
  const int mcu = chroma == jpeg::ChromaMode::k420 ? 16 : 8;
  const int gw = (w + mcu - 1) / mcu * mcu;
  const int gh = (h + mcu - 1) / mcu * mcu;
  const jpeg::CoefficientImage original = jpeg::forward_transform(
      rgb_to_ycc(synth::generate(synth::Dataset::kPascal, 11, w, h).image), 75,
      chroma);
  const SecretKey a = SecretKey::from_label("shadow-windows/a");
  const SecretKey b = SecretKey::from_label("shadow-windows/b");
  const SecretKey c = SecretKey::from_label("shadow-windows/c");
  const int m3 = 3 * mcu;
  const core::ProtectResult r = core::protect(
      original,
      {core::RoiPolicy{Rect{0, mcu, 16, 16}, a},                 // left
       core::RoiPolicy{Rect{gw - 16, 0, 16, 16}, b,              // top right
                       core::Scheme::kBase},
       core::RoiPolicy{Rect{m3, gh - 16, 16, 16}, c},            // bottom
       core::RoiPolicy{Rect{mcu, m3, 16, 16}, a},                // adjacent
       core::RoiPolicy{Rect{mcu + 16, m3, 16, 16}, b,
                       core::Scheme::kNaive, core::PrivacyLevel::kHigh}});
  Protected p{w, h, r.params, {}, {}};
  for (const SecretKey& key : {a, b}) p.partial.add(key);
  for (const SecretKey& key : {a, b, c}) p.full.add(key);
  return p;
}

/// recover_pixels against the reference on one chain: same exception type,
/// or the same bytes.
void expect_same_recovery(const Protected& p, const Chain& chain,
                          const core::KeyRing& keys, const std::string& what) {
  std::pair<int, int> size{1, 1};
  try {
    size = transform::map_size(chain, p.w, p.h);
  } catch (const InvalidArgument&) {
  }
  const YccImage download =
      noise(std::max(size.first, 1), std::max(size.second, 1), 3);
  const auto got = transform::reference::outcome_of([&] {
    return core::recover_pixels(download, p.params, chain, keys);
  });
  const auto want = transform::reference::outcome_of([&] {
    return core::reference::recover_pixels(download, p.params, chain, keys);
  });
  ASSERT_EQ(got.error, want.error) << what;
  if (got.value) {
    ASSERT_TRUE(same_bits(*got.value, *want.value)) << what;
  }
}

struct Image {
  int w, h;
  jpeg::ChromaMode chroma;
};

std::string name_of(const Image& im) {
  return std::to_string(im.w) + "x" + std::to_string(im.h) +
         (im.chroma == jpeg::ChromaMode::k420 ? "_420" : "_444");
}

// Test names print the parameter; its padding bytes must not reach them.
void PrintTo(const Image& im, std::ostream* os) { *os << name_of(im); }

// 4:4:4 with sides a multiple of 8 (edge crops in bounds) and not; 4:2:0
// with even sides and with odd ones (whole-image decode window), the latter
// large enough that the ROIs' padded windows leave part of it uncovered. No
// side is a multiple of 16.
const Image kImages[] = {{72, 56, jpeg::ChromaMode::k444},
                         {70, 54, jpeg::ChromaMode::k444},
                         {72, 56, jpeg::ChromaMode::k420},
                         {119, 87, jpeg::ChromaMode::k420}};

class ShadowWindows : public ::testing::TestWithParam<Image> {};

TEST_P(ShadowWindows, EveryShortChainMatchesWholeFrameReference) {
  const Image& im = GetParam();
  const Protected p = protect_image(im.w, im.h, im.chroma);
  std::vector<Step> alphabet = pixel_alphabet(im.w, im.h);
  alphabet.push_back(transform::recompress(50));
  const std::vector<Chain> chains =
      transform::reference::all_chains(alphabet, 3);
  // Every chain on 4 lanes, the chains of up to 2 steps on 1 lane too.
  for (const int lanes : {4, 1}) {
    exec::configure(exec::Config{lanes});
    for (const Chain& chain : chains) {
      if (lanes == 1 && chain.size() > 2) continue;
      const std::string what = transform::reference::chain_name(chain) +
                               " lanes=" + std::to_string(lanes);
      expect_same_recovery(p, chain, p.partial, what);
      if (chain.size() <= 1) {
        expect_same_recovery(p, chain, p.full, what + " full ring");
        expect_same_recovery(p, chain, core::KeyRing{}, what + " no keys");
      }
    }
  }
  exec::configure(exec::Config{});
}

TEST_P(ShadowWindows, SeededFourStepChainsMatchWholeFrameReference) {
  const Image& im = GetParam();
  const Protected p = protect_image(im.w, im.h, im.chroma);
  std::vector<Step> alphabet = pixel_alphabet(im.w, im.h);
  alphabet.push_back(transform::recompress(50));
  Rng rng("shadow-windows/4-step");
  for (int i = 0; i < 240; ++i) {
    Chain chain;
    for (int k = 0; k < 4; ++k)
      chain.push_back(alphabet[rng.below(alphabet.size())]);
    const int lanes = i % 2 == 0 ? 1 : 4;
    exec::configure(exec::Config{lanes});
    expect_same_recovery(p, chain, i % 3 == 0 ? p.full : p.partial,
                         transform::reference::chain_name(chain) +
                             " lanes=" + std::to_string(lanes));
  }
  exec::configure(exec::Config{});
}

TEST(ShadowMerge, WindowsMeetingOnlyAMergedBoundMergeInALaterRound) {
  // A bar along the top and a bar down the right meet under a blur; their
  // bounding window then covers a third ROI in the bottom-left corner that
  // neither bar comes near. The merge must run to a fixed point: the
  // windows stay disjoint, and the next step merges no overlapping pair.
  // The corner ROI comes first, so its pixels are the first ones copied.
  const int w = 232, h = 200;
  const SecretKey key = SecretKey::from_label("shadow-windows/merge");
  const core::ProtectResult r = core::protect(
      jpeg::forward_transform(
          rgb_to_ycc(
              synth::generate(synth::Dataset::kPascal, 12, w, h).image),
          75),
      {core::RoiPolicy{Rect{0, 160, 8, 8}, key},
       core::RoiPolicy{Rect{0, 0, 168, 8}, key},
       core::RoiPolicy{Rect{176, 16, 8, 160}, key}});
  Protected p{w, h, r.params, {}, {}};
  p.full.add(key);
  for (const Chain& chain :
       {Chain{transform::box_blur(), transform::box_blur()},
        Chain{transform::box_blur(), transform::scale(150, 130),
              transform::sharpen()}})
    expect_same_recovery(p, chain, p.full,
                         transform::reference::chain_name(chain));
}

INSTANTIATE_TEST_SUITE_P(
    Images, ShadowWindows, ::testing::ValuesIn(kImages),
    [](const ::testing::TestParamInfo<Image>& info) {
      return name_of(info.param);
    });

}  // namespace
}  // namespace puppies
