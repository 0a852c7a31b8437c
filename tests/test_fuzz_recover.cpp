// Hostile-PSP fuzzing of the receiver (in tests_fuzz: tier-1 reruns it under
// ASan and UBSan).
//
// Contract under test: core::recover, recover_lossless and recover_pixels,
// handed public parameters a PSP edited (hostile ROI rects, mutated wire
// bytes) next to a download of the protected image, either return or throw
// ParseError / InvalidArgument: never another exception type, a crash or
// undefined behaviour.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "puppies/common/error.h"
#include "puppies/common/rng.h"
#include "puppies/core/pipeline.h"
#include "puppies/jpeg/codec.h"
#include "puppies/synth/synth.h"

namespace puppies::core {
namespace {

constexpr int kMax = std::numeric_limits<int>::max();
constexpr int kMin = std::numeric_limits<int>::min();

/// A 64x48 protected image with one ROI per scheme the receiver walks, and
/// its downloads: as stored, through a crop + quarter turn, and scaled in
/// the pixel domain.
struct Shared {
  PublicParameters params;
  KeyRing keys;        ///< every ROI's key
  KeyRing pixel_keys;  ///< without the PuPPIeS-Z key (no pixel shadow)
  jpeg::CoefficientImage stored;
  transform::Chain lossless{transform::crop_aligned(Rect{8, 0, 48, 48}),
                            transform::rotate(90)};
  jpeg::CoefficientImage turned;
  transform::Chain pixel{transform::scale(32, 24)};
  YccImage scaled;
};

const Shared& shared() {
  static const Shared s = [] {
    const jpeg::CoefficientImage original = jpeg::forward_transform(
        rgb_to_ycc(synth::generate(synth::Dataset::kPascal, 5, 64, 48).image),
        75);
    const SecretKey c = SecretKey::from_label("fuzz-recover/c");
    const SecretKey b = SecretKey::from_label("fuzz-recover/b");
    const SecretKey z = SecretKey::from_label("fuzz-recover/z");
    ProtectResult r = protect(
        original, {RoiPolicy{Rect{8, 8, 24, 16}, c, Scheme::kCompression},
                   RoiPolicy{Rect{40, 8, 16, 16}, b, Scheme::kBase},
                   RoiPolicy{Rect{16, 32, 32, 16}, z, Scheme::kZero}});
    Shared out;
    out.params = std::move(r.params);
    out.stored = std::move(r.perturbed);
    for (const SecretKey& key : {c, b, z}) out.keys.add(key);
    for (const SecretKey& key : {c, b}) out.pixel_keys.add(key);
    out.turned = transform::apply_lossless(out.lossless, out.stored);
    out.scaled = transform::apply(out.pixel, jpeg::inverse_transform(out.stored));
    return out;
  }();
  return s;
}

/// Runs the three receivers on `params`; any exception but the two typed
/// ones fails the test.
void recover_all(const PublicParameters& params, const std::string& what) {
  const Shared& s = shared();
  const auto typed_only = [&](const char* receiver, auto&& fn) {
    try {
      fn();
    } catch (const ParseError&) {
    } catch (const InvalidArgument&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": " << receiver << " threw " << e.what();
    }
  };
  typed_only("recover", [&] { recover(s.stored, params, s.keys); });
  typed_only("recover_lossless", [&] {
    recover_lossless(s.turned, params, s.lossless, s.keys);
  });
  typed_only("recover_pixels", [&] {
    recover_pixels(s.scaled, params, s.pixel, s.pixel_keys);
  });
}

TEST(FuzzRecover, HostileRoiRectsAreRejected) {
  const Shared& s = shared();
  recover_all(s.params, "unedited");
  for (const Rect& rect : std::vector<Rect>{
           {kMax - 7, 0, 16, 16},  // the right edge overflows int
           {0, kMax - 7, 16, 16},
           {8, 8, kMax - 7, 16},
           {8, 8, 16, kMax - 7},
           {kMin, 0, 16, 16},
           {-8, 0, 16, 16},
           {0, -16, 16, 16},
           {0, 0, 0, 16},
           {0, 0, 16, -16},
           {0, 0, kMin, 16},
           {4, 0, 16, 16},    // not on the block grid
           {0, 0, 16, 12},
           {48, 32, 24, 24},  // past the image's block grid
           {0, 0, 1 << 30, 1 << 30}}) {
    const std::string what = "rect " + std::to_string(rect.x) + "," +
                             std::to_string(rect.y) + "," +
                             std::to_string(rect.w) + "," +
                             std::to_string(rect.h);
    // The first ROI (PuPPIeS-C) is one every receiver walks.
    PublicParameters params = s.params;
    params.rois[0].rect = rect;
    EXPECT_THROW(PublicParameters::parse(params.serialize()), ParseError)
        << what;
    // Handed over without parsing, the receivers refuse it themselves.
    EXPECT_THROW(recover(s.stored, params, s.keys), InvalidArgument) << what;
    EXPECT_THROW(recover_lossless(s.turned, params, s.lossless, s.keys),
                 InvalidArgument)
        << what;
    EXPECT_THROW(recover_pixels(s.scaled, params, s.pixel, s.pixel_keys),
                 InvalidArgument)
        << what;
  }
}

TEST(FuzzRecover, MutatedPublicParametersThrowOnlyTypedErrors) {
  constexpr int kMutants = 2000;
  const Bytes base = shared().params.serialize();
  const std::int32_t hostile[] = {kMax - 7, kMin, -8, 0, 8, 1 << 30, kMax};
  Rng rng("fuzz-recover-mutants");
  int parsed = 0;
  for (int trial = 0; trial < kMutants; ++trial) {
    Bytes m = base;
    switch (rng.below(3)) {
      case 0: {  // bit flips, anywhere
        const int flips = 1 + static_cast<int>(rng.below(8));
        for (int f = 0; f < flips; ++f)
          m[rng.below(m.size())] ^=
              static_cast<std::uint8_t>(1u << rng.below(8));
        break;
      }
      case 1: {  // a hostile 32-bit field: rect, mR, K, a count, the size
        const std::size_t at = rng.below(m.size() - 3);
        const auto v = static_cast<std::uint32_t>(
            hostile[rng.below(std::size(hostile))]);
        for (int i = 0; i < 4; ++i)
          m[at + static_cast<std::size_t>(i)] =
              static_cast<std::uint8_t>(v >> (24 - 8 * i));
        break;
      }
      default:  // truncation
        m.resize(rng.below(m.size()));
        break;
    }
    PublicParameters params;
    try {
      params = PublicParameters::parse(m);
    } catch (const ParseError&) {
      continue;
    } catch (const std::exception& e) {
      FAIL() << "trial " << trial << ": parse threw " << e.what();
    }
    ++parsed;
    recover_all(params, "trial " + std::to_string(trial));
  }
  EXPECT_GT(parsed, kMutants / 10);  // about a third parse
}

}  // namespace
}  // namespace puppies::core
