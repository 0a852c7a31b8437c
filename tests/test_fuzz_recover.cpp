// Hostile-PSP fuzzing of the receiver (in tests_fuzz: tier-1 reruns it under
// ASan and UBSan).
//
// Contract under test: core::recover, recover_lossless and recover_pixels,
// handed a triple a PSP edited (hostile ROI rects, mutated public
// parameters, chains or download JFIF), either return or throw ParseError /
// InvalidArgument: never another exception type, a crash or undefined
// behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <vector>

#include "puppies/common/error.h"
#include "puppies/common/rng.h"
#include "puppies/core/pipeline.h"
#include "puppies/jpeg/codec.h"
#include "puppies/psp/psp.h"
#include "puppies/synth/synth.h"
#include "puppies/transform/transform.h"

#include "decode_limit.h"
#include "shadow_reference.h"

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

/// Runs `fn`; any exception but the two typed ones fails the test. True
/// iff it returned.
template <typename Fn>
bool typed_only(const std::string& what, Fn&& fn) {
  try {
    fn();
    return true;
  } catch (const ParseError&) {
  } catch (const InvalidArgument&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << " threw " << e.what();
  }
  return false;
}

/// Runs the three receivers on `params`.
void recover_all(const PublicParameters& params, const std::string& what) {
  const Shared& s = shared();
  const auto typed_only = [&](const char* receiver, auto&& fn) {
    core::typed_only(what + ": " + receiver, fn);
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

/// A chain as a peer sends it: through the wire format, past the factories'
/// checks.
transform::Chain over_wire(const transform::Chain& chain) {
  ByteWriter w;
  transform::write_chain(w, chain);
  const Bytes bytes = w.take();
  ByteReader r(bytes);
  return transform::read_chain(r);
}

TEST(FuzzRecover, HostileScaleTargetsAreRejected) {
  const jpeg::DecodeLimit limit(1'000'000);
  const Shared& s = shared();
  const YccImage decoded = jpeg::inverse_transform(s.stored);
  const auto raw_scale = [](int w, int h) {
    transform::Step step;
    step.kind = transform::Kind::kScale;
    step.arg0 = w;
    step.arg1 = h;
    return step;
  };
  // Each ends in the served 32x24, so only the bound can reject it.
  for (const transform::Step& hostile :
       {raw_scale(-8, 16), raw_scale(0, 24), raw_scale(16, kMin),
        raw_scale(2000, 1000), raw_scale(kMax, kMax)}) {
    const transform::Chain chain =
        over_wire({hostile, transform::scale(32, 24)});
    EXPECT_THROW(recover_pixels(s.scaled, s.params, chain, s.pixel_keys),
                 InvalidArgument)
        << hostile.to_string();
    EXPECT_THROW(transform::apply(chain, decoded), InvalidArgument)
        << hostile.to_string();
  }
}

TEST(FuzzRecover, MutatedChainsThrowOnlyTypedErrors) {
  // Byte-mutated chains of the triple: every one that parses goes to the
  // two receivers that replay a chain, with downloads of the size it maps
  // the protected image to, so the size check lets most of them through.
  constexpr int kMutants = 1500;
  const jpeg::DecodeLimit limit(1'000'000);
  const Shared& s = shared();
  ByteWriter w;
  transform::write_chain(
      w, {transform::crop_aligned(Rect{8, 0, 48, 48}), transform::rotate(90),
          transform::scale(40, 36), transform::box_blur(),
          transform::sharpen(), transform::flip_h(),
          transform::recompress(60)});
  const Bytes base = w.take();
  const std::int32_t hostile[] = {kMax - 7, kMin, -8, 0, 8, 1 << 30, kMax};
  Rng rng("fuzz-recover-chains");
  int parsed = 0, recovered = 0;
  for (int trial = 0; trial < kMutants; ++trial) {
    Bytes m = base;
    switch (rng.below(3)) {
      case 0: {  // bit flips, anywhere
        const int flips = 1 + static_cast<int>(rng.below(4));
        for (int f = 0; f < flips; ++f)
          m[rng.below(m.size())] ^=
              static_cast<std::uint8_t>(1u << rng.below(8));
        break;
      }
      case 1: {  // a hostile 32-bit field: the count, a size, a rect, a tap
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
    transform::Chain chain;
    try {
      ByteReader r(m);
      chain = transform::read_chain(r);
    } catch (const ParseError&) {
      continue;
    } catch (const std::exception& e) {
      FAIL() << "trial " << trial << ": read_chain threw " << e.what();
    }
    ++parsed;
    const std::string what = "trial " + std::to_string(trial);
    std::pair<int, int> size{0, 0};
    typed_only(what + ": map_size", [&] {
      size = transform::map_size(chain, s.params.width, s.params.height);
    });
    const bool sized = size.first > 0 && size.second > 0;
    const YccImage pixels =
        sized ? YccImage(size.first, size.second) : s.scaled;
    recovered += typed_only(what + ": recover_pixels", [&] {
      recover_pixels(pixels, s.params, chain, s.pixel_keys);
    });
    const jpeg::CoefficientImage coeffs =
        sized ? jpeg::CoefficientImage(size.first, size.second, 3,
                                       s.params.luma_qtable,
                                       s.params.chroma_qtable)
              : s.turned;
    typed_only(what + ": recover_lossless", [&] {
      recover_lossless(coeffs, s.params, chain, s.keys);
    });
  }
  EXPECT_GT(parsed, kMutants / 2);
  EXPECT_GT(recovered, kMutants / 20);  // some go all the way through
}

TEST(FuzzRecover, KeyedRoiGridsRecoverInBoundedTime) {
  // Parameters with thousands of keyed 8x8 ROIs on a 1000x1000 image, as a
  // hostile PSP may send them: a full grid of touching ROIs, a checkerboard
  // whose footprints meet under the blur, and a sparse grid that stays
  // apart. Windows merge in a few passes over the ROIs, never one ROI at a
  // time through a growing copy (which took 14 s on the full grid on a
  // 4-vCPU x86 host; these take ~0.2 s there), and the bytes are the
  // whole-frame reference's.
  constexpr int kSide = 1000;
  const jpeg::DecodeLimit limit(1'000'000);
  const SecretKey key = SecretKey::from_label("fuzz-recover/grid");
  KeyRing keys;
  keys.add(key);
  const ProtectResult one = protect(
      jpeg::forward_transform(
          rgb_to_ycc(
              synth::generate(synth::Dataset::kPascal, 6, 64, 48).image),
          75),
      {RoiPolicy{Rect{0, 0, 8, 8}, key, Scheme::kCompression}});
  const transform::Chain chain{transform::box_blur(),
                               transform::scale(700, 700),
                               transform::box_blur()};
  const YccImage download(700, 700);
  struct Layout {
    const char* name;
    bool (*keyed)(int bx, int by);
  };
  for (const auto& [name, keyed] : {
           Layout{"full grid", [](int, int) { return true; }},
           Layout{"checkerboard",
                  [](int bx, int by) { return (bx + by) % 2 == 0; }},
           Layout{"sparse grid",
                  [](int bx, int by) { return bx % 4 == 0 && by % 4 == 0; }},
       }) {
    PublicParameters params = one.params;
    params.width = params.height = kSide;
    params.rois.clear();
    for (int by = 0; by < kSide / 8; ++by)
      for (int bx = 0; bx < kSide / 8; ++bx) {
        if (!keyed(bx, by)) continue;
        ProtectedRoi roi = one.params.rois[0];
        roi.id = static_cast<std::uint32_t>(params.rois.size());
        roi.rect = Rect{bx * 8, by * 8, 8, 8};
        params.rois.push_back(std::move(roi));
      }
    const auto start = std::chrono::steady_clock::now();
    const YccImage got = recover_pixels(download, params, chain, keys);
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    EXPECT_LT(took.count(), 5.0) << name << ", " << params.rois.size()
                                  << " ROIs";
    EXPECT_TRUE(transform::reference::same_bits(
        got, reference::recover_pixels(download, params, chain, keys)))
        << name;
  }
}

/// One seeded byte mutant of a served JFIF: bit flips, truncation, a
/// deleted span, inserted garbage, a corrupted marker code, a rewritten
/// frame-header byte (size, component count, sampling, quant table), or the
/// head of `base` spliced onto the tail of `other`.
Bytes mutate_jfif(const Bytes& base, const Bytes& other, Rng& rng) {
  Bytes m = base;
  switch (rng.below(7)) {
    case 0: {  // bit flips, anywhere
      const int flips = 1 + static_cast<int>(rng.below(8));
      for (int f = 0; f < flips; ++f)
        m[rng.below(m.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      break;
    }
    case 1:  // truncation
      m.resize(rng.below(m.size()));
      break;
    case 2: {  // delete a span
      const std::size_t at = rng.below(m.size());
      const std::size_t len =
          std::min<std::size_t>(1 + rng.below(32), m.size() - at);
      m.erase(m.begin() + static_cast<std::ptrdiff_t>(at),
              m.begin() + static_cast<std::ptrdiff_t>(at + len));
      break;
    }
    case 3: {  // insert garbage
      Bytes junk(1 + rng.below(32));
      for (std::uint8_t& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
      m.insert(m.begin() + static_cast<std::ptrdiff_t>(rng.below(m.size())),
               junk.begin(), junk.end());
      break;
    }
    case 4: {  // the code after some 0xFF: headers, tables, RSTn, EOI
      std::vector<std::size_t> codes;
      for (std::size_t i = 0; i + 1 < m.size(); ++i)
        if (m[i] == 0xFF) codes.push_back(i + 1);
      if (!codes.empty())
        m[codes[rng.below(codes.size())]] =
            static_cast<std::uint8_t>(rng.below(256));
      break;
    }
    case 5: {  // a byte of the SOF0 payload (after its marker and length)
      const std::uint8_t sof[] = {0xFF, 0xC0};
      const auto at = std::search(m.begin(), m.end(), sof, sof + 2);
      const auto payload = static_cast<std::size_t>(at - m.begin()) + 4;
      if (payload + 6 + 3 * 3 <= m.size())
        m[payload + rng.below(6 + 3 * 3)] =
            static_cast<std::uint8_t>(rng.below(256));
      break;
    }
    default: {  // splice
      m.resize(rng.below(m.size()));
      const std::size_t tail = rng.below(other.size());
      m.insert(m.end(), other.end() - static_cast<std::ptrdiff_t>(tail),
               other.end());
      break;
    }
  }
  return m;
}

TEST(FuzzRecover, MutatedDownloadJfifThrowsOnlyTypedErrors) {
  // The JFIF of the triple: two downloads served by an in-process PSP (a
  // lossless crop + quarter turn, and a scale re-encoded with clamping),
  // byte-mutated and fed through parse to the receiver that reads each.
  constexpr int kMutants = 1000;
  const jpeg::DecodeLimit limit(1'000'000);
  const Shared& s = shared();
  psp::PspService service;
  const std::string id =
      service.upload(jpeg::serialize(s.stored), s.params.serialize());
  service.apply_transform(id, s.lossless, psp::DeliveryMode::kCoefficients);
  const psp::Download lossless = service.download(id);
  service.apply_transform(id, s.pixel, psp::DeliveryMode::kClampedReencode,
                          75);
  const psp::Download pixel = service.download(id);
  const auto to_lossless = [&](const Bytes& jfif) {
    recover_lossless(jpeg::parse(jfif), s.params, lossless.chain, s.keys);
  };
  const auto to_pixels = [&](const Bytes& jfif) {
    recover_pixels(jpeg::inverse_transform(jpeg::parse(jfif)), s.params,
                   pixel.chain, s.pixel_keys);
  };
  ASSERT_TRUE(typed_only("unmutated lossless",
                         [&] { to_lossless(lossless.jfif); }));
  ASSERT_TRUE(typed_only("unmutated pixel", [&] { to_pixels(pixel.jfif); }));

  Rng rng("fuzz-recover-jfif");
  int recovered = 0;
  for (int trial = 0; trial < kMutants; ++trial) {
    const std::string what = "trial " + std::to_string(trial);
    const Bytes a = mutate_jfif(lossless.jfif, pixel.jfif, rng);
    recovered += typed_only(what + ": lossless", [&] { to_lossless(a); });
    const Bytes b = mutate_jfif(pixel.jfif, lossless.jfif, rng);
    recovered += typed_only(what + ": pixel", [&] { to_pixels(b); });
  }
  EXPECT_GT(recovered, kMutants / 10);  // some go all the way through
}

// A hostile PSP can also serve a well-formed JFIF that contradicts the
// public parameters. Those downloads parse, so only the receivers' own
// checks stand between them and a recovery that silently writes the wrong
// blocks or pixels. Each served image below keeps everything else the
// receiver checks consistent (block grid, MCU alignment), so the named
// check is the one that must reject it.

/// `img` as a receiver gets it: serialized, then parsed.
jpeg::CoefficientImage served(const jpeg::CoefficientImage& img) {
  return jpeg::parse(jpeg::serialize(img));
}

/// A 64x48 scene scaled to w x h.
jpeg::CoefficientImage scene_coeffs(int w, int h, jpeg::ChromaMode mode) {
  const YccImage scene =
      rgb_to_ycc(synth::generate(synth::Dataset::kPascal, 6, 64, 48).image);
  return jpeg::forward_transform(
      transform::apply(transform::Chain{transform::scale(w, h)}, scene), 75,
      mode);
}

TEST(HostilePsp, LosslessDownloadOfAnotherSizeIsRejected) {
  // The chain serves 48x48. A 48x44 image has the same 6x6 block grid, so
  // the ROI walk alone would accept it.
  const Shared& s = shared();
  const jpeg::CoefficientImage other =
      served(scene_coeffs(48, 44, jpeg::ChromaMode::k444));
  ASSERT_EQ(other.blocks_w(), s.turned.blocks_w());
  ASSERT_EQ(other.blocks_h(), s.turned.blocks_h());
  EXPECT_THROW(recover_lossless(other, s.params, s.lossless, s.keys),
               InvalidArgument);
}

TEST(HostilePsp, PixelDownloadOfAnotherSizeIsRejected) {
  // The chain serves 32x24. A larger frame holds every shadow window, so
  // nothing but the size check would notice.
  const Shared& s = shared();
  const YccImage other = jpeg::inverse_transform(
      served(scene_coeffs(40, 24, jpeg::ChromaMode::k444)));
  EXPECT_THROW(recover_pixels(other, s.params, s.pixel, s.pixel_keys),
               InvalidArgument);
}

TEST(HostilePsp, LosslessDownloadWithAnotherChromaLayoutIsRejected) {
  // One 16-aligned ROI, so a 4:2:0 download's MCU grid admits it too.
  const jpeg::CoefficientImage original =
      scene_coeffs(64, 48, jpeg::ChromaMode::k444);
  const SecretKey key = SecretKey::from_label("hostile-psp/layout");
  const ProtectResult r = protect(
      original, {RoiPolicy{Rect{16, 16, 32, 16}, key, Scheme::kBase}});
  KeyRing keys;
  keys.add(key);

  jpeg::CoefficientImage gray(64, 48, 1, original.qtable(0),
                              original.qtable(0));
  gray.component(0).blocks = r.perturbed.component(0).blocks;
  const jpeg::CoefficientImage subsampled =
      served(scene_coeffs(64, 48, jpeg::ChromaMode::k420));

  const transform::Chain none;
  const transform::Chain moved{transform::crop_aligned(Rect{8, 0, 48, 48}),
                               transform::rotate(90)};
  EXPECT_THROW(recover_lossless(served(gray), r.params, none, keys),
               InvalidArgument);
  EXPECT_THROW(recover_lossless(served(transform::apply_lossless(moved, gray)),
                                r.params, moved, keys),
               InvalidArgument);
  // Only the empty chain: the lossless fold already rejects moves of a
  // 4:2:0 download.
  EXPECT_THROW(recover_lossless(subsampled, r.params, none, keys),
               InvalidArgument);
}

}  // namespace
}  // namespace puppies::core
