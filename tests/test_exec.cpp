// The execution layer's two contracts: (1) parallel_for visits every index
// exactly once, (2) the static-tiling decomposition makes every migrated
// hot path bit-identical at any thread count — Lemma III.1 exactness must
// survive parallelism.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <vector>

#include "puppies/core/pipeline.h"
#include "puppies/exec/parallel_for.h"
#include "puppies/exec/pool.h"
#include "puppies/jpeg/codec.h"
#include "puppies/synth/synth.h"

using namespace puppies;

namespace {

/// Runs `fn` under an explicitly sized pool, then restores auto config.
template <typename Fn>
auto with_threads(int threads, Fn&& fn) {
  exec::configure(exec::Config{threads});
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    exec::configure(exec::Config{});
  } else {
    auto result = fn();
    exec::configure(exec::Config{});
    return result;
  }
}

const synth::SceneImage& scene() {
  static const synth::SceneImage s =
      synth::generate(synth::Dataset::kPascal, 3, 168, 120);
  return s;
}

TEST(Exec, ConfigureSetsThreadCount) {
  with_threads(3, [] { EXPECT_EQ(exec::thread_count(), 3); });
  EXPECT_GE(exec::thread_count(), 1);
}

TEST(Exec, ParallelForCoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    with_threads(threads, [] {
      constexpr std::size_t kN = 10007;  // prime: never divides evenly
      std::vector<int> visits(kN, 0);
      exec::parallel_for(kN, [&](std::size_t i) { ++visits[i]; });
      EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0),
                static_cast<int>(kN));
      for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(visits[i], 1) << i;
    });
  }
}

TEST(Exec, ChunkedTilingPartitionsTheRange) {
  for (const std::size_t n : {0ul, 1ul, 7ul, 64ul, 1000ul}) {
    for (const std::size_t grain : {1ul, 3ul, 16ul, 2000ul}) {
      std::vector<int> visits(n, 0);
      std::atomic<std::size_t> chunks_seen{0};
      exec::parallel_for_chunked(
          n, grain, [&](std::size_t chunk, std::size_t begin,
                        std::size_t end) {
            EXPECT_EQ(begin, chunk * grain);
            EXPECT_LE(end, n);
            EXPECT_GT(end, begin);
            for (std::size_t i = begin; i < end; ++i) ++visits[i];
            ++chunks_seen;
          });
      EXPECT_EQ(chunks_seen.load(), exec::chunk_count(n, grain));
      for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(visits[i], 1);
    }
  }
}

TEST(Exec, ParallelFor2dVisitsEveryPixelOnce) {
  with_threads(4, [] {
    Plane<int> counts(33, 17, 0);
    exec::parallel_for_2d(17, 33, [&](int y, int x) { ++counts.at(x, y); });
    for (int y = 0; y < 17; ++y)
      for (int x = 0; x < 33; ++x) ASSERT_EQ(counts.at(x, y), 1);
  });
}

TEST(Exec, ExceptionsPropagateToTheCaller) {
  with_threads(4, [] {
    EXPECT_THROW(exec::parallel_for(100,
                                    [](std::size_t i) {
                                      if (i == 57) throw Error("boom");
                                    }),
                 Error);
    // The pool survives a failed region.
    std::vector<int> visits(64, 0);
    exec::parallel_for(64, [&](std::size_t i) { ++visits[i]; });
    EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0), 64);
  });
}

TEST(Exec, ForwardTransformBitIdenticalAcrossThreadCounts) {
  const YccImage ycc = rgb_to_ycc(scene().image);
  const jpeg::CoefficientImage baseline = with_threads(
      1, [&] { return jpeg::forward_transform(ycc, 75, jpeg::ChromaMode::k420); });
  for (const int threads : {2, 8}) {
    const jpeg::CoefficientImage img = with_threads(threads, [&] {
      return jpeg::forward_transform(ycc, 75, jpeg::ChromaMode::k420);
    });
    EXPECT_EQ(img, baseline) << "threads=" << threads;
    EXPECT_EQ(with_threads(threads, [&] { return jpeg::serialize(img); }),
              jpeg::serialize(baseline))
        << "threads=" << threads;
  }
}

TEST(Exec, InverseTransformBitIdenticalAcrossThreadCounts) {
  const jpeg::CoefficientImage coeffs = with_threads(
      1, [&] { return jpeg::forward_transform(rgb_to_ycc(scene().image), 75); });
  const YccImage baseline =
      with_threads(1, [&] { return jpeg::inverse_transform(coeffs); });
  for (const int threads : {2, 8}) {
    const YccImage ycc =
        with_threads(threads, [&] { return jpeg::inverse_transform(coeffs); });
    for (int c = 0; c < 3; ++c)
      EXPECT_EQ(ycc.component(c), baseline.component(c))
          << "threads=" << threads << " component=" << c;
  }
}

TEST(Exec, ProtectRecoverExactAndIdenticalAcrossThreadCounts) {
  const jpeg::CoefficientImage original = with_threads(1, [&] {
    return jpeg::forward_transform(rgb_to_ycc(scene().image), 75);
  });
  const SecretKey key = SecretKey::from_label("exec-determinism");
  const std::vector<core::RoiPolicy> policies{
      core::RoiPolicy{Rect{8, 8, 64, 48}, key, core::Scheme::kZero,
                      core::PrivacyLevel::kMedium},
      core::RoiPolicy{Rect{88, 64, 48, 32}, key, core::Scheme::kCompression,
                      core::PrivacyLevel::kHigh}};

  const core::ProtectResult baseline =
      with_threads(1, [&] { return core::protect(original, policies); });
  const Bytes baseline_bytes =
      with_threads(1, [&] { return jpeg::serialize(baseline.perturbed); });

  core::KeyRing ring;
  ring.add(key);
  // The crop cuts the first ROI; the quarter turn makes recover_lossless's
  // protected-space block rows download columns.
  const transform::Chain chain{transform::crop_aligned(Rect{16, 0, 136, 104}),
                               transform::rotate(90)};
  const jpeg::CoefficientImage transformed_original =
      transform::apply_lossless(chain, original);

  // Pixel-domain recovery has no PuPPIeS-Z shadow, so it gets ROIs of its
  // own. They touch, so the scale merges their windows; the blur grows it.
  const core::ProtectResult shaded = with_threads(1, [&] {
    return core::protect(
        original, {core::RoiPolicy{Rect{8, 8, 64, 48}, key,
                                   core::Scheme::kBase,
                                   core::PrivacyLevel::kMedium},
                   core::RoiPolicy{Rect{72, 48, 48, 32}, key,
                                   core::Scheme::kCompression,
                                   core::PrivacyLevel::kHigh}});
  });
  const transform::Chain pixel_chain{transform::scale(150, 100),
                                     transform::box_blur()};
  const YccImage served = with_threads(1, [&] {
    return transform::apply(pixel_chain,
                            jpeg::inverse_transform(shaded.perturbed));
  });
  const YccImage pixel_baseline = with_threads(1, [&] {
    return core::recover_pixels(served, shaded.params, pixel_chain, ring);
  });

  for (const int threads : {1, 2, 8}) {
    with_threads(threads, [&] {
      const core::ProtectResult result = core::protect(original, policies);
      // Perturbed coefficients, serialized bytes, and the ZInd/WInd
      // position lists (ordered!) all match the single-threaded run.
      EXPECT_EQ(result.perturbed, baseline.perturbed);
      EXPECT_EQ(jpeg::serialize(result.perturbed), baseline_bytes);
      ASSERT_EQ(result.params.rois.size(), baseline.params.rois.size());
      for (std::size_t i = 0; i < result.params.rois.size(); ++i) {
        EXPECT_EQ(result.params.rois[i].zind, baseline.params.rois[i].zind);
        EXPECT_EQ(result.params.rois[i].wind, baseline.params.rois[i].wind);
      }
      // Lemma III.1: recovery is exact at every thread count.
      const jpeg::CoefficientImage recovered =
          core::recover(result.perturbed, result.params, ring);
      EXPECT_EQ(recovered, original);
      const jpeg::CoefficientImage download =
          transform::apply_lossless(chain, result.perturbed);
      EXPECT_EQ(core::recover_lossless(download, result.params, chain, ring),
                transformed_original);
      // Every float of the pixel recovery, -0.f included, as on one lane.
      const YccImage recovered_px =
          core::recover_pixels(served, shaded.params, pixel_chain, ring);
      for (int c = 0; c < 3; ++c) {
        const auto got = recovered_px.component(c).pixels();
        const auto want = pixel_baseline.component(c).pixels();
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size_bytes()), 0)
            << "threads=" << threads << " component=" << c;
      }
    });
  }
}

}  // namespace
