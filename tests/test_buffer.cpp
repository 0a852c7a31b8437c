// ImageBuffer, the storage behind Plane and jpeg::Component::blocks: every
// element is written before it can be read, copies equal their source, and
// the bytes do not depend on how many lanes wrote them.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "puppies/exec/parallel_for.h"
#include "puppies/exec/pool.h"
#include "puppies/image/buffer.h"
#include "puppies/image/image.h"
#include "puppies/jpeg/coeffs.h"
#include "puppies/jpeg/quant.h"

using namespace puppies;

namespace {

/// A value that differs from its neighbours, so a misplaced chunk shows.
template <typename T>
T value_at(std::size_t i) {
  if constexpr (std::is_same_v<T, jpeg::CoefBlock>) {
    jpeg::CoefBlock b{};
    for (std::size_t z = 0; z < b.size(); ++z)
      b[z] = static_cast<std::int16_t>((i * 64 + z) % 2039 - 1019);
    return b;
  } else {
    return static_cast<T>(i % 251);
  }
}

/// The uniform value the fill cases write (never all zero bytes).
template <typename T>
T fill_value() {
  if constexpr (std::is_same_v<T, jpeg::CoefBlock>) {
    jpeg::CoefBlock b;
    b.fill(-77);
    return b;
  } else {
    return static_cast<T>(93);
  }
}

template <typename T>
std::vector<std::size_t> sizes() {
  constexpr std::size_t k = ImageBuffer<T>::kChunk;
  return {0, 1, k - 1, k, k + 1, 3 * k + 37};
}

template <typename T>
ImageBuffer<T> patterned(std::size_t n) {
  ImageBuffer<T> b(n, T{});
  for (std::size_t i = 0; i < n; ++i) b[i] = value_at<T>(i);
  return b;
}

template <typename T>
std::vector<std::uint8_t> bytes_of(const ImageBuffer<T>& b) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(b.data());
  return std::vector<std::uint8_t>(p, p + b.size() * sizeof(T));
}

/// Runs `fn` under an explicitly sized pool, then restores auto config.
template <typename Fn>
void with_threads(int threads, Fn&& fn) {
  exec::configure(exec::Config{threads});
  fn();
  exec::configure(exec::Config{});
}

template <typename T>
void check_fill() {
  for (const int threads : {1, 4}) {
    with_threads(threads, [] {
      for (const std::size_t n : sizes<T>()) {
        ImageBuffer<T> b(n, fill_value<T>());
        ASSERT_EQ(b.size(), n);
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(b[i], fill_value<T>()) << "n=" << n << " i=" << i;
        b.fill(T{});
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(b[i], T{}) << "n=" << n << " i=" << i;
      }
    });
  }
}

template <typename T>
void check_copy() {
  for (const int threads : {1, 4}) {
    with_threads(threads, [] {
      for (const std::size_t n : sizes<T>()) {
        const ImageBuffer<T> src = patterned<T>(n);
        const ImageBuffer<T> copy(src);
        ASSERT_EQ(copy.size(), n);
        EXPECT_TRUE(copy == src) << "n=" << n;
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(copy[i], value_at<T>(i)) << "n=" << n << " i=" << i;
        // Assignment into a buffer of the same size reuses its storage,
        // into any other size reallocates; both must equal the source.
        ImageBuffer<T> same(n, fill_value<T>());
        same = src;
        EXPECT_TRUE(same == src) << "n=" << n;
        ImageBuffer<T> other(n + 5, fill_value<T>());
        other = src;
        EXPECT_EQ(other.size(), n);
        EXPECT_TRUE(other == src) << "n=" << n;
      }
    });
  }
}

template <typename T>
void check_self_assignment() {
  for (const std::size_t n : sizes<T>()) {
    ImageBuffer<T> b = patterned<T>(n);
    ImageBuffer<T>& alias = b;
    b = alias;
    ASSERT_EQ(b.size(), n);
    EXPECT_TRUE(b == patterned<T>(n)) << "n=" << n;
  }
}

template <typename T>
void check_move() {
  for (const std::size_t n : sizes<T>()) {
    ImageBuffer<T> src = patterned<T>(n);
    ImageBuffer<T> moved(std::move(src));
    EXPECT_TRUE(moved == patterned<T>(n)) << "n=" << n;
    // The moved-from buffer is empty and still usable.
    EXPECT_EQ(src.size(), 0u);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(src.begin(), src.end());
    src = moved;
    EXPECT_TRUE(src == moved) << "n=" << n;

    ImageBuffer<T> target(3, fill_value<T>());
    target = std::move(moved);
    EXPECT_EQ(target.size(), n);
    EXPECT_EQ(moved.size(), 0u);  // NOLINT(bugprone-use-after-move)
    moved = ImageBuffer<T>(2, fill_value<T>());
    EXPECT_EQ(moved.size(), 2u);
  }
}

/// Fill, copy, assign and refill under `threads` lanes; the bytes of every
/// result, concatenated.
template <typename T>
std::vector<std::uint8_t> scenario_bytes(int threads) {
  std::vector<std::uint8_t> out;
  with_threads(threads, [&] {
    for (const std::size_t n : sizes<T>()) {
      const ImageBuffer<T> src = patterned<T>(n);
      ImageBuffer<T> copy(src);
      ImageBuffer<T> assigned(n == 0 ? 1 : n - 1, fill_value<T>());
      assigned = copy;
      assigned.fill(fill_value<T>());
      for (const ImageBuffer<T>* b : {&copy, &assigned}) {
        const std::vector<std::uint8_t> bytes = bytes_of(*b);
        out.insert(out.end(), bytes.begin(), bytes.end());
      }
    }
  });
  return out;
}

template <typename T>
void check_thread_count_invariance() {
  const std::vector<std::uint8_t> one = scenario_bytes<T>(1);
  const std::vector<std::uint8_t> four = scenario_bytes<T>(4);
  ASSERT_EQ(one.size(), four.size());
  EXPECT_EQ(std::memcmp(one.data(), four.data(), one.size()), 0);
}

TEST(ImageBuffer, FillWritesEveryElement) {
  check_fill<std::uint8_t>();
  check_fill<float>();
  check_fill<jpeg::CoefBlock>();
}

TEST(ImageBuffer, CopyEqualsSource) {
  check_copy<std::uint8_t>();
  check_copy<float>();
  check_copy<jpeg::CoefBlock>();
}

TEST(ImageBuffer, SelfAssignmentKeepsContents) {
  check_self_assignment<std::uint8_t>();
  check_self_assignment<float>();
  check_self_assignment<jpeg::CoefBlock>();
}

TEST(ImageBuffer, MovedFromIsValidAndEmpty) {
  check_move<std::uint8_t>();
  check_move<float>();
  check_move<jpeg::CoefBlock>();
}

TEST(ImageBuffer, BytesDoNotDependOnThreadCount) {
  check_thread_count_invariance<std::uint8_t>();
  check_thread_count_invariance<float>();
  check_thread_count_invariance<jpeg::CoefBlock>();
}

// Allocation leaves memory as malloc hands it out, so a constructor that
// skipped its fill would expose a freed buffer's bytes. The sizes stay far
// below glibc's mmap threshold, so the poisoned chunk is normally the one
// the next allocation of the same size gets back.
TEST(ImageBuffer, FreshPlanesAndCoefficientImagesAreZeroOverRecycledMemory) {
  const auto poison = [](std::size_t bytes) {
    ImageBuffer<std::uint8_t> p(bytes, 0xA5);
    ASSERT_EQ(p[bytes - 1], 0xA5);
  };
  for (const int threads : {1, 4}) {
    with_threads(threads, [&] {
      for (int i = 0; i < 3; ++i) {
        poison(96 * 80 * sizeof(float));
        const GrayF plane(96, 80);
        for (const float v : plane.pixels()) ASSERT_EQ(v, 0.f);

        poison(96 * 80);
        const GrayU8 bytes(96, 80);
        for (const std::uint8_t v : bytes.pixels()) ASSERT_EQ(v, 0);

        // 96x80 at 4:4:4 is 12x10 blocks per component.
        poison(12 * 10 * sizeof(jpeg::CoefBlock));
        const jpeg::QuantTable q = jpeg::luma_quant_table(75);
        const jpeg::CoefficientImage img(96, 80, 3, q, q);
        for (int c = 0; c < img.component_count(); ++c)
          for (const jpeg::CoefBlock& b : img.component(c).blocks)
            ASSERT_EQ(b, jpeg::CoefBlock{}) << "component " << c;
      }
    });
  }
}

// Two request threads build and copy image-sized planes while a third holds
// the pool in a parallel region: whichever thread finds the pool busy fills
// inline, and every result is still exact (run under TSan in tier 1).
TEST(ImageBuffer, ConcurrentPlaneCopiesBesideAParallelRegion) {
  with_threads(4, [] {
    constexpr int kW = 4096, kH = 2048;  // 8 MB of u8
    std::atomic<bool> ok{true};
    const auto copier = [&](std::uint8_t v) {
      for (int round = 0; round < 4; ++round) {
        const GrayU8 a(kW, kH, v);
        GrayU8 b = a;
        b.at(kW - 1, kH - 1) = static_cast<std::uint8_t>(v + 1);
        GrayU8 c(kW, kH, 0);
        c = b;
        if (!(c == b) || a.at(kW - 1, kH - 1) != v || c.at(0, 0) != v ||
            c.at(kW - 1, kH - 1) != static_cast<std::uint8_t>(v + 1))
          ok = false;
      }
    };
    const auto region = [&] {
      for (int round = 0; round < 8; ++round) {
        std::vector<std::uint64_t> out(1 << 16, 0);
        exec::parallel_for(out.size(), [&](std::size_t i) { out[i] = i * i; },
                           256);
        for (std::size_t i = 0; i < out.size(); ++i)
          if (out[i] != i * i) ok = false;
      }
    };
    std::thread t1(copier, std::uint8_t{11});
    std::thread t2(copier, std::uint8_t{200});
    std::thread t3(region);
    t1.join();
    t2.join();
    t3.join();
    EXPECT_TRUE(ok.load());
  });
}

}  // namespace
