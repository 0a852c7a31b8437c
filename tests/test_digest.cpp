#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <vector>

#include "puppies/common/digest.h"
#include "puppies/common/error.h"
#include "puppies/kernels/kernels.h"
#include "puppies/metrics/metrics.h"

namespace puppies {
namespace {

using kernels::Sha256Impl;

/// Every compression path this machine can run; the portable one always.
std::vector<Sha256Impl> paths() {
  std::vector<Sha256Impl> out;
  for (Sha256Impl p : {Sha256Impl::kPortable, Sha256Impl::kShaNi})
    if (kernels::sha256_impl_supported(p)) out.push_back(p);
  return out;
}

Digest sha256_on(Sha256Impl path, std::span<const std::uint8_t> data) {
  Sha256 h(path);
  h.update(data);
  return h.finalize();
}

std::span<const std::uint8_t> bytes_of(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

/// A known answer checked on the active path and on every explicit one.
void expect_digest(std::span<const std::uint8_t> data, std::string_view hex) {
  EXPECT_EQ(sha256(data).to_hex(), hex) << "active path";
  for (Sha256Impl p : paths())
    EXPECT_EQ(sha256_on(p, data).to_hex(), hex) << kernels::to_string(p);
}

Bytes random_bytes(std::mt19937& rng, std::size_t n) {
  Bytes out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

// FIPS 180-4 / NIST CAVP known answers.
TEST(Sha256, EmptyInput) {
  expect_digest(
      {}, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  expect_digest(
      bytes_of("abc"),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  expect_digest(
      bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, OneMebibytePattern) {
  Bytes data(1 << 20);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i % 251);
  expect_digest(
      data, "631b84027d6b9e52b539c4e8373622d23032dfadc64d60af87339c9037e4f769");
}

TEST(Sha256, PaddingBoundaries) {
  // 63/64/65 bytes straddle the block+length padding cases.
  Bytes data(65);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i);
  expect_digest(
      std::span(data).first(63),
      "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488");
  expect_digest(
      std::span(data).first(64),
      "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108");
  expect_digest(
      data, "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781");
}

// The differential walk: every path must agree with the portable reference
// on every length across the padding cases, and on long messages fed
// through update() from every offset within a block, so the block function
// sees buffered starts, unaligned bulk runs and tails.
TEST(Sha256Paths, EveryShortLengthAgrees) {
  std::mt19937 rng(180);
  const Bytes data = random_bytes(rng, 300);
  for (std::size_t n = 0; n <= data.size(); ++n) {
    const auto msg = std::span(data).first(n);
    const Digest ref = sha256_on(Sha256Impl::kPortable, msg);
    for (Sha256Impl p : paths())
      ASSERT_EQ(sha256_on(p, msg), ref)
          << kernels::to_string(p) << " at length " << n;
  }
}

TEST(Sha256Paths, LongMessagesAgreeAtEverySplitResidue) {
  std::mt19937 rng(4);
  std::uniform_int_distribution<std::size_t> length(0, std::size_t{1} << 20);
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t n = trial == 0 ? std::size_t{1} << 20 : length(rng);
    const Bytes data = random_bytes(rng, n);
    const Digest ref = sha256_on(Sha256Impl::kPortable, data);
    for (Sha256Impl p : paths()) {
      for (std::size_t residue = 0; residue < 64; ++residue) {
        // Three calls: `residue` bytes into the buffer, a middle run of
        // random length, then the rest.
        const std::size_t head = std::min(residue, n);
        const std::size_t mid =
            std::uniform_int_distribution<std::size_t>(0, n - head)(rng);
        Sha256 h(p);
        h.update(std::span(data).first(head));
        h.update(std::span(data).subspan(head, mid));
        h.update(std::span(data).subspan(head + mid));
        ASSERT_EQ(h.finalize(), ref) << kernels::to_string(p) << " length "
                                     << n << " residue " << residue;
      }
    }
  }
}

TEST(Sha256Paths, ActivePathFollowsTheTier) {
  const Sha256Impl fast = kernels::sha256_impl_supported(Sha256Impl::kShaNi)
                              ? Sha256Impl::kShaNi
                              : Sha256Impl::kPortable;
  const kernels::SimdTier saved = kernels::active_tier();
  // PUPPIES_SIMD=scalar (tier 1 reruns this suite with it) forces the
  // portable path before anything is configured.
  if (const char* env = std::getenv("PUPPIES_SIMD");
      env && std::string_view(env) == "scalar") {
    EXPECT_EQ(kernels::active_sha256_impl(), Sha256Impl::kPortable);
  }
  for (const kernels::SimdTier t :
       {kernels::SimdTier::kScalar, kernels::SimdTier::kSse2,
        kernels::SimdTier::kAvx2}) {
    if (!kernels::tier_supported(t)) continue;
    kernels::configure(t);
    const Sha256Impl want =
        t == kernels::SimdTier::kScalar ? Sha256Impl::kPortable : fast;
    EXPECT_EQ(kernels::active_sha256_impl(), want) << kernels::to_string(t);
    EXPECT_EQ(metrics::gauge("kernels.sha256_impl").value(),
              static_cast<int>(want));
  }
  kernels::configure(saved);
  if (!kernels::sha256_impl_supported(Sha256Impl::kShaNi)) {
    EXPECT_THROW(Sha256{Sha256Impl::kShaNi}, InvalidArgument);
  }
}

TEST(Sha256, StreamingMatchesOneShot) {
  Bytes data(100000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>((i * 31 + 7) % 256);
  const Digest oneshot = sha256(data);
  // Feed in awkward chunk sizes that repeatedly straddle block boundaries.
  Sha256 h;
  std::size_t pos = 0, chunk = 1;
  while (pos < data.size()) {
    const std::size_t n = std::min(chunk, data.size() - pos);
    h.update(std::span(data).subspan(pos, n));
    pos += n;
    chunk = chunk * 2 + 3;
  }
  EXPECT_EQ(h.finalize(), oneshot);
}

TEST(Sha256, UseAfterFinalizeThrows) {
  Sha256 h;
  h.update("abc");
  (void)h.finalize();
  EXPECT_THROW(h.update("more"), InvalidArgument);
  EXPECT_THROW(h.finalize(), InvalidArgument);
}

TEST(Digest, HexRoundTrip) {
  const Digest d = sha256("round trip");
  EXPECT_EQ(Digest::from_hex(d.to_hex()), d);
  EXPECT_EQ(d.to_hex().size(), 64u);
  EXPECT_THROW(Digest::from_hex("abcd"), ParseError);
  EXPECT_THROW(Digest::from_hex(std::string(64, 'z')), ParseError);
}

TEST(Digest, OrderingAndHash) {
  const Digest a = sha256("a"), b = sha256("b");
  EXPECT_NE(a, b);
  EXPECT_TRUE(a < b || b < a);
  EXPECT_NE(DigestHash{}(a), DigestHash{}(b));
}

}  // namespace
}  // namespace puppies
