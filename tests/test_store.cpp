#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>

#include "puppies/exec/parallel_for.h"
#include "puppies/exec/pool.h"
#include "puppies/jpeg/codec.h"
#include "puppies/metrics/metrics.h"
#include "puppies/store/blob_store.h"
#include "puppies/store/replicated_store.h"
#include "puppies/store/transform_cache.h"
#include "puppies/synth/synth.h"
#include "puppies/transform/transform.h"

#include "lossless_reference.h"

namespace puppies::store {
namespace {

namespace fs = std::filesystem;

Bytes bytes_of(std::string_view s) { return Bytes(s.begin(), s.end()); }

/// Fresh scratch directory per disk-store test. The path carries the pid:
/// ctest runs every test as its own concurrent process, so a fixed path
/// would let tests delete each other's trees mid-run.
class ScratchDir {
 public:
  explicit ScratchDir(const char* tag)
      : path_(fs::temp_directory_path() /
              ("puppies_store_test_" + std::string(tag) + "_" +
               std::to_string(::getpid()))) {
    fs::remove_all(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

class BlobStoreContract : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<BlobStore> open() {
    const std::string which = GetParam();
    if (which == "memory") return open_memory_store();
    if (which == "replicated") {
      // The composite must honor the same contract as the single-node
      // backends it wraps: R=3 over three memory stores.
      std::vector<std::unique_ptr<BlobStore>> backends;
      for (int i = 0; i < 3; ++i) backends.push_back(open_memory_store());
      return open_replicated_store(std::move(backends));
    }
    return open_disk_store(scratch_.str());
  }
  ScratchDir scratch_{"contract"};
};

TEST_P(BlobStoreContract, PutGetRoundTripAndContentAddress) {
  auto s = open();
  const Bytes data = bytes_of("hello content-addressed world");
  const Digest d = s->put(data);
  EXPECT_EQ(d, sha256(data));  // the address IS the content hash
  EXPECT_TRUE(s->contains(d));
  EXPECT_EQ(s->get(d), data);
  EXPECT_EQ(s->blob_size(d), data.size());
  EXPECT_EQ(s->count(), 1u);
  EXPECT_EQ(s->total_bytes(), data.size());
}

TEST_P(BlobStoreContract, PutIsIdempotent) {
  auto s = open();
  const Bytes data = bytes_of("same bytes");
  const Digest d1 = s->put(data);
  const Digest d2 = s->put(data);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(s->count(), 1u);
  EXPECT_EQ(s->total_bytes(), data.size());
}

TEST_P(BlobStoreContract, UnknownDigestThrows) {
  auto s = open();
  const Digest missing = sha256("never stored");
  EXPECT_FALSE(s->contains(missing));
  EXPECT_THROW(s->get(missing), InvalidArgument);
  EXPECT_THROW(s->blob_size(missing), InvalidArgument);
}

TEST_P(BlobStoreContract, ListIsSortedAndComplete) {
  auto s = open();
  std::vector<Digest> expected;
  for (int i = 0; i < 8; ++i)
    expected.push_back(s->put(bytes_of("blob #" + std::to_string(i))));
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(s->list(), expected);
}

TEST_P(BlobStoreContract, ConcurrentPutsOfSameContentKeepOneBlob) {
  auto s = open();
  const Bytes data = bytes_of("popular upload");
  exec::configure(exec::Config{4});
  exec::parallel_for(16, [&](std::size_t) { (void)s->put(data); });
  exec::configure(exec::Config{});
  EXPECT_EQ(s->count(), 1u);
  EXPECT_EQ(s->get(sha256(data)), data);
}

TEST_P(BlobStoreContract, EraseRemovesBlobAndIsIdempotent) {
  auto s = open();
  const Bytes keep = bytes_of("survivor");
  const Bytes gone = bytes_of("reclaim me");
  const Digest dk = s->put(keep);
  const Digest dg = s->put(gone);
  EXPECT_TRUE(s->erase(dg));
  EXPECT_FALSE(s->erase(dg));  // second erase reports absence
  EXPECT_FALSE(s->contains(dg));
  EXPECT_THROW(s->get(dg), InvalidArgument);
  EXPECT_EQ(s->count(), 1u);
  EXPECT_EQ(s->total_bytes(), keep.size());
  EXPECT_EQ(s->get(dk), keep);  // neighbors untouched
}

INSTANTIATE_TEST_SUITE_P(Backends, BlobStoreContract,
                         ::testing::Values("memory", "disk", "replicated"),
                         [](const auto& info) { return info.param; });

TEST(DiskStore, ReopenRebuildsIndexFromDirectory) {
  ScratchDir scratch("reopen");
  const Bytes a = bytes_of("persists across instances");
  const Bytes b = bytes_of("so does this one");
  Digest da, db;
  {
    auto s = open_disk_store(scratch.str());
    da = s->put(a);
    db = s->put(b);
  }
  auto s = open_disk_store(scratch.str());  // fresh instance, same dir
  EXPECT_EQ(s->count(), 2u);
  EXPECT_EQ(s->total_bytes(), a.size() + b.size());
  EXPECT_EQ(s->get(da), a);
  EXPECT_EQ(s->get(db), b);
}

TEST(DiskStore, IgnoresStaleTempFilesAndStrays) {
  ScratchDir scratch("strays");
  Digest d;
  {
    auto s = open_disk_store(scratch.str());
    d = s->put(bytes_of("real blob"));
  }
  // Simulate a crash mid-put plus unrelated junk in the tree.
  std::ofstream(scratch.path() / "tmp" / "deadbeef.0.tmp") << "partial write";
  fs::create_directories(scratch.path() / "ab");
  std::ofstream(scratch.path() / "ab" / "not-a-digest.blob") << "junk";
  std::ofstream(scratch.path() / "README") << "hands off";

  auto s = open_disk_store(scratch.str());
  EXPECT_EQ(s->count(), 1u);
  EXPECT_TRUE(s->contains(d));
  // The abandoned write was reclaimed on open, not leaked forever; the
  // stray non-blob files are left alone.
  EXPECT_FALSE(fs::exists(scratch.path() / "tmp" / "deadbeef.0.tmp"));
  EXPECT_TRUE(fs::exists(scratch.path() / "README"));
}

TEST(DiskStore, BlobFileNameIsTheDigest) {
  ScratchDir scratch("layout");
  auto s = open_disk_store(scratch.str());
  const Digest d = s->put(bytes_of("where am i"));
  const std::string hex = d.to_hex();
  EXPECT_TRUE(fs::exists(scratch.path() / hex.substr(0, 2) / (hex + ".blob")));
}

// ---------------------------------------------------------------------------
// Chain canonicalization (the cache-key rewrite rules).

TEST(Canonicalize, DropsIdentityAndNormalizesUnusedFields) {
  transform::Step rot = transform::rotate(90);
  rot.arg0 = 1234;            // garbage in fields rotate never reads
  rot.rect = Rect{1, 2, 3, 4};
  const transform::Chain canon = transform::canonicalize(
      {transform::identity(), rot, transform::identity()});
  ASSERT_EQ(canon.size(), 1u);
  EXPECT_EQ(canon[0], transform::rotate(90));  // stray fields zeroed
  EXPECT_TRUE(transform::canonicalize({transform::identity()}).empty());
}

TEST(Canonicalize, FoldsRotationRuns) {
  using transform::rotate;
  EXPECT_EQ(transform::canonicalize({rotate(90), rotate(90)}),
            transform::Chain{rotate(180)});
  EXPECT_EQ(transform::canonicalize({rotate(90), rotate(270)}),
            transform::Chain{});
  EXPECT_EQ(transform::canonicalize(
                {transform::flip_h(), transform::flip_h()}),
            transform::Chain{});
}

TEST(Canonicalize, NeverMergesAcrossNonDihedralSteps) {
  const transform::Chain chain{transform::rotate(90), transform::scale(64, 48),
                               transform::rotate(270)};
  EXPECT_EQ(transform::canonicalize(chain), chain);
}

TEST(Canonicalize, DihedralFoldIsExactInPixelDomain) {
  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kPascal, 3, 64, 48);
  const YccImage img = rgb_to_ycc(scene.image);
  const std::vector<transform::Step> ops = {
      transform::rotate(90), transform::rotate(180), transform::rotate(270),
      transform::flip_h(), transform::flip_v()};
  // Every pair and a few triples: canonical chain must reproduce the
  // original result exactly (these ops are pure pixel permutations).
  std::vector<transform::Chain> chains;
  for (const auto& a : ops)
    for (const auto& b : ops) chains.push_back({a, b});
  chains.push_back({ops[0], ops[3], ops[2]});
  chains.push_back({ops[4], ops[0], ops[0]});
  chains.push_back({ops[3], ops[4], ops[1]});
  for (const transform::Chain& chain : chains) {
    const transform::Chain canon = transform::canonicalize(chain);
    EXPECT_LE(canon.size(), 2u);
    const YccImage expect = transform::apply(chain, img);
    const YccImage got = transform::apply(canon, img);
    ASSERT_EQ(got.y, expect.y) << "chain size " << chain.size();
    ASSERT_EQ(got.cb, expect.cb);
    ASSERT_EQ(got.cr, expect.cr);
  }
}

TEST(Canonicalize, DihedralFoldIsExactInCoefficientDomain) {
  // Every lossless chain of up to 4 steps, at one pool lane and at four:
  // the engine on the canonical chain agrees with the step-at-a-time
  // reference on it (coefficients, quant tables, exception type), and
  // serves the same JFIF bytes as the reference on the chain as given.
  struct Restore {
    ~Restore() { exec::configure(exec::Config{}); }
  } restore;
  std::vector<jpeg::CoefficientImage> images;
  for (const auto& [w, h] : {std::pair{64, 48}, std::pair{60, 44}})
    images.push_back(jpeg::forward_transform(
        rgb_to_ycc(synth::generate(synth::Dataset::kPascal, 5, w, h).image),
        75));
  for (const int lanes : {1, 4}) {
    exec::configure(exec::Config{lanes});
    for (const jpeg::CoefficientImage& img : images) {
      for (const transform::Chain& chain : transform::reference::all_chains(
               transform::reference::lossless_alphabet(img.width(),
                                                       img.height()),
               4)) {
        const transform::Chain canon = transform::canonicalize(chain);
        const auto got = transform::reference::outcome_of(
            [&] { return transform::apply_lossless(canon, img); });
        ASSERT_TRUE(got == transform::reference::outcome_of([&] {
          return transform::reference::apply_lossless(canon, img);
        })) << lanes << " lanes, canonical chain size " << canon.size();
        const auto given = transform::reference::outcome_of([&] {
          return transform::reference::apply_lossless(chain, img);
        });
        if (!given.value) continue;
        ASSERT_TRUE(got.value.has_value());
        ASSERT_EQ(jpeg::serialize(*got.value), jpeg::serialize(*given.value))
            << lanes << " lanes, chain size " << chain.size();
      }
    }
  }
}

constexpr auto kOptimized =
    static_cast<std::uint8_t>(jpeg::HuffmanMode::kOptimized);

/// The key at the default serving encode (optimized tables, restart 64).
Digest serving_key(const Digest& src, const transform::Chain& chain,
           std::uint8_t delivery_mode, int quality, bool quality_relevant) {
  return transform_cache_key(src, chain, delivery_mode, quality,
                             quality_relevant, kOptimized, 64);
}

TEST(CacheKey, CanonicallyEqualChainsShareAKey) {
  const Digest src = sha256("some image");
  const Digest k1 =
      serving_key(src, {transform::rotate(90), transform::rotate(90)}, 0, 85,
                  false);
  const Digest k2 = serving_key(src, {transform::rotate(180)}, 0, 85, false);
  EXPECT_EQ(k1, k2);
  // ...but a different source, mode, or chain separates keys.
  EXPECT_NE(k1, serving_key(sha256("other image"), {transform::rotate(180)},
                            0, 85, false));
  EXPECT_NE(k1, serving_key(src, {transform::rotate(180)}, 2, 85, false));
  EXPECT_NE(k1, serving_key(src, {transform::rotate(270)}, 0, 85, false));
}

TEST(CacheKey, QualityOnlyKeyedWhenRelevant) {
  const Digest src = sha256("img");
  const transform::Chain chain{transform::scale(32, 32)};
  EXPECT_EQ(serving_key(src, chain, 1, 85, false), serving_key(src, chain, 1, 50, false));
  EXPECT_NE(serving_key(src, chain, 2, 85, true), serving_key(src, chain, 2, 50, true));
}

TEST(CacheKey, EncodeModeAndRestartIntervalSeparateKeys) {
  const Digest src = sha256("img");
  const transform::Chain chain{transform::rotate(90)};
  const auto std_mode =
      static_cast<std::uint8_t>(jpeg::HuffmanMode::kStandard);
  // Different table modes or restart cadences serialize different bytes:
  // never one cache entry.
  EXPECT_NE(transform_cache_key(src, chain, 0, 85, false, kOptimized, 64),
            transform_cache_key(src, chain, 0, 85, false, std_mode, 64));
  EXPECT_NE(transform_cache_key(src, chain, 0, 85, false, kOptimized, 64),
            transform_cache_key(src, chain, 0, 85, false, kOptimized, 0));
}

TEST(CacheKey, ChainWireFormatUnchangedByEncodeModeField) {
  // The encode mode lives only in the cache-key material; the chain wire
  // format is untouched, so chains serialized before the field existed
  // still parse. Pin the serialized bytes of a representative chain and
  // the write->read round trip.
  const transform::Chain chain{transform::rotate(90),
                               transform::crop_aligned(Rect{8, 16, 32, 24}),
                               transform::recompress(60)};
  ByteWriter w;
  transform::write_chain(w, chain);
  const Bytes wire = w.take();
  ByteReader r(wire);
  EXPECT_EQ(transform::read_chain(r), chain);
  EXPECT_TRUE(r.done()) << "trailing bytes after chain";
}

// ---------------------------------------------------------------------------
// TransformCache: LRU, byte budget, single-flight.

Bytes small_result(std::size_t n, std::uint8_t fill) {
  return Bytes(n, fill);
}

TEST(TransformCache, HitsAfterComputeAndCountsWork) {
  TransformCache cache(1 << 20);
  const Digest k = sha256("key");
  int computes = 0;
  auto compute = [&] {
    ++computes;
    return small_result(100, 7);
  };
  const auto r1 = cache.get_or_compute(k, compute);
  const auto r2 = cache.get_or_compute(k, compute);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(*r1, *r2);
  EXPECT_EQ(cache.count(), 1u);
}

TEST(TransformCache, DisabledCacheAlwaysComputes) {
  TransformCache cache(0);
  EXPECT_FALSE(cache.enabled());
  const Digest k = sha256("key");
  int computes = 0;
  for (int i = 0; i < 3; ++i)
    (void)cache.get_or_compute(k, [&] {
      ++computes;
      return small_result(10, 1);
    });
  EXPECT_EQ(computes, 3);
  EXPECT_EQ(cache.count(), 0u);
}

TEST(TransformCache, EvictsLeastRecentlyUsedWithinBudget) {
  // Budget fits two ~1128-byte entries (1000 payload + 128 overhead).
  TransformCache cache(2300);
  const Digest a = sha256("a"), b = sha256("b"), c = sha256("c");
  (void)cache.get_or_compute(a, [] { return small_result(1000, 1); });
  (void)cache.get_or_compute(b, [] { return small_result(1000, 2); });
  // Touch `a` so `b` is the LRU victim when `c` lands.
  int recomputes = 0;
  (void)cache.get_or_compute(a, [&] {
    ++recomputes;
    return small_result(1000, 1);
  });
  EXPECT_EQ(recomputes, 0);
  (void)cache.get_or_compute(c, [] { return small_result(1000, 3); });
  EXPECT_LE(cache.size_bytes(), 2300u);
  EXPECT_EQ(cache.count(), 2u);
  (void)cache.get_or_compute(b, [&] {
    ++recomputes;
    return small_result(1000, 2);
  });
  EXPECT_EQ(recomputes, 1);  // b was evicted, a + c survived... then b refills
}

TEST(TransformCache, OversizedEntryStillReturnedJustNotRetained) {
  TransformCache cache(64);
  const auto r = cache.get_or_compute(
      sha256("big"), [] { return small_result(10000, 9); });
  EXPECT_EQ(r->size(), 10000u);
  EXPECT_EQ(cache.size_bytes(), 0u);
}

TEST(TransformCache, ExceptionsPropagateAndAreNotCached) {
  TransformCache cache(1 << 20);
  const Digest k = sha256("boom");
  EXPECT_THROW(cache.get_or_compute(
                   k, []() -> Bytes { throw InvalidArgument("x"); }),
               InvalidArgument);
  EXPECT_EQ(cache.count(), 0u);
  // The failed flight must not wedge the key.
  const auto r = cache.get_or_compute(k, [] { return small_result(5, 5); });
  EXPECT_EQ(r->size(), 5u);
}

TEST(TransformCache, SingleFlightComputesOnceUnderConcurrency) {
  exec::configure(exec::Config{8});
  TransformCache cache(1 << 20);
  const Digest k = sha256("popular");
  std::atomic<int> computes{0};
  const std::uint64_t waits_before = metrics::counter("cache.wait").value();
  exec::parallel_for(32, [&](std::size_t) {
    const auto r = cache.get_or_compute(k, [&] {
      computes.fetch_add(1);
      return small_result(64, 3);
    });
    ASSERT_EQ(r->size(), 64u);
  });
  exec::configure(exec::Config{});
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(cache.count(), 1u);
  // With >1 hardware thread some callers arrive mid-flight and wait; on a
  // 1-core runner everything serializes into plain hits. Either way the
  // leader computed exactly once.
  EXPECT_GE(metrics::counter("cache.wait").value(), waits_before);
}

}  // namespace
}  // namespace puppies::store
