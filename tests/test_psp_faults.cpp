// PSP graceful degradation: the service keeps serving correct bytes while
// the blob store or the transform compute path is failing, and heals the
// store when it can. Lives in tests_store for TSan coverage.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "puppies/core/pipeline.h"
#include "puppies/fault/fault.h"
#include "puppies/jpeg/codec.h"
#include "puppies/metrics/metrics.h"
#include "puppies/psp/psp.h"
#include "puppies/synth/synth.h"

namespace puppies::psp {
namespace {

namespace fs = std::filesystem;

/// A service config naming the three fields these tests vary.
PspConfig service_config(StoreBackend backend, std::size_t cache_bytes,
                         std::string data_dir) {
  PspConfig c;
  c.backend = backend;
  c.cache_bytes = cache_bytes;
  c.data_dir = std::move(data_dir);
  return c;
}

/// One protected upload, produced the same way the pipeline tests do:
/// synth scene -> forward transform -> ROI perturbation -> serialize.
/// Serialized output is a parse/serialize fixpoint, so a degraded download
/// re-serialized from the retained parse is byte-identical.
struct Fixture {
  Fixture() {
    const synth::SceneImage scene =
        synth::generate(synth::Dataset::kPascal, 33, 96, 64);
    const jpeg::CoefficientImage original =
        jpeg::forward_transform(rgb_to_ycc(scene.image), 75);
    const SecretKey key = SecretKey::from_label("faults/img");
    const core::ProtectResult shared = core::protect(
        original, {core::RoiPolicy{Rect{8, 8, 32, 24}, key,
                                   core::Scheme::kCompression,
                                   core::PrivacyLevel::kMedium}});
    jfif = jpeg::serialize(shared.perturbed);
    params = shared.params.serialize();
  }
  Bytes jfif;
  Bytes params;
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

class ScratchDir {
 public:
  explicit ScratchDir(const char* tag)
      : path_(fs::temp_directory_path() /
              ("puppies_psp_fault_test_" + std::string(tag) + "_" +
               std::to_string(::getpid()))) {
    fs::remove_all(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

fs::path blob_file(const fs::path& root, const Digest& d) {
  const std::string hex = d.to_hex();
  return root / hex.substr(0, 2) / (hex + ".blob");
}

// --- Degraded download on real on-disk corruption: the store quarantines
// the rotten blob, the download serves the retained parse byte-identically,
// and the re-publish heals the store at the same address.

TEST(PspFaults, DownloadSurvivesBlobCorruptionAndHealsStore) {
  ScratchDir scratch("corrupt");
  PspService psp(service_config(StoreBackend::kDisk, 0, scratch.str()));
  const std::string id = psp.upload(fixture().jfif, fixture().params);
  const Digest d = psp.digest_of(id);

  // Rot the blob on disk behind the service's back.
  std::ofstream(blob_file(scratch.path(), d),
                std::ios::binary | std::ios::app)
      << "bitrot";

  const std::uint64_t degraded_before =
      metrics::counter("psp.degraded.store_read").value();
  const std::uint64_t corrupt_before =
      metrics::counter("psp.degraded.store_corrupt").value();
  const std::uint64_t healed_before =
      metrics::counter("psp.healed.store").value();

  const Download got = psp.download(id);
  EXPECT_EQ(got.jfif, fixture().jfif);  // byte-identical despite the rot
  EXPECT_EQ(metrics::counter("psp.degraded.store_read").value(),
            degraded_before + 1);
  EXPECT_EQ(metrics::counter("psp.degraded.store_corrupt").value(),
            corrupt_before + 1);
  EXPECT_EQ(metrics::counter("psp.healed.store").value(), healed_before + 1);

  // Healed: the same address serves verified bytes again, quarantine keeps
  // the rotten copy for inspection, and the next download is a normal one.
  EXPECT_TRUE(psp.blobs().contains(d));
  EXPECT_EQ(psp.blobs().get(d), fixture().jfif);
  EXPECT_TRUE(
      fs::exists(scratch.path() / "quarantine" / (d.to_hex() + ".blob")));
  EXPECT_EQ(psp.download(id).jfif, fixture().jfif);
}

TEST(PspFaults, DownloadServesFromMemoryWhileStoreIsFullyDown) {
  ScratchDir scratch("down");
  PspService psp(service_config(StoreBackend::kDisk, 0, scratch.str()));
  const std::string id = psp.upload(fixture().jfif, fixture().params);
  const Digest d = psp.digest_of(id);

  const std::uint64_t healed_before =
      metrics::counter("psp.healed.store").value();
  {
    // The blob rots (quarantined on read) AND the healing re-put fails:
    // the download must still produce the exact bytes.
    fault::ScopedPlan plan("store.get.corrupt=once,store.put.open=always");
    EXPECT_EQ(psp.download(id).jfif, fixture().jfif);
    EXPECT_EQ(metrics::counter("psp.healed.store").value(), healed_before);
    EXPECT_FALSE(psp.blobs().contains(d));  // quarantined, heal blocked
  }
  // Store back up: the next download still degrades (the blob is gone) but
  // this time the re-publish lands, and the service is fully healed.
  EXPECT_EQ(psp.download(id).jfif, fixture().jfif);
  EXPECT_EQ(metrics::counter("psp.healed.store").value(), healed_before + 1);
  EXPECT_TRUE(psp.blobs().contains(d));
  EXPECT_EQ(psp.blobs().get(d), fixture().jfif);
  EXPECT_EQ(psp.download(id).jfif, fixture().jfif);  // normal path again
}

/// `threads` concurrent raw downloads of `id`, `rounds` each; every one must
/// serve the fixture's bytes. Returns the number that threw.
int download_concurrently(PspService& psp, const std::string& id,
                          int threads, int rounds) {
  std::atomic<int> wrong{0}, failed{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&] {
      for (int r = 0; r < rounds; ++r) {
        try {
          const Download d = psp.download(id);
          if (d.jfif != fixture().jfif || d.public_params != fixture().params ||
              d.mode != DeliveryMode::kCoefficients || !d.chain.empty())
            ++wrong;
        } catch (const std::exception&) {
          ++failed;
        }
      }
    });
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(wrong.load(), 0);
  return failed.load();
}

// --- Raw downloads read and verify the blob outside the entry lock, so
// concurrent reads of one hot image overlap; every result is the upload.

TEST(PspFaults, ConcurrentRawDownloadsOfOneImageAreByteIdentical) {
  ScratchDir scratch("concurrent");
  PspService psp(service_config(StoreBackend::kDisk, 0, scratch.str()));
  const std::string id = psp.upload(fixture().jfif, fixture().params);
  EXPECT_EQ(download_concurrently(psp, id, 8, 16), 0);
}

// The degraded path re-takes the entry lock: concurrent downloads that all
// find the blob rotten each serve the retained parse, and the store heals.
TEST(PspFaults, ConcurrentDownloadsOfARottenBlobServeAndHeal) {
  ScratchDir scratch("concurrent_rot");
  PspService psp(service_config(StoreBackend::kDisk, 0, scratch.str()));
  const std::string id = psp.upload(fixture().jfif, fixture().params);
  const Digest d = psp.digest_of(id);
  std::ofstream(blob_file(scratch.path(), d),
                std::ios::binary | std::ios::app)
      << "bitrot";
  const std::uint64_t healed_before =
      metrics::counter("psp.healed.store").value();

  EXPECT_EQ(download_concurrently(psp, id, 8, 4), 0);
  EXPECT_GE(metrics::counter("psp.healed.store").value(), healed_before + 1);
  EXPECT_EQ(psp.digest_of(id), d);  // the upload is a serialize() fixpoint
  EXPECT_EQ(psp.blobs().get(d), fixture().jfif);
}

TEST(PspFaults, HealReproducesTheUploadsOwnRestartInterval) {
  // Uploads whose restart cadence differs from the serving config's (and
  // from the fixture's one segment per MCU row), a restart-free one
  // included: the heal re-serializes at the upload's interval, so the
  // bytes, and with them the content address, come back unchanged.
  for (const int restart : {5, 0}) {
    SCOPED_TRACE("restart " + std::to_string(restart));
    ScratchDir scratch("restart");
    PspService psp(service_config(StoreBackend::kDisk, 0, scratch.str()));
    jpeg::EncodeOptions eo;
    eo.restart_interval = restart;
    const Bytes upload = jpeg::serialize(jpeg::parse(fixture().jfif), eo);
    const std::string id = psp.upload(upload, fixture().params);
    const Digest d = psp.digest_of(id);
    {
      fault::ScopedPlan plan("store.get.corrupt=once");
      EXPECT_EQ(psp.download(id).jfif, upload);
    }
    EXPECT_EQ(psp.digest_of(id), d);
    EXPECT_EQ(psp.blobs().get(d), upload);
  }
}

// --- Satellite: a transform compute that throws mid-flight must not poison
// its cache key. The degraded retry serves this request; the next request
// computes and caches normally.

TEST(PspFaults, TransformFailOnceDegradesAndDoesNotPoisonCacheKey) {
  PspService psp;
  const std::string id = psp.upload(fixture().jfif, fixture().params);
  const transform::Chain chain{transform::rotate(180)};

  const std::uint64_t degraded_before =
      metrics::counter("psp.degraded.cache").value();
  {
    fault::ScopedPlan plan("psp.transform.compute=once");
    // Leader's compute throws inside the cache; the degraded direct retry
    // (fault already spent) serves the request.
    psp.apply_transform(id, chain, DeliveryMode::kCoefficients);
  }
  EXPECT_EQ(metrics::counter("psp.degraded.cache").value(),
            degraded_before + 1);
  const Download degraded = psp.download(id);
  EXPECT_FALSE(degraded.jfif.empty());
  EXPECT_EQ(psp.cache().count(), 0u);  // failed flight was dropped, not cached

  // Key not wedged: the same request now computes, caches, and serves the
  // same bytes as the degraded pass.
  psp.apply_transform(id, chain, DeliveryMode::kCoefficients);
  EXPECT_EQ(psp.cache().count(), 1u);
  const Download cached = psp.download(id);
  EXPECT_EQ(cached.jfif, degraded.jfif);

  // And a third pass is a pure cache hit.
  const std::uint64_t hits_before = metrics::counter("cache.hit").value();
  psp.apply_transform(id, chain, DeliveryMode::kCoefficients);
  EXPECT_EQ(metrics::counter("cache.hit").value(), hits_before + 1);
}

TEST(PspFaults, TransformAlwaysFailingThrowsButUntransformedDownloadServes) {
  PspService psp;
  const std::string id = psp.upload(fixture().jfif, fixture().params);
  {
    fault::ScopedPlan plan("psp.transform.compute=always");
    // Both the cached flight and the degraded direct retry fail: the error
    // surfaces to the caller instead of being swallowed.
    EXPECT_THROW(
        psp.apply_transform(id, {transform::rotate(90)},
                            DeliveryMode::kCoefficients),
        TransientError);
  }
  // The entry is untouched: the untransformed download still serves.
  EXPECT_EQ(psp.download(id).jfif, fixture().jfif);
  EXPECT_EQ(psp.cache().count(), 0u);

  // Fault cleared: the transform goes through.
  psp.apply_transform(id, {transform::rotate(90)},
                      DeliveryMode::kCoefficients);
  EXPECT_FALSE(psp.download(id).jfif.empty());
}

}  // namespace
}  // namespace puppies::psp
