#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "puppies/core/pipeline.h"
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

/// A small serving corpus: 5 perturbed images and 4 transform chains
/// covering every serving path: coefficient-domain folds, a clamped
/// re-encode of a resample and one of a 3x3 filter.
struct Corpus {
  static constexpr int kImages = 5;

  Corpus() {
    for (int i = 0; i < kImages; ++i) {
      const synth::SceneImage scene =
          synth::generate(synth::Dataset::kPascal, 20 + i, 96, 64);
      const jpeg::CoefficientImage original =
          jpeg::forward_transform(rgb_to_ycc(scene.image), 75);
      const SecretKey key =
          SecretKey::from_label("cache/img" + std::to_string(i));
      const core::ProtectResult shared = core::protect(
          original, {core::RoiPolicy{Rect{8, 8, 32, 24}, key,
                                     core::Scheme::kCompression,
                                     core::PrivacyLevel::kMedium}});
      jfifs.push_back(jpeg::serialize(shared.perturbed));
      params.push_back(shared.params.serialize());
    }
  }

  struct Request {
    transform::Chain chain;
    DeliveryMode mode;
    int quality;
  };
  std::vector<Request> requests() const {
    return {
        {{transform::rotate(180)}, DeliveryMode::kCoefficients, 85},
        {{transform::scale(48, 32)}, DeliveryMode::kClampedReencode, 80},
        {{transform::flip_h(), transform::rotate(90)},
         DeliveryMode::kCoefficients, 85},
        {{transform::box_blur()}, DeliveryMode::kClampedReencode, 85},
    };
  }

  std::vector<Bytes> jfifs;
  std::vector<Bytes> params;
};

const Corpus& corpus() {
  static const Corpus c;
  return c;
}

/// Uploads the corpus, applies `req` to every image, downloads everything.
std::vector<Download> serve_all(PspService& psp,
                                const std::vector<std::string>& ids,
                                const Corpus::Request& req) {
  std::vector<Download> out;
  for (const std::string& id : ids) {
    psp.apply_transform(id, req.chain, req.mode, req.quality);
    out.push_back(psp.download(id));
  }
  return out;
}

std::vector<std::string> upload_all(PspService& psp) {
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < corpus().jfifs.size(); ++i)
    ids.push_back(psp.upload(corpus().jfifs[i], corpus().params[i]));
  return ids;
}

void expect_same_download(const Download& a, const Download& b) {
  ASSERT_EQ(a.mode, b.mode);
  ASSERT_EQ(a.chain, b.chain);
  ASSERT_EQ(a.jfif, b.jfif);  // byte identity, not just decode equality
  ASSERT_EQ(a.public_params, b.public_params);
}

TEST(PspCache, ByteIdentityAcrossCacheModesAndBackends) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("puppies_psp_cache_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  PspService no_cache(service_config(StoreBackend::kMemory, 0, ""));
  PspService cached(service_config(StoreBackend::kMemory, 8ull << 20, ""));
  PspService disk(
      service_config(StoreBackend::kDisk, 8ull << 20, dir.string()));

  const auto ids_a = upload_all(no_cache);
  const auto ids_b = upload_all(cached);
  const auto ids_c = upload_all(disk);

  for (const Corpus::Request& req : corpus().requests()) {
    const auto baseline = serve_all(no_cache, ids_a, req);  // cache disabled
    const auto cold = serve_all(cached, ids_b, req);        // cache cold
    const auto warm = serve_all(cached, ids_b, req);        // cache warm
    const auto disk_cold = serve_all(disk, ids_c, req);     // disk backend
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      expect_same_download(cold[i], baseline[i]);
      expect_same_download(warm[i], baseline[i]);
      expect_same_download(disk_cold[i], baseline[i]);
    }
  }
  fs::remove_all(dir);
}

TEST(PspCache, WarmTransformDoesZeroCodecWork) {
  PspService psp;
  const std::string id =
      psp.upload(corpus().jfifs[0], corpus().params[0]);
  const transform::Chain chain{transform::rotate(180)};
  psp.apply_transform(id, chain, DeliveryMode::kCoefficients);  // cold fill

  const auto codec_ops = [] {
    return metrics::counter("psp.codec.parse").value() +
           metrics::counter("psp.codec.lossless_op").value() +
           metrics::counter("psp.codec.serialize").value() +
           metrics::counter("psp.codec.inverse").value() +
           metrics::counter("psp.codec.forward").value();
  };
  const std::uint64_t ops_before = codec_ops();
  const std::uint64_t hits_before = metrics::counter("cache.hit").value();

  psp.apply_transform(id, chain, DeliveryMode::kCoefficients);  // warm
  const Download d = psp.download(id);

  EXPECT_EQ(codec_ops(), ops_before) << "warm hit must not touch the codec";
  EXPECT_EQ(metrics::counter("cache.hit").value(), hits_before + 1);
  EXPECT_FALSE(d.jfif.empty());
}

TEST(PspCache, CanonicallyEqualChainsShareOneEntry) {
  PspService psp;
  const std::string id = psp.upload(corpus().jfifs[1], corpus().params[1]);
  psp.apply_transform(id, {transform::rotate(90), transform::rotate(90)},
                      DeliveryMode::kCoefficients);
  const Download via_two_rotations = psp.download(id);

  const std::uint64_t misses_before = metrics::counter("cache.miss").value();
  psp.apply_transform(id, {transform::rotate(180)},
                      DeliveryMode::kCoefficients);
  EXPECT_EQ(metrics::counter("cache.miss").value(), misses_before)
      << "rotate90+rotate90 and rotate180 must share a cache entry";
  expect_same_download(psp.download(id), via_two_rotations);
}

TEST(PspCache, DuplicateUploadsDeduplicateInStoreAndCache) {
  PspService psp;
  const std::string id1 = psp.upload(corpus().jfifs[2], corpus().params[2]);
  const std::string id2 = psp.upload(corpus().jfifs[2], corpus().params[2]);
  EXPECT_NE(id1, id2);  // distinct ids...
  EXPECT_EQ(psp.digest_of(id1), psp.digest_of(id2));  // ...one blob
  EXPECT_EQ(psp.blobs().count(), 1u);

  // Both ids share one (digest, chain, mode) key: the first apply computes
  // it, the second is served from cache.
  const std::uint64_t misses_before = metrics::counter("cache.miss").value();
  for (const std::string& id : {id1, id2})
    psp.apply_transform(id, {transform::flip_v()}, DeliveryMode::kCoefficients);
  EXPECT_EQ(metrics::counter("cache.miss").value(), misses_before + 1);
  expect_same_download(psp.download(id1), psp.download(id2));
}

TEST(PspCache, EvictionKeepsServingCorrectBytes) {
  // A budget that fits roughly one result forces constant eviction; every
  // download must still be byte-correct (the cache only saves work).
  PspService tiny(service_config(StoreBackend::kMemory, 4096, ""));
  PspService reference(service_config(StoreBackend::kMemory, 0, ""));
  const auto ids_t = upload_all(tiny);
  const auto ids_r = upload_all(reference);
  for (const Corpus::Request& req : corpus().requests()) {
    const auto got = serve_all(tiny, ids_t, req);
    const auto expect = serve_all(reference, ids_r, req);
    for (std::size_t i = 0; i < got.size(); ++i)
      expect_same_download(got[i], expect[i]);
  }
  EXPECT_LE(tiny.cache().size_bytes(), 4096u);
}

TEST(PspCache, DiskBackendServesUntransformedDownloadFromDisk) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("puppies_psp_disk_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  {
    PspService psp(service_config(StoreBackend::kDisk, 0, dir.string()));
    const std::string id = psp.upload(corpus().jfifs[3], corpus().params[3]);
    const Download d = psp.download(id);
    EXPECT_EQ(d.jfif, corpus().jfifs[3]);
  }
  // The blob outlives the service instance (ids do not — they are session
  // state; the content address is the durable name).
  auto blobs = store::open_disk_store(dir.string());
  EXPECT_EQ(blobs->get(sha256(corpus().jfifs[3])), corpus().jfifs[3]);
  fs::remove_all(dir);
}

TEST(PspReplicated, UploadPinsRemoveUnpinsGcReclaims) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("puppies_psp_repl_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  PspConfig config;
  config.backend = StoreBackend::kReplicated;
  config.cache_bytes = 0;
  config.data_dir = dir.string();
  config.shard_count = 3;
  config.replication.gc_grace_ops = 2;
  PspService psp(config);
  store::ReplicatedStore* repl = psp.replicated();
  ASSERT_NE(repl, nullptr);
  EXPECT_EQ(repl->backend_count(), 3u);

  const std::string id = psp.upload(corpus().jfifs[0], corpus().params[0]);
  const Digest d = psp.digest_of(id);
  // Uploads pin their blob: GC never reclaims a live image no matter how
  // many operations age past it.
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(psp.download(id).jfif, corpus().jfifs[0]);
  EXPECT_EQ(repl->gc().reclaimed, 0u);
  EXPECT_TRUE(repl->contains(d));

  // remove() tombstones the id and unpins the blob; the orphan survives the
  // grace period, then GC reclaims it from every shard.
  psp.remove(id);
  EXPECT_EQ(psp.image_count(), 0u);
  EXPECT_THROW(psp.download(id), InvalidArgument);
  EXPECT_THROW(psp.remove(id), InvalidArgument);
  const std::string id2 = psp.upload(corpus().jfifs[1], corpus().params[1]);
  for (int i = 0; i < 4; ++i) (void)psp.download(id2);  // ages the orphan
  const store::GcReport r = repl->gc();
  EXPECT_EQ(r.reclaimed, 1u);
  EXPECT_FALSE(repl->contains(d));
  // The survivor still serves byte-identically after the collection.
  EXPECT_EQ(psp.download(id2).jfif, corpus().jfifs[1]);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace puppies::psp
