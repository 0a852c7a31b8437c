#include "puppies/psp/psp.h"

#include <algorithm>
#include <cstdlib>

#include "puppies/fault/fault.h"
#include "puppies/jpeg/chunk.h"
#include "puppies/jpeg/codec.h"
#include "puppies/metrics/metrics.h"

namespace puppies::psp {
namespace {

std::unique_ptr<store::BlobStore> open_backend(const PspConfig& config) {
  if (config.backend == StoreBackend::kMemory) return store::open_memory_store();
  std::string dir = config.data_dir;
  if (dir.empty()) {
    const char* env = std::getenv("PUPPIES_DATA_DIR");
    dir = env && *env ? env : "puppies_data";
  }
  if (config.backend == StoreBackend::kReplicated)
    return store::open_replicated_disk_store(dir, config.shard_count,
                                             config.replication);
  return store::open_disk_store(dir);
}

/// Decode-side twin of measured_encode: upload-time parses funnel through
/// here so `store stats --json` shows the decode cost next to the encode
/// cost, plus how many restart segments fed the segment-parallel decoder.
jpeg::CoefficientImage parse_measured(std::span<const std::uint8_t> data,
                                      jpeg::ParseStats& stats) {
  metrics::ScopedTimer timer(metrics::histogram("psp.codec.decode_ms"));
  jpeg::CoefficientImage img = jpeg::parse(data, &stats);
  metrics::counter("psp.codec.decode_segments").add(stats.restart_segments);
  return img;
}

/// Every serving-side encode funnels through here: one timer histogram plus
/// the entropy-segment accounting counters, so `store stats --json` shows
/// the encode cost and the optimized-table win per upload/recompress.
/// `encode(stats)` runs the encode and fills `stats`.
template <typename Encode>
Bytes measured_encode(Encode&& encode) {
  metrics::ScopedTimer timer(metrics::histogram("psp.codec.encode_ms"));
  jpeg::EncodeStats stats;
  Bytes out = encode(&stats);
  metrics::counter("psp.codec.entropy_bytes").add(stats.entropy_bytes);
  metrics::counter("psp.codec.entropy_saved_bytes").add(stats.saved_bytes);
  return out;
}

/// The serving-side encode settings at the given restart cadence.
jpeg::EncodeOptions encode_options(const PspConfig& config,
                                   int restart_interval) {
  jpeg::EncodeOptions eo;
  eo.huffman = config.huffman;
  eo.restart_interval = restart_interval;
  return eo;
}

}  // namespace

PspService::PspService() : PspService(PspConfig{}) {}

PspService::PspService(const PspConfig& config)
    : config_(config),
      blobs_(open_backend(config)),
      repl_(dynamic_cast<store::ReplicatedStore*>(blobs_.get())),
      cache_(config.cache_bytes) {
  // A negative EncodeOptions interval is the per-MCU-row default, which the
  // serving cadence does not take.
  require(config.restart_interval >= 0 && config.restart_interval <= 0xffff,
          "PspConfig::restart_interval out of range");
}

std::string PspService::upload(const Bytes& jfif, const Bytes& public_params) {
  metrics::ScopedTimer timer(metrics::histogram("psp.upload_ms"));
  // The PSP validates uploads parse as JPEG (it must be able to process
  // them — the compatibility property PUPPIES is designed around). The
  // parse result is retained so transforms never re-decode the stream.
  // Parse and blob publication run outside the map lock: only the cheap
  // insert serializes against other uploads.
  metrics::counter("psp.codec.parse").add();
  jpeg::ParseStats stats;
  jpeg::CoefficientImage parsed = parse_measured(jfif, stats);
  auto e = std::make_unique<Entry>();
  e->restart_interval = stats.restart_interval;
  e->digest = blobs_->put(jfif);
  // Live uploads hold a GC reference; remove() is what drops it.
  if (repl_) repl_->pin(e->digest);
  e->jfif_bytes = jfif.size();
  e->public_params = public_params;
  e->parsed = std::move(parsed);
  std::string id;
  {
    std::unique_lock lock(mu_);
    id = "img-" + std::to_string(next_id_++);
    entries_.emplace(id, std::move(e));
  }
  metrics::counter("psp.upload").add();
  return id;
}

PspService::Entry& PspService::entry(const std::string& id) const {
  std::shared_lock lock(mu_);
  auto it = entries_.find(id);
  require(it != entries_.end() && !it->second->removed.load(),
          "unknown image id");
  return *it->second;
}

void PspService::remove(const std::string& id) {
  Entry& e = entry(id);
  std::lock_guard entry_lock(e.mu);
  require(!e.removed.load(), "unknown image id");
  e.removed.store(true);
  if (repl_) repl_->unpin(e.digest);
  // Release the heavy per-image state; the tombstoned Entry itself stays
  // (entry pointers resolved under the map lock must remain valid).
  e.parsed = jpeg::CoefficientImage{};
  e.public_params = Bytes{};
  e.transformed.reset();
  metrics::counter("psp.remove").add();
}

const Digest& PspService::digest_of(const std::string& id) const {
  Entry& e = entry(id);
  std::lock_guard lock(e.mu);
  return e.digest;
}

std::size_t PspService::image_count() const {
  std::shared_lock lock(mu_);
  std::size_t live = 0;
  for (const auto& [id, e] : entries_)
    if (!e->removed.load()) ++live;
  return live;
}

void PspService::apply_transform(const std::string& id,
                                 const transform::Chain& chain,
                                 DeliveryMode mode, int reencode_quality) {
  transform_entry(entry(id), chain, mode, reencode_quality);
}

Bytes PspService::compute_transform(
    const Entry& e, const transform::Chain& chain, DeliveryMode mode,
    int reencode_quality) const {
  if (fault::point("psp.transform.compute"))
    throw TransientError("injected: psp.transform.compute");
  const bool all_lossless =
      std::all_of(chain.begin(), chain.end(),
                  [](const transform::Step& s) { return s.lossless(); });

  const jpeg::EncodeOptions eo =
      encode_options(config_, config_.restart_interval);
  jpeg::ChunkOptions copt;
  copt.mcu_rows = config_.chunk_mcu_rows;
  if (all_lossless && mode == DeliveryMode::kCoefficients) {
    metrics::ScopedTimer timer(metrics::histogram("psp.transform.lossless_ms"));
    metrics::counter("psp.codec.lossless_op")
        .add(static_cast<std::uint64_t>(chain.size()));
    const jpeg::CoefficientImage img =
        transform::apply_lossless(chain, e.parsed);
    metrics::counter("psp.codec.serialize").add();
    return measured_encode([&](jpeg::EncodeStats* st) {
      return jpeg::serialize(img, eo, nullptr, st);
    });
  }
  require(mode == DeliveryMode::kClampedReencode,
          "coefficient delivery requires an all-lossless chain");
  metrics::ScopedTimer timer(metrics::histogram("psp.transform.pixel_ms"));
  if (transform::canonicalize(chain).empty()) {
    // The chain folds to the identity (plain recompress-at-quality): stream
    // decode -> clamp -> re-encode one output band at a time
    // (jpeg::transcode_chunked), never materializing a full pixel plane on
    // either side. Byte-identical to the general path below — D4 folding
    // is exact — so the shared transform cache key stays safe.
    metrics::ScopedTimer reencode(
        metrics::histogram("psp.transform.reencode_ms"));
    metrics::counter("psp.codec.inverse").add();
    metrics::counter("psp.codec.forward").add();
    metrics::counter("psp.codec.recompress_streamed").add();
    return measured_encode([&](jpeg::EncodeStats* st) {
      return jpeg::recompress_chunked(e.parsed, reencode_quality, eo, copt,
                                      nullptr, st);
    });
  }
  // An untrusted chain is bounded before the decode: a scale target that
  // is not positive or over the decode limit is a bad request.
  transform::map_size(chain, e.parsed.width(), e.parsed.height());
  metrics::counter("psp.codec.inverse").add();
  const YccImage transformed =
      transform::apply(chain, jpeg::inverse_transform(e.parsed));
  // Clamp and re-encode on the band engine (jpeg/chunk.h), so per-request
  // pixel scratch stays a few MCU rows per pool lane instead of three more
  // full-image planes. Bytes never depend on the band size, which is why
  // the chunk knob never enters the transform cache key.
  metrics::ScopedTimer reencode(
      metrics::histogram("psp.transform.reencode_ms"));
  metrics::counter("psp.codec.forward").add();
  jpeg::ScanIndex scan;
  const jpeg::CoefficientImage coeffs =
      jpeg::forward_transform_clamped_chunked(transformed, reencode_quality,
                                              eo.chroma, copt, &scan);
  return measured_encode([&](jpeg::EncodeStats* st) {
    return jpeg::serialize(coeffs, eo, &scan, st);
  });
}

void PspService::transform_entry(Entry& e, const transform::Chain& chain,
                                 DeliveryMode mode, int reencode_quality) {
  std::lock_guard entry_lock(e.mu);
  // A remove() that raced past the id lookup: deleted images are silently
  // skipped, not transformed.
  if (e.removed.load()) return;
  metrics::counter("psp.transform").add();
  // The reencode quality only reaches the output on the clamped-reencode
  // path; masking it elsewhere lets e.g. kCoefficients requests at
  // different qualities share one cache entry.
  const bool quality_relevant = mode == DeliveryMode::kClampedReencode;
  const Digest key = store::transform_cache_key(
      e.digest, chain, static_cast<std::uint8_t>(mode), reencode_quality,
      quality_relevant, static_cast<std::uint8_t>(config_.huffman),
      config_.restart_interval);
  try {
    e.transformed = cache_.get_or_compute(key, [&] {
      return compute_transform(e, chain, mode, reencode_quality);
    });
  } catch (const TransientError&) {
    // Degraded mode: the compute hiccupped (or a single-flight leader's
    // failure was rethrown to this follower). The failed flight does not
    // poison the key — the cache drops it — so retry directly off the
    // retained parse and keep serving; the next caller recomputes and
    // caches as usual.
    metrics::counter("psp.degraded.cache").add();
    e.transformed = std::make_shared<const Bytes>(
        compute_transform(e, chain, mode, reencode_quality));
  }
  // Record the canonical chain: canonically equal requests share one cache
  // entry, so the reported chain must be the one the served bytes correspond
  // to (receivers replay it during recovery; the fold is exact, so replaying
  // the canonical form recovers identically).
  e.chain = transform::canonicalize(chain);
  e.mode = mode;
}

Download PspService::download(const std::string& id) {
  metrics::ScopedTimer timer(metrics::histogram("psp.download_ms"));
  Entry& e = entry(id);
  Download d;
  Digest digest;
  {
    std::lock_guard entry_lock(e.mu);
    require(!e.removed.load(), "unknown image id");
    metrics::counter("psp.download").add();
    d.public_params = e.public_params;
    if (e.transformed) {
      d.chain = e.chain;
      d.mode = e.mode;
      d.jfif = *e.transformed;
      return d;
    }
    digest = e.digest;
  }
  d.chain = {};
  d.mode = DeliveryMode::kCoefficients;
  // The read and its re-hash run without the entry lock, so concurrent raw
  // downloads of one image do not queue behind each other.
  try {
    d.jfif = blobs_->get(digest);
    return d;
  } catch (const Error& err) {
    // Degraded mode: the store could not produce verified bytes (read
    // failure past the retry budget, or the blob was quarantined as
    // corrupt). The retained parse is the authoritative copy — serve
    // from it, and re-publish it so the store heals itself.
    metrics::counter("psp.degraded.store_read").add();
    if (dynamic_cast<const CorruptionError*>(&err))
      metrics::counter("psp.degraded.store_corrupt").add();
  }
  std::lock_guard entry_lock(e.mu);
  // remove() may have released the parse while the read ran unlocked.
  require(!e.removed.load(), "unknown image id");
  // Reproduce the upload's own restart layout (not the serving config's):
  // the heal re-publishes under the original content address, so the bytes
  // must match the upload, not a transform.
  const jpeg::EncodeOptions eo = encode_options(config_, e.restart_interval);
  d.jfif = measured_encode([&](jpeg::EncodeStats* st) {
    return jpeg::serialize(e.parsed, eo, nullptr, st);
  });
  // A concurrent download that failed the same read may have healed and
  // repointed the entry already; only the first heal publishes.
  if (!(e.digest == digest)) return d;
  try {
    const Digest healed = blobs_->put(d.jfif);
    if (!(healed == e.digest)) {
      // The upload was not a serialize() fixpoint, so the healed copy lives
      // at its own address; repoint the entry (the content address is the
      // name, and this is now the content) and move the GC reference with
      // it.
      if (repl_) {
        repl_->pin(healed);
        repl_->unpin(e.digest);
      }
      e.digest = healed;
      e.jfif_bytes = d.jfif.size();
    }
    metrics::counter("psp.healed.store").add();
  } catch (const Error&) {
    // Store still down; keep serving from memory.
  }
  return d;
}

std::size_t PspService::stored_bytes(const std::string& id) const {
  const Entry& e = entry(id);
  std::lock_guard entry_lock(e.mu);
  std::size_t total = e.jfif_bytes + e.public_params.size();
  if (e.transformed) total += e.transformed->size();
  return total;
}

void SecureChannel::send_matrices(const std::string& receiver,
                                  const SecretKey& key, int count) {
  deliveries_[receiver].push_back(
      Delivery{key.id(), core::MatrixSet::derive(key, count)});
}

core::KeyRing SecureChannel::ring_for(const std::string& receiver) const {
  core::KeyRing ring;
  auto it = deliveries_.find(receiver);
  if (it == deliveries_.end()) return ring;
  for (const Delivery& d : it->second) ring.add(d.matrix_id, d.set);
  return ring;
}

std::size_t SecureChannel::private_bytes(const std::string& receiver) const {
  auto it = deliveries_.find(receiver);
  if (it == deliveries_.end()) return 0;
  std::size_t total = 0;
  for (const Delivery& d : it->second) total += d.set.wire_bytes();
  return total;
}

}  // namespace puppies::psp
