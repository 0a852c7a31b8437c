#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "puppies/core/params.h"
#include "puppies/jpeg/codec.h"
#include "puppies/jpeg/coeffs.h"
#include "puppies/store/blob_store.h"
#include "puppies/store/replicated_store.h"
#include "puppies/store/transform_cache.h"
#include "puppies/transform/transform.h"

namespace puppies::psp {

/// How the PSP delivers a transformed image to a downloader. Either way the
/// download is a JFIF stream, as a real platform serves it. The values are
/// the wire byte (net/protocol.h) and part of the transform cache key, so
/// they are pinned; 1 is unassigned.
enum class DeliveryMode : std::uint8_t {
  /// Lossless chain: the coefficient-domain result, re-encoded JFIF.
  kCoefficients = 0,
  /// Pixel chain: decode, transform, clamp to 8 bit and re-encode as JPEG.
  kClampedReencode = 2,
};

/// What a receiver gets back: the (possibly transformed) image plus the
/// public metadata — parameters and the applied transformation chain
/// ("transformation type at PSP side" is public data, Section III-C).
/// The wire tier sends exactly this struct (net::DownloadReply).
struct Download {
  transform::Chain chain;
  DeliveryMode mode = DeliveryMode::kCoefficients;
  Bytes jfif;
  Bytes public_params;
};

/// Which BlobStore backend a PspService persists perturbed images in.
enum class StoreBackend : std::uint8_t {
  kMemory,      ///< default: nothing persists past the service
  kDisk,        ///< content-addressed files under `data_dir`
  kReplicated,  ///< R-way replicated disk shards under `data_dir`/shard-<i>
};

/// Serving-side configuration. The defaults reproduce the historical
/// in-memory behaviour; `cache_bytes = 0` disables the transform cache
/// (downloads are byte-identical either way — the cache only saves work).
struct PspConfig {
  StoreBackend backend = StoreBackend::kMemory;
  /// Transform-result cache budget; 0 disables caching.
  std::size_t cache_bytes = 64ull << 20;
  /// Root for kDisk. Empty resolves PUPPIES_DATA_DIR, then "puppies_data".
  std::string data_dir;
  /// Huffman tables for every serving-side encode (transform results,
  /// recompress, degraded-mode heals). kOptimized (the default, matching
  /// jpeg::EncodeOptions) shrinks entropy segments by rebuilding tables
  /// from each image's symbol histogram; the mode is part of the transform
  /// cache key so the two modes never share cached bytes. `serve` has no
  /// flag for it.
  jpeg::HuffmanMode huffman = jpeg::HuffmanMode::kOptimized;
  /// Band cap (ChunkOptions::mcu_rows) for the serving-side re-encodes on
  /// the band engine (jpeg/chunk.h); 0 means 16. Purely an execution knob —
  /// served bytes are identical for every value — so it is deliberately NOT
  /// part of the transform cache key and cached digests survive any
  /// setting.
  int chunk_mcu_rows = 0;
  /// Restart interval (MCUs) for every serving-side encode. Restart markers
  /// make served scans segment-parallel decodable on the receiver and let
  /// the serving encode write its segments in parallel. Changes served
  /// bytes (DRI + RSTn), so it IS part of the transform cache key. 0
  /// disables restart markers.
  int restart_interval = 64;
  /// kReplicated only: number of disk shards under `data_dir` and the
  /// replication/repair/GC knobs (DESIGN.md §14).
  int shard_count = 3;
  store::ReplicationConfig replication;
};

/// The semi-honest Photo Sharing Platform: stores perturbed images and
/// public parameters, applies transformations on request, serves downloads.
/// It never sees key material.
///
/// Its operations are the ones `serve` carries (net/protocol.h): upload,
/// apply, download, plus remove and the stats accessors below. Every result
/// it serves is a JFIF stream.
///
/// Serving architecture (DESIGN.md §7): perturbed JPEGs live in a
/// content-addressed BlobStore; each upload is parsed once and the
/// coefficient image retained; transformed JFIF bytes are memoized in a
/// single-flight LRU TransformCache; every step feeds metrics::Registry.
///
/// Robustness (DESIGN.md §9): the service never stops serving. A blob-store
/// read failure or corruption during download falls back to the retained
/// in-memory parse (metrics `psp.degraded.*`) and re-publishes the blob to
/// heal the store; a transient cache/compute failure during apply_transform
/// is retried directly, bypassing the cache, and never poisons a cache key.
///
/// Concurrency (DESIGN.md §12): every public method is safe to call from
/// any thread — the serving tier (`puppies::net`) multiplexes concurrent
/// client requests straight onto one PspService. A shared_mutex guards the
/// id->entry map (uploads take it exclusive, lookups shared) and each entry
/// carries its own mutex, so requests against different images run fully in
/// parallel while applies on one image serialize per entry (a raw download
/// reads and verifies the blob outside that lock).
/// Entries are never erased, so an entry pointer resolved under the map
/// lock stays valid after it is released.
class PspService {
 public:
  PspService();
  explicit PspService(const PspConfig& config);

  /// Stores an uploaded perturbed image; returns its id. On a replicated
  /// backend the upload pins its blob digest, so GC never reclaims a live
  /// upload.
  std::string upload(const Bytes& jfif, const Bytes& public_params);

  /// Deletes an uploaded image: the id stops resolving, the retained parse
  /// and any transform result are released, and on a replicated backend the
  /// blob digest is unpinned — the orphaned blob is reclaimed by
  /// ReplicatedStore::gc() once the grace period elapses. Idempotence:
  /// removing an already-removed (or unknown) id throws InvalidArgument,
  /// same as any other lookup of it.
  void remove(const std::string& id);

  /// Applies `chain` to the stored image. kCoefficients runs an
  /// all-lossless chain in the coefficient domain; kClampedReencode decodes,
  /// transforms, clamps and re-encodes at `reencode_quality`.
  void apply_transform(const std::string& id, const transform::Chain& chain,
                       DeliveryMode mode = DeliveryMode::kClampedReencode,
                       int reencode_quality = 85);

  /// Serves the (possibly transformed) image. Degraded mode: if the blob
  /// store cannot produce verified bytes (transient failure or quarantined
  /// corruption), the download is served from the retained parse instead
  /// and the blob is re-published from it — self-healing, since re-putting
  /// restores the content under the same address.
  Download download(const std::string& id);

  /// Cloud-side storage in bytes for this image (perturbed image + public
  /// parameters + transformed variant).
  std::size_t stored_bytes(const std::string& id) const;

  std::size_t image_count() const;

  /// Content address of a stored image's perturbed JPEG.
  const Digest& digest_of(const std::string& id) const;

  /// The underlying content-addressed store / transform cache (stats,
  /// CLI plumbing, tests).
  const store::BlobStore& blobs() const { return *blobs_; }
  store::TransformCache& cache() { return cache_; }

  /// The replicated composite when config.backend == kReplicated (repair /
  /// scrub / GC plumbing for the CLI and tests); nullptr otherwise.
  store::ReplicatedStore* replicated() { return repl_; }

 private:
  struct Entry {
    /// Serializes apply/download/heal against this image. Held across the
    /// transform compute, so two requests for one image never race; the
    /// cache's single-flight would have serialized that compute anyway. A
    /// raw download holds it only to copy the digest and parameters: the
    /// blob read and its re-hash run unlocked.
    mutable std::mutex mu;
    /// Tombstone set by remove(). Entries are never erased (the map-lock /
    /// entry-pointer stability contract above), so deletion is a flag;
    /// atomic because entry() checks it under the map lock only.
    std::atomic<bool> removed{false};
    Digest digest;              ///< address of the perturbed JPEG in blobs_
    std::size_t jfif_bytes = 0;
    Bytes public_params;
    /// Parsed once at upload; transforms start here instead of re-parsing
    /// the byte stream on every apply_transform call.
    jpeg::CoefficientImage parsed;
    /// The upload's own restart interval (from the same parse), so a
    /// degraded-mode heal re-serializes the upload's layout, not the
    /// serving config's.
    int restart_interval = 0;
    transform::Chain chain;
    DeliveryMode mode = DeliveryMode::kCoefficients;
    store::TransformCache::ResultPtr transformed;  ///< null until transformed
  };
  Entry& entry(const std::string& id) const;
  void transform_entry(Entry& e, const transform::Chain& chain,
                       DeliveryMode mode, int reencode_quality);
  Bytes compute_transform(const Entry& e, const transform::Chain& chain,
                          DeliveryMode mode, int reencode_quality) const;

  PspConfig config_;
  std::unique_ptr<store::BlobStore> blobs_;
  /// Non-owning view of blobs_ when it is the replicated composite.
  store::ReplicatedStore* repl_ = nullptr;
  store::TransformCache cache_;
  /// Guards the map structure and next_id_; per-entry state is guarded by
  /// Entry::mu. Node-based map + no erase ⇒ entry addresses are stable.
  mutable std::shared_mutex mu_;
  std::map<std::string, std::unique_ptr<Entry>> entries_;
  int next_id_ = 0;
};

/// The sender->receiver secure channel of Fig. 5: distributes private
/// matrices (or the compact keys they derive from) and accounts the bytes
/// moved — the paper's "private part" size metric (Fig. 11).
class SecureChannel {
 public:
  /// Ships the ROI's matrix material (`count` pairs, Section IV-D) to
  /// `receiver`.
  void send_matrices(const std::string& receiver, const SecretKey& key,
                     int count = 1);

  /// The receiving side's assembled key ring.
  core::KeyRing ring_for(const std::string& receiver) const;

  /// Total private bytes sent to `receiver` (11-bit-packed matrix entries,
  /// the paper's accounting).
  std::size_t private_bytes(const std::string& receiver) const;

 private:
  struct Delivery {
    std::string matrix_id;
    core::MatrixSet set;
  };
  std::map<std::string, std::vector<Delivery>> deliveries_;
};

}  // namespace puppies::psp
