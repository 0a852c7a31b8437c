#pragma once

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "puppies/common/bytes.h"
#include "puppies/common/digest.h"
#include "puppies/store/byte_lru.h"
#include "puppies/transform/transform.h"

namespace puppies::store {

/// Cache key for a transform result: a digest over (source blob digest,
/// canonicalized chain, delivery mode, reencode quality, encode mode,
/// restart interval). The chain is canonicalized (transform::canonicalize)
/// so e.g. rotate90+rotate90 and rotate180 share an entry;
/// `quality_relevant` masks the quality out of the key for delivery modes
/// that never re-encode.
/// `encode_mode` is the Huffman mode the serving path re-encodes with and
/// `restart_interval` its restart cadence (PspConfig::restart_interval):
/// either changes the served bytes, so results that differ in either never
/// share an entry. Both live only in this key; the chain wire format
/// (transform::write_chain) does not carry them. The cache is in memory,
/// so no key outlives the process that computed it.
Digest transform_cache_key(const Digest& source, const transform::Chain& chain,
                           std::uint8_t delivery_mode, int reencode_quality,
                           bool quality_relevant, std::uint8_t encode_mode,
                           int restart_interval);

/// LRU cache of transform results (the served JFIF bytes) with a byte
/// budget and single-flight computation: concurrent get_or_compute() calls
/// for the same key (e.g. two connections applying one chain to one image)
/// run `compute` once; everyone else blocks until the result lands. Each
/// entry charges its byte size plus a flat 128 bytes of overhead. Results
/// are immutable and shared, so an entry may be evicted while downloads
/// still hold it.
///
/// Metrics: cache.hit / cache.miss / cache.eviction / cache.wait counters,
/// cache.compute_ms histogram.
class TransformCache {
 public:
  using ResultPtr = std::shared_ptr<const Bytes>;

  /// budget_bytes == 0 disables caching: get_or_compute always computes.
  explicit TransformCache(std::size_t budget_bytes);

  ResultPtr get_or_compute(const Digest& key,
                           const std::function<Bytes()>& compute);

  bool enabled() const { return lru_.budget_bytes() > 0; }
  std::size_t budget_bytes() const { return lru_.budget_bytes(); }
  std::size_t size_bytes() const;
  std::size_t count() const;
  void clear();

 private:
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    ResultPtr result;
    std::exception_ptr error;
  };
  mutable std::mutex mu_;
  ByteLru<Digest, ResultPtr, DigestHash> lru_;
  std::unordered_map<Digest, std::shared_ptr<Flight>, DigestHash> flights_;
};

}  // namespace puppies::store
