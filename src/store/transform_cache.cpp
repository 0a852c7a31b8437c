#include "puppies/store/transform_cache.h"

#include "puppies/metrics/metrics.h"

namespace puppies::store {

Digest transform_cache_key(const Digest& source,
                           const transform::Chain& chain,
                           std::uint8_t delivery_mode, int reencode_quality,
                           bool quality_relevant, std::uint8_t encode_mode,
                           int restart_interval) {
  ByteWriter w;
  w.raw(source.bytes);
  w.u8(delivery_mode);
  w.i32(quality_relevant ? reencode_quality : 0);
  w.u8(encode_mode);
  w.i32(restart_interval);
  transform::write_chain(w, transform::canonicalize(chain));
  return sha256(w.bytes());
}

TransformCache::TransformCache(std::size_t budget_bytes)
    : lru_(budget_bytes) {}

std::size_t TransformCache::size_bytes() const {
  std::lock_guard lock(mu_);
  return lru_.bytes();
}

std::size_t TransformCache::count() const {
  std::lock_guard lock(mu_);
  return lru_.size();
}

void TransformCache::clear() {
  std::lock_guard lock(mu_);
  lru_.clear();
}

TransformCache::ResultPtr TransformCache::get_or_compute(
    const Digest& key, const std::function<Bytes()>& compute) {
  if (!enabled()) {
    metrics::counter("cache.miss").add();
    metrics::ScopedTimer timer(metrics::histogram("cache.compute_ms"));
    return std::make_shared<const Bytes>(compute());
  }

  std::shared_ptr<Flight> flight;
  {
    std::lock_guard lock(mu_);
    if (const ResultPtr* hit = lru_.get(key)) {
      metrics::counter("cache.hit").add();
      return *hit;
    }
    auto fit = flights_.find(key);
    if (fit != flights_.end()) {
      flight = fit->second;  // someone else is computing this key
    } else {
      flights_.emplace(key, std::make_shared<Flight>());
      metrics::counter("cache.miss").add();
    }
  }

  if (flight) {
    // Single-flight follower: block until the leader publishes. Safe on an
    // exec-pool worker — the leader runs its (possibly nested-parallel)
    // compute inline and never needs this blocked lane to finish.
    metrics::counter("cache.wait").add();
    std::unique_lock fl(flight->mu);
    flight->cv.wait(fl, [&] { return flight->done; });
    if (flight->error) std::rethrow_exception(flight->error);
    return flight->result;
  }

  // Leader: compute outside the cache lock.
  ResultPtr result;
  std::exception_ptr error;
  try {
    metrics::ScopedTimer timer(metrics::histogram("cache.compute_ms"));
    result = std::make_shared<const Bytes>(compute());
  } catch (...) {
    error = std::current_exception();
  }

  std::shared_ptr<Flight> own;
  {
    std::lock_guard lock(mu_);
    own = flights_.at(key);
    flights_.erase(key);
    // Entry overhead (key, LRU node, map slot) charged as a flat 128 bytes.
    if (!error)
      if (const std::size_t evicted =
              lru_.put(key, result, 128 + result->size()))
        metrics::counter("cache.eviction").add(evicted);
  }
  {
    std::lock_guard fl(own->mu);
    own->result = result;
    own->error = error;
    own->done = true;
  }
  own->cv.notify_all();
  if (error) std::rethrow_exception(error);
  return result;
}

}  // namespace puppies::store
