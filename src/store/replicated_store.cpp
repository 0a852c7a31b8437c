// ReplicatedStore: consistent-hash R-way replication over N BlobStore
// backends with digest-verified failover reads, async read-repair, quorum
// writes, a hot LRU tier, a budgeted scrub scheduler, and refcounted GC
// (DESIGN.md §14). Single-node durability (fsync/rename/retry/quarantine)
// stays in the backends; this layer owns placement and convergence.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "puppies/common/error.h"
#include "puppies/exec/parallel_for.h"
#include "puppies/exec/task_queue.h"
#include "puppies/fault/fault.h"
#include "puppies/metrics/metrics.h"
#include "puppies/store/byte_lru.h"
#include "puppies/store/replicated_store.h"

namespace puppies::store {
namespace {

std::uint64_t be64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

class ReplicatedBlobStore final : public ReplicatedStore {
 public:
  ReplicatedBlobStore(std::vector<std::unique_ptr<BlobStore>> backends,
                      const ReplicationConfig& config)
      : cfg_(normalize(config, backends.size())),
        backends_(std::move(backends)),
        health_(backends_.size()),
        hot_(cfg_.hot_bytes) {
    require(!backends_.empty(), "replicated store needs at least one backend");
    build_ring();
    rebuild_index();
    repair_ = std::make_unique<exec::TaskQueue>(1, cfg_.repair_queue_depth);
    for (std::size_t i = 0; i < backends_.size(); ++i) health_gauge(i);
    if (cfg_.scrub_interval_ms > 0)
      scrubber_ = std::thread([this] { scrub_loop(); });
    metrics::counter("store.repl.open").add();
  }

  ~ReplicatedBlobStore() override {
    {
      std::lock_guard lock(scrub_cv_mu_);
      scrub_stop_ = true;
    }
    scrub_cv_.notify_all();
    if (scrubber_.joinable()) scrubber_.join();
    // Joins the repair worker while every member it touches is still alive.
    repair_.reset();
  }

  // ---- BlobStore -----------------------------------------------------------

  Digest put(std::span<const std::uint8_t> data) override {
    metrics::ScopedTimer timer(metrics::histogram("store.repl.put_ms"));
    ops_.fetch_add(1, std::memory_order_relaxed);
    const Digest d = sha256(data);
    const std::vector<std::size_t> targets = placement(d);
    int acks = 0;
    std::vector<std::size_t> failed;
    for (const std::size_t t : targets) {
      try {
        shard_put(t, data);
        ++acks;
        record_success(t);
      } catch (const Error&) {
        record_failure(t);
        failed.push_back(t);
      }
    }
    const int quorum =
        std::min(cfg_.write_quorum, static_cast<int>(targets.size()));
    if (acks < quorum) {
      metrics::counter("store.repl.put_failed").add();
      throw TransientError("replicated: write quorum not met (" +
                           std::to_string(acks) + "/" + std::to_string(quorum) +
                           " acks for " + d.to_hex() + ")");
    }
    {
      std::unique_lock lock(mu_);
      if (index_.emplace(d, data.size()).second) {
        total_ += data.size();
        metrics::counter("store.repl.put").add();
        metrics::counter("store.repl.put_bytes").add(data.size());
      } else {
        metrics::counter("store.repl.put_dedup").add();
      }
    }
    if (!failed.empty()) {
      // Acknowledged below R: async repair chases the stragglers now, the
      // scrub pass guarantees convergence even if these drop.
      metrics::counter("store.repl.put_partial").add();
      const Bytes copy(data.begin(), data.end());
      for (const std::size_t f : failed) enqueue_repair(d, f, copy);
    }
    return d;
  }

  Bytes get(const Digest& digest) const override {
    metrics::ScopedTimer timer(metrics::histogram("store.repl.get_ms"));
    ops_.fetch_add(1, std::memory_order_relaxed);
    if (std::optional<Bytes> hot = hot_get(digest)) {
      metrics::counter("store.repl.get").add();
      return std::move(*hot);
    }
    {
      std::shared_lock lock(mu_);
      require(index_.find(digest) != index_.end(), "unknown blob digest");
    }
    bool corrupt_seen = false;
    std::vector<std::size_t> bad;
    for (const std::size_t i : read_order(digest)) {
      Bytes data;
      try {
        data = shard_get(i, digest);
      } catch (const InvalidArgument&) {
        // The backend is healthy but never got this blob (a write that
        // stopped at quorum): divergence, not failure — repair, no health
        // penalty.
        bad.push_back(i);
        continue;
      } catch (const CorruptionError&) {
        corrupt_seen = true;
        record_failure(i);
        bad.push_back(i);
        continue;
      } catch (const Error&) {
        record_failure(i);
        bad.push_back(i);
        continue;
      }
      // Verify at this layer too: a memory backend trusts its bytes, and
      // the failover decision must not.
      if (sha256(data) != digest) {
        metrics::counter("store.repl.corrupt_read").add();
        corrupt_seen = true;
        record_failure(i);
        bad.push_back(i);
        continue;
      }
      record_success(i);
      if (!bad.empty()) {
        metrics::counter("store.repl.failover").add();
        metrics::counter("store.repl.read_repair").add(bad.size());
        for (const std::size_t b : bad) enqueue_repair(digest, b, data);
      }
      hot_put(digest, data);
      metrics::counter("store.repl.get").add();
      return data;
    }
    metrics::counter("store.repl.get_failed").add();
    if (corrupt_seen)
      throw CorruptionError("replicated: every replica of " + digest.to_hex() +
                            " failed verification");
    throw TransientError("replicated: every replica of " + digest.to_hex() +
                         " is unavailable");
  }

  bool contains(const Digest& digest) const override {
    std::shared_lock lock(mu_);
    return index_.find(digest) != index_.end();
  }

  std::size_t blob_size(const Digest& digest) const override {
    std::shared_lock lock(mu_);
    auto it = index_.find(digest);
    require(it != index_.end(), "unknown blob digest");
    return it->second;
  }

  std::size_t count() const override {
    std::shared_lock lock(mu_);
    return index_.size();
  }

  std::size_t total_bytes() const override {
    std::shared_lock lock(mu_);
    return total_;
  }

  std::vector<Digest> list() const override {
    std::shared_lock lock(mu_);
    std::vector<Digest> out;
    out.reserve(index_.size());
    for (const auto& [d, size] : index_) out.push_back(d);
    std::sort(out.begin(), out.end());
    return out;
  }

  bool erase(const Digest& digest) override {
    bool present = false;
    {
      std::unique_lock lock(mu_);
      auto it = index_.find(digest);
      if (it != index_.end()) {
        present = true;
        total_ -= it->second;
        index_.erase(it);
      }
      refs_.erase(digest);
    }
    hot_erase(digest);
    // Sweep every backend, not just placement: a blob put under a different
    // shard count must still disappear.
    for (const std::unique_ptr<BlobStore>& b : backends_) {
      try {
        b->erase(digest);
      } catch (const Error&) {
      }
    }
    if (present) metrics::counter("store.repl.erase").add();
    return present;
  }

  ScrubReport scrub(bool repair) override {
    return scrub_pass(list(), repair);
  }

  // ---- ReplicatedStore -----------------------------------------------------

  void pin(const Digest& digest) override {
    ops_.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock lock(mu_);
    ++refs_[digest].count;
    metrics::counter("store.repl.pin").add();
  }

  void unpin(const Digest& digest) override {
    const std::uint64_t now =
        ops_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::unique_lock lock(mu_);
    auto it = refs_.find(digest);
    if (it == refs_.end() || it->second.count == 0) {
      metrics::counter("store.repl.unpin_unbalanced").add();
      return;
    }
    metrics::counter("store.repl.unpin").add();
    if (--it->second.count == 0) {
      it->second.orphan_op = now;
      metrics::counter("store.repl.orphaned").add();
    }
  }

  GcReport gc() override {
    GcReport report;
    const std::uint64_t now = ops_.load(std::memory_order_relaxed);
    std::vector<Digest> victims;
    {
      std::shared_lock lock(mu_);
      report.tracked = refs_.size();
      for (const auto& [d, ref] : refs_) {
        if (ref.count > 0) continue;
        if (now - ref.orphan_op >= cfg_.gc_grace_ops)
          victims.push_back(d);
        else
          ++report.orphaned;
      }
    }
    for (const Digest& d : victims) {
      std::size_t size = 0;
      {
        std::unique_lock lock(mu_);
        auto ref = refs_.find(d);
        // Re-check under the lock: a pin may have raced the scan.
        if (ref == refs_.end() || ref->second.count > 0) continue;
        refs_.erase(ref);
        auto it = index_.find(d);
        if (it != index_.end()) {
          size = it->second;
          total_ -= size;
          index_.erase(it);
        }
      }
      hot_erase(d);
      for (const std::unique_ptr<BlobStore>& b : backends_) {
        try {
          b->erase(d);
        } catch (const Error&) {
        }
      }
      ++report.reclaimed;
      report.reclaimed_bytes += size;
    }
    metrics::counter("store.repl.gc").add();
    metrics::counter("store.repl.gc.reclaimed").add(report.reclaimed);
    metrics::counter("store.repl.gc.reclaimed_bytes")
        .add(report.reclaimed_bytes);
    return report;
  }

  ScrubReport scrub_step(std::size_t max_bytes, bool repair) override {
    std::vector<Digest> all = list();
    if (all.empty()) return {};
    // Resume after the cursor, wrapping: rotate the sorted walk so the
    // budget slides over the whole keyspace across successive steps.
    std::vector<Digest> work;
    work.reserve(all.size());
    {
      std::lock_guard lock(cursor_mu_);
      auto start = scrub_cursor_
                       ? std::upper_bound(all.begin(), all.end(), *scrub_cursor_)
                       : all.begin();
      if (start == all.end()) start = all.begin();
      work.insert(work.end(), start, all.end());
      work.insert(work.end(), all.begin(), start);
    }
    // Budget by expected replica bytes (size * R from the index), decided
    // up front so the step's workload is exact and deterministic.
    std::vector<Digest> selected;
    std::size_t budgeted = 0;
    for (const Digest& d : work) {
      if (max_bytes > 0 && !selected.empty() && budgeted >= max_bytes) break;
      std::size_t size = 0;
      {
        std::shared_lock lock(mu_);
        auto it = index_.find(d);
        if (it == index_.end()) continue;  // erased since list()
        size = it->second;
      }
      selected.push_back(d);
      budgeted += size * placement(d).size();
    }
    if (selected.empty()) return {};
    ScrubReport report = scrub_pass(selected, repair);
    {
      std::lock_guard lock(cursor_mu_);
      scrub_cursor_ = selected.back();
    }
    return report;
  }

  void flush_repairs() override {
    while (repair_ && repair_->in_flight() > 0) std::this_thread::yield();
  }

  std::size_t backend_count() const override { return backends_.size(); }

  BackendHealth backend_health(std::size_t backend) const override {
    require(backend < health_.size(), "backend index out of range");
    return static_cast<BackendHealth>(
        health_[backend].state.load(std::memory_order_relaxed));
  }

  std::vector<std::size_t> placement(const Digest& digest) const override {
    std::vector<std::size_t> out;
    const std::uint64_t key = be64(digest.bytes.data());
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(), key,
        [](const RingPoint& p, std::uint64_t k) { return p.point < k; });
    const std::size_t want =
        std::min<std::size_t>(cfg_.replicas, backends_.size());
    for (std::size_t step = 0; step < ring_.size() && out.size() < want;
         ++step) {
      if (it == ring_.end()) it = ring_.begin();
      if (std::find(out.begin(), out.end(), it->backend) == out.end())
        out.push_back(it->backend);
      ++it;
    }
    return out;
  }

 private:
  struct RingPoint {
    std::uint64_t point;
    std::size_t backend;
  };
  struct Health {
    std::atomic<int> consecutive{0};
    std::atomic<std::uint8_t> state{0};
  };
  struct RefState {
    std::uint64_t count = 0;
    std::uint64_t orphan_op = 0;  ///< ops_ when the count last hit zero
  };

  static ReplicationConfig normalize(ReplicationConfig cfg, std::size_t n) {
    const int backends = static_cast<int>(n ? n : 1);
    cfg.replicas = std::clamp(cfg.replicas, 1, backends);
    cfg.write_quorum = std::clamp(cfg.write_quorum, 1, cfg.replicas);
    cfg.vnodes = std::max(1, cfg.vnodes);
    cfg.quarantine_after = std::max(1, cfg.quarantine_after);
    cfg.repair_queue_depth = std::max<std::size_t>(1, cfg.repair_queue_depth);
    return cfg;
  }

  /// Placement determinism contract (replicated_store.h): points derive
  /// only from (backend index, vnode index) via SHA-256, never from
  /// pointers, clocks, or process state.
  void build_ring() {
    ring_.reserve(backends_.size() * static_cast<std::size_t>(cfg_.vnodes));
    for (std::size_t b = 0; b < backends_.size(); ++b) {
      for (int v = 0; v < cfg_.vnodes; ++v) {
        const Digest h =
            sha256("ring/" + std::to_string(b) + "#" + std::to_string(v));
        ring_.push_back(RingPoint{be64(h.bytes.data()), b});
      }
    }
    std::sort(ring_.begin(), ring_.end(),
              [](const RingPoint& a, const RingPoint& b) {
                return a.point != b.point ? a.point < b.point
                                          : a.backend < b.backend;
              });
  }

  /// The union of the backends' indexes is the composite's metadata:
  /// reopening over existing shards recovers everything any replica holds.
  void rebuild_index() {
    for (const std::unique_ptr<BlobStore>& b : backends_) {
      for (const Digest& d : b->list()) {
        const std::size_t size = b->blob_size(d);
        if (index_.emplace(d, size).second) total_ += size;
      }
    }
  }

  /// Backend access funnels (every read/write path, including repair and
  /// scrub) so the `store.shard.<i>.*` fault points cover them all.
  Bytes shard_get(std::size_t i, const Digest& d) const {
    if (fault::point("store.shard." + std::to_string(i) + ".get.fail"))
      throw TransientError("injected: store.shard." + std::to_string(i) +
                           ".get.fail");
    Bytes data = backends_[i]->get(d);
    // Replica bit-rot hook: flips a byte after the backend's own
    // verification, exactly what a divergent replica looks like up here.
    if (fault::point("store.shard." + std::to_string(i) + ".corrupt") &&
        !data.empty())
      data[data.size() / 2] ^= 0x01;
    return data;
  }

  void shard_put(std::size_t i, std::span<const std::uint8_t> data) const {
    if (fault::point("store.shard." + std::to_string(i) + ".put.fail"))
      throw TransientError("injected: store.shard." + std::to_string(i) +
                           ".put.fail");
    backends_[i]->put(data);
  }

  /// Placement order with quarantined backends demoted to last resort:
  /// still tried (a stale health verdict must not fail a read that could
  /// succeed) but never first.
  std::vector<std::size_t> read_order(const Digest& d) const {
    std::vector<std::size_t> order = placement(d);
    std::stable_partition(order.begin(), order.end(), [&](std::size_t i) {
      return health_[i].state.load(std::memory_order_relaxed) !=
             static_cast<std::uint8_t>(BackendHealth::kQuarantined);
    });
    return order;
  }

  void record_failure(std::size_t i) const {
    const int failures =
        health_[i].consecutive.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::uint8_t next = static_cast<std::uint8_t>(
        failures >= cfg_.quarantine_after ? BackendHealth::kQuarantined
                                          : BackendHealth::kDegraded);
    const std::uint8_t prev =
        health_[i].state.exchange(next, std::memory_order_relaxed);
    if (next == static_cast<std::uint8_t>(BackendHealth::kQuarantined) &&
        prev != next)
      metrics::counter("store.repl.backend_quarantined").add();
    health_gauge(i);
  }

  void record_success(std::size_t i) const {
    health_[i].consecutive.store(0, std::memory_order_relaxed);
    const std::uint8_t prev = health_[i].state.exchange(
        static_cast<std::uint8_t>(BackendHealth::kUp),
        std::memory_order_relaxed);
    if (prev != static_cast<std::uint8_t>(BackendHealth::kUp))
      metrics::counter("store.repl.backend_recovered").add();
    health_gauge(i);
  }

  void health_gauge(std::size_t i) const {
    metrics::gauge("store.repl.backend." + std::to_string(i) + ".health")
        .set(health_[i].state.load(std::memory_order_relaxed));
  }

  /// Schedules an async re-publish of `data` to `backend`. Deduplicates
  /// against in-flight repairs of the same (digest, backend); a full queue
  /// drops the repair (scrub converges it later).
  void enqueue_repair(const Digest& d, std::size_t backend,
                      const Bytes& data) const {
    {
      std::lock_guard lock(repair_mu_);
      if (!pending_repairs_.insert({d, backend}).second) return;
    }
    metrics::counter("store.repl.repair.enqueued").add();
    auto payload = std::make_shared<const Bytes>(data);
    const bool accepted = repair_->try_submit([this, d, backend, payload] {
      bool done = false;
      try {
        if (fault::point("store.repair.fail"))
          throw TransientError("injected: store.repair.fail");
        shard_put(backend, *payload);
        done = true;
      } catch (const Error&) {
      }
      {
        std::lock_guard lock(repair_mu_);
        pending_repairs_.erase({d, backend});
      }
      if (done) {
        metrics::counter("store.repl.repair.done").add();
        metrics::counter("store.repl.repair.bytes").add(payload->size());
        record_success(backend);
      } else {
        metrics::counter("store.repl.repair.failed").add();
      }
    });
    if (!accepted) {
      std::lock_guard lock(repair_mu_);
      pending_repairs_.erase({d, backend});
      metrics::counter("store.repl.repair.dropped").add();
    }
  }

  /// Verifies every replica of every digest in `digests` (fanned over the
  /// exec pool) and with `repair` re-publishes good bytes over divergent or
  /// missing replicas, synchronously. A verified read from a quarantined
  /// backend reinstates it.
  ScrubReport scrub_pass(const std::vector<Digest>& digests, bool repair) {
    metrics::ScopedTimer timer(metrics::histogram("store.repl.scrub_ms"));
    std::atomic<std::size_t> ok{0}, scanned{0}, repaired{0}, repaired_bytes{0};
    std::mutex unreadable_mu;
    std::vector<Digest> unreadable;
    exec::parallel_for(digests.size(), [&](std::size_t idx) {
      const Digest& d = digests[idx];
      Bytes good;
      std::vector<std::size_t> bad;
      for (const std::size_t t : placement(d)) {
        try {
          Bytes data = shard_get(t, d);
          if (sha256(data) == d) {
            scanned.fetch_add(data.size(), std::memory_order_relaxed);
            record_success(t);
            if (good.empty()) good = std::move(data);
            continue;
          }
          metrics::counter("store.repl.corrupt_read").add();
          record_failure(t);
        } catch (const InvalidArgument&) {
          // Missing replica: divergence, not backend failure.
        } catch (const Error&) {
          record_failure(t);
        }
        bad.push_back(t);
      }
      if (bad.empty()) {
        ok.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      if (good.empty()) {
        // No replica verified: nothing to repair from. The digest stays in
        // the index — a degraded-mode heal (re-put) is the only way back.
        std::lock_guard lock(unreadable_mu);
        unreadable.push_back(d);
        return;
      }
      metrics::counter("store.repl.scrub_divergent").add();
      if (!repair) return;
      for (const std::size_t t : bad) {
        try {
          shard_put(t, good);
          repaired.fetch_add(1, std::memory_order_relaxed);
          repaired_bytes.fetch_add(good.size(), std::memory_order_relaxed);
          record_success(t);
        } catch (const Error&) {
          metrics::counter("store.repl.scrub_repair_failed").add();
          record_failure(t);
        }
      }
    });
    ScrubReport report;
    report.checked = digests.size();
    report.ok = ok.load();
    report.bytes_scanned = scanned.load();
    report.repaired = repaired.load();
    report.repaired_bytes = repaired_bytes.load();
    std::sort(unreadable.begin(), unreadable.end());
    report.quarantined = std::move(unreadable);
    metrics::counter("store.repl.scrub").add();
    metrics::counter("store.scrub.bytes").add(report.bytes_scanned);
    metrics::counter("store.repl.scrub_repaired").add(report.repaired);
    return report;
  }

  /// Background anti-entropy: one budgeted step per tick. Interruptible
  /// waits so destruction never blocks on the interval.
  void scrub_loop() {
    std::unique_lock lock(scrub_cv_mu_);
    for (;;) {
      scrub_cv_.wait_for(lock,
                         std::chrono::milliseconds(cfg_.scrub_interval_ms),
                         [this] { return scrub_stop_; });
      if (scrub_stop_) return;
      lock.unlock();
      try {
        scrub_step(cfg_.scrub_budget_bytes, /*repair=*/true);
      } catch (const Error&) {
        // Keep scrubbing; per-replica failures are already counted.
      }
      lock.lock();
    }
  }

  // ---- hot tier ------------------------------------------------------------

  std::optional<Bytes> hot_get(const Digest& d) const {
    if (cfg_.hot_bytes == 0) return std::nullopt;
    std::lock_guard lock(hot_mu_);
    const Bytes* hit = hot_.get(d);
    metrics::counter(hit ? "store.repl.hot_hit" : "store.repl.hot_miss").add();
    if (!hit) return std::nullopt;
    return *hit;
  }

  void hot_put(const Digest& d, const Bytes& data) const {
    if (cfg_.hot_bytes == 0 || data.size() > cfg_.hot_bytes) return;
    std::lock_guard lock(hot_mu_);
    if (const std::size_t evicted = hot_.put(d, data, data.size()))
      metrics::counter("store.repl.hot_evict").add(evicted);
    metrics::gauge("store.repl.hot_bytes")
        .set(static_cast<std::int64_t>(hot_.bytes()));
  }

  void hot_erase(const Digest& d) const {
    if (cfg_.hot_bytes == 0) return;
    std::lock_guard lock(hot_mu_);
    if (!hot_.erase(d)) return;
    metrics::gauge("store.repl.hot_bytes")
        .set(static_cast<std::int64_t>(hot_.bytes()));
  }

  const ReplicationConfig cfg_;
  const std::vector<std::unique_ptr<BlobStore>> backends_;
  std::vector<RingPoint> ring_;
  mutable std::vector<Health> health_;

  /// Guards index_, total_, refs_. get() is logically const but failover
  /// bookkeeping mutates, same convention as the disk backend.
  mutable std::shared_mutex mu_;
  std::unordered_map<Digest, std::size_t, DigestHash> index_;
  std::size_t total_ = 0;
  std::unordered_map<Digest, RefState, DigestHash> refs_;
  mutable std::atomic<std::uint64_t> ops_{0};

  mutable std::mutex hot_mu_;
  mutable ByteLru<Digest, Bytes, DigestHash> hot_;

  mutable std::mutex repair_mu_;
  mutable std::set<std::pair<Digest, std::size_t>> pending_repairs_;

  std::mutex cursor_mu_;
  std::optional<Digest> scrub_cursor_;

  std::mutex scrub_cv_mu_;
  std::condition_variable scrub_cv_;
  bool scrub_stop_ = false;

  mutable std::unique_ptr<exec::TaskQueue> repair_;
  std::thread scrubber_;
};

}  // namespace

std::unique_ptr<ReplicatedStore> open_replicated_store(
    std::vector<std::unique_ptr<BlobStore>> backends,
    const ReplicationConfig& config) {
  return std::make_unique<ReplicatedBlobStore>(std::move(backends), config);
}

std::unique_ptr<ReplicatedStore> open_replicated_disk_store(
    const std::string& dir, int shards, const ReplicationConfig& config) {
  std::vector<std::unique_ptr<BlobStore>> backends;
  const int n = std::max(1, shards);
  backends.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    backends.push_back(open_disk_store(dir + "/shard-" + std::to_string(i)));
  return open_replicated_store(std::move(backends), config);
}

}  // namespace puppies::store
