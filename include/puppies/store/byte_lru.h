#pragma once

#include <cstddef>
#include <list>
#include <unordered_map>
#include <utility>

namespace puppies::store {

/// Least-recently-used map with a byte budget: every entry is charged the
/// cost it was put with, and a put evicts from the cold end until the total
/// fits the budget again (the entry just put included, if it alone is over).
/// Shared by the transform cache and the replicated store's hot tier. Not
/// thread-safe: the owner serializes access under its own lock.
template <typename Key, typename Value, typename Hash>
class ByteLru {
 public:
  explicit ByteLru(std::size_t budget_bytes) : budget_(budget_bytes) {}

  std::size_t budget_bytes() const { return budget_; }
  std::size_t bytes() const { return bytes_; }
  std::size_t size() const { return map_.size(); }

  /// The entry for `key`, now the most recently used; nullptr if absent.
  const Value* get(const Key& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    list_.splice(list_.begin(), list_, it->second);
    return &it->second->value;
  }

  /// Inserts `key` as the most recently used entry, charged `cost` bytes,
  /// and returns how many entries the budget then evicted. A key already
  /// present keeps its value and is only refreshed.
  std::size_t put(const Key& key, Value value, std::size_t cost) {
    if (get(key)) return 0;
    list_.push_front(Node{key, std::move(value), cost});
    map_.emplace(key, list_.begin());
    bytes_ += cost;
    std::size_t evicted = 0;
    while (bytes_ > budget_ && !list_.empty()) {
      bytes_ -= list_.back().cost;
      map_.erase(list_.back().key);
      list_.pop_back();
      ++evicted;
    }
    return evicted;
  }

  /// Drops `key`; false if it was absent.
  bool erase(const Key& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return false;
    bytes_ -= it->second->cost;
    list_.erase(it->second);
    map_.erase(it);
    return true;
  }

  void clear() {
    map_.clear();
    list_.clear();
    bytes_ = 0;
  }

 private:
  struct Node {
    Key key;
    Value value;
    std::size_t cost;
  };

  const std::size_t budget_;
  std::list<Node> list_;  // front = most recently used
  std::unordered_map<Key, typename std::list<Node>::iterator, Hash> map_;
  std::size_t bytes_ = 0;
};

}  // namespace puppies::store
