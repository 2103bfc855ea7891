// Bounded LRU cache of snapshot blobs, keyed by simulated time.
//
// A forked system run (fi::SystemBaseline) restores every experiment from
// the nearest cached checkpoint of a shared fast-forwarded baseline. The
// cache is byte-bounded, not entry-bounded, because blob sizes vary with
// the state they hold; eviction is least-recently-used. Every chunk owns a
// PRIVATE cache instance, so hit/miss counters are pure functions of the
// chunk contents and stay bit-identical at every thread count.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

namespace nlft::snap {

class SnapshotCache {
 public:
  /// A snapshot is identified by the simulated time it was taken at (an
  /// instruction index for machine-level snapshots, microseconds for
  /// system-level ones) plus a caller-defined stream tag (e.g. which TEM
  /// copy band the baseline belongs to).
  struct Key {
    std::uint64_t time = 0;
    std::uint64_t tag = 0;
    friend bool operator==(Key, Key) = default;
  };

  explicit SnapshotCache(std::size_t maxBytes) : maxBytes_(maxBytes) {}

  /// Returns the cached blob (marking it most-recently-used), or nullptr.
  /// Counts a hit or a miss.
  [[nodiscard]] const std::vector<std::uint8_t>* find(Key key);

  /// Inserts (or replaces) a blob, then evicts least-recently-used entries
  /// until the cache fits maxBytes again. A blob larger than the whole
  /// budget is still kept (alone) so forking always has a resume point.
  void insert(Key key, std::vector<std::uint8_t> blob);

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  [[nodiscard]] std::uint64_t insertedBytes() const { return insertedBytes_; }
  [[nodiscard]] std::size_t bytesInUse() const { return bytesInUse_; }
  [[nodiscard]] std::size_t entries() const { return entries_.size(); }
  [[nodiscard]] std::size_t maxBytes() const { return maxBytes_; }

 private:
  struct KeyHash {
    std::size_t operator()(Key key) const {
      // Splitmix-style scramble; tag occupies the high bits.
      std::uint64_t x = key.time ^ (key.tag * 0x9E3779B97F4A7C15ull);
      x ^= x >> 30;
      x *= 0xBF58476D1CE4E5B9ull;
      x ^= x >> 27;
      return static_cast<std::size_t>(x);
    }
  };
  struct Entry {
    Key key;
    std::vector<std::uint8_t> blob;
  };

  std::size_t maxBytes_;
  std::size_t bytesInUse_ = 0;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t insertedBytes_ = 0;
};

}  // namespace nlft::snap
