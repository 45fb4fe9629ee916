// Set-associative sector cache model.
//
// GPU L1/L2 caches serve 32-byte sector requests; a warp's coalesced access
// becomes one probe per distinct sector. This model is functional-free
// (tags only — data lives in host memory) and tracks hits/misses with true
// LRU within each set. Determinism: no randomness, no time — state depends
// only on the probe sequence.
//
// Layout: each set is `ways` tags kept in recency order, most recently used
// first, with empty ways trailing the valid ones. A hit rotates its tag to
// the front; a miss shifts the set down one slot, which drops the LRU tag
// (or an empty way, while the set is not yet full) off the end. That is
// exactly the hit/miss and eviction sequence of timestamp LRU that fills
// empty ways first, with no timestamps to store or scan.
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace eta::sim {

class SectorCache {
 public:
  /// capacity_bytes / sector_bytes sectors, organized `ways`-associative.
  /// The set count is rounded down to a power of two for cheap indexing.
  SectorCache(uint64_t capacity_bytes, uint32_t ways, uint32_t sector_bytes = 32);

  /// Probes for `sector` (an absolute sector index, i.e. address / 32).
  /// On miss the sector is filled, evicting the set's LRU way.
  /// Returns true on hit.
  bool Access(uint64_t sector) {
    // The default L1 (4-way) and L2 (8-way) geometries get compile-time
    // trip counts; any other associativity runs the same loops on ways_.
    switch (ways_) {
      case 4: return AccessWays<4>(sector);
      case 8: return AccessWays<8>(sector);
      default: return AccessWays<0>(sector);
    }
  }

  /// Probe without fill (used for write-through stores).
  bool Probe(uint64_t sector) const;

  /// Invalidate everything (e.g. when unified-memory pages are evicted the
  /// stale sectors must not produce phantom hits).
  void InvalidateAll();

  /// Invalidates all sectors within [first_sector, last_sector).
  void InvalidateRange(uint64_t first_sector, uint64_t last_sector);

  uint64_t Hits() const { return hits_; }
  uint64_t Accesses() const { return accesses_; }
  uint32_t NumSets() const { return num_sets_; }
  uint32_t Ways() const { return ways_; }

 private:
  /// Never a real sector: sector indices are addresses / 32.
  static constexpr uint64_t kEmptyTag = ~0ULL;

  /// Access with `kWays` ways, or ways_ when kWays is 0.
  template <uint32_t kWays>
  bool AccessWays(uint64_t sector) {
    const uint32_t ways = kWays != 0 ? kWays : ways_;
    uint64_t* set = &tags_[(sector & set_mask_) * ways];
    ++accesses_;
    if (set[0] == sector) {  // the MRU way: repeated probes of one sector
      ++hits_;
      return true;
    }
    // Tags are unique within a set, so at most one way matches; a miss
    // takes the LRU (last) way. Both loops run a fixed number of trips with
    // selects in place of data-dependent exits.
    uint32_t pos = ways - 1;
    bool hit = false;
    for (uint32_t w = 1; w < ways; ++w) {
      const bool match = set[w] == sector;
      hit |= match;
      pos = match ? w : pos;
    }
    // Ways [0, pos) move down one; `sector` becomes the MRU way.
    for (uint32_t w = ways - 1; w > 0; --w) set[w] = w <= pos ? set[w - 1] : set[w];
    set[0] = sector;
    hits_ += hit ? 1 : 0;
    return hit;
  }

  uint32_t num_sets_;
  uint32_t set_mask_;
  uint32_t ways_;
  std::vector<uint64_t> tags_;  // num_sets_ * ways_, per set MRU first
  uint64_t hits_ = 0;
  uint64_t accesses_ = 0;
};

}  // namespace eta::sim
