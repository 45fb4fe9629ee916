// Tests for the GPU simulator: sector cache, device memory, coalescing,
// counters, atomics, the roofline clock, and determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "sanitizer/sanitizer.hpp"
#include "sim/cache.hpp"
#include "sim/device.hpp"
#include "sim/memory.hpp"
#include "util/rng.hpp"

namespace eta::sim {
namespace {

// --- SectorCache -------------------------------------------------------------

TEST(SectorCache, MissThenHit) {
  SectorCache cache(1024, 4);
  EXPECT_FALSE(cache.Access(7));
  EXPECT_TRUE(cache.Access(7));
  EXPECT_EQ(cache.Accesses(), 2u);
  EXPECT_EQ(cache.Hits(), 1u);
}

TEST(SectorCache, DefaultSpecStatesTheCapacitiesItModels) {
  // The set count is rounded down to a power of two; the default spec's
  // sizes must already be exact, or the docs would state the wrong cache.
  const DeviceSpec spec;
  const SectorCache l2(spec.l2_bytes, spec.l2_ways, spec.sector_bytes);
  EXPECT_EQ(uint64_t{l2.NumSets()} * spec.l2_ways * spec.sector_bytes, spec.l2_bytes);
  // Each warp sees its contention-scaled share of the SM's L1.
  const uint64_t l1_share = spec.l1_bytes / spec.l1_interleave_factor;
  const SectorCache l1(l1_share, spec.l1_ways, spec.sector_bytes);
  EXPECT_EQ(uint64_t{l1.NumSets()} * spec.l1_ways * spec.sector_bytes, l1_share);
}

TEST(SectorCache, LruEvictionWithinSet) {
  // 4 sets x 2 ways; sectors congruent mod 4 share a set.
  SectorCache cache(8 * 32, 2);
  ASSERT_EQ(cache.NumSets(), 4u);
  EXPECT_FALSE(cache.Access(0));
  EXPECT_FALSE(cache.Access(4));
  EXPECT_TRUE(cache.Access(0));   // refresh 0 -> 4 becomes LRU
  EXPECT_FALSE(cache.Access(8));  // evicts 4
  EXPECT_TRUE(cache.Access(0));
  EXPECT_FALSE(cache.Access(4));  // was evicted
}

TEST(SectorCache, DistinctSetsDoNotConflict) {
  SectorCache cache(8 * 32, 2);
  EXPECT_FALSE(cache.Access(0));
  EXPECT_FALSE(cache.Access(1));
  EXPECT_FALSE(cache.Access(2));
  EXPECT_TRUE(cache.Access(0));
  EXPECT_TRUE(cache.Access(1));
}

TEST(SectorCache, ProbeDoesNotFill) {
  SectorCache cache(1024, 4);
  EXPECT_FALSE(cache.Probe(9));
  EXPECT_FALSE(cache.Access(9));
  EXPECT_TRUE(cache.Probe(9));
}

TEST(SectorCache, InvalidateAll) {
  SectorCache cache(1024, 4);
  cache.Access(3);
  cache.InvalidateAll();
  EXPECT_FALSE(cache.Access(3));
}

TEST(SectorCache, InvalidateRange) {
  SectorCache cache(1024, 4);
  cache.Access(10);
  cache.Access(100);
  cache.InvalidateRange(0, 50);
  EXPECT_FALSE(cache.Probe(10));
  EXPECT_TRUE(cache.Probe(100));
}

/// Reference model: timestamp LRU that fills the lowest-index empty way
/// first — the cache's specification, stated the obvious (slow) way.
class StampLru {
 public:
  StampLru(uint32_t sets, uint32_t ways)
      : sets_(sets), ways_(ways), tag_(sets * ways, kEmpty), stamp_(sets * ways, 0) {}
  bool Access(uint64_t sector) {
    ++tick_;
    const size_t base = (sector & (sets_ - 1)) * ways_;
    size_t victim = base;
    for (size_t w = base; w < base + ways_; ++w) {
      if (tag_[w] == sector) {
        stamp_[w] = tick_;
        ++hits_;
        return true;
      }
      if (stamp_[w] < stamp_[victim]) victim = w;
    }
    tag_[victim] = sector;
    stamp_[victim] = tick_;
    return false;
  }
  void InvalidateAll() { InvalidateRange(0, kEmpty); }
  uint64_t Hits() const { return hits_; }
  uint64_t Accesses() const { return tick_; }
  void InvalidateRange(uint64_t first, uint64_t last) {
    for (size_t w = 0; w < tag_.size(); ++w) {
      if (tag_[w] >= first && tag_[w] < last) {
        tag_[w] = kEmpty;
        stamp_[w] = 0;
      }
    }
  }

 private:
  static constexpr uint64_t kEmpty = ~0ULL;
  uint32_t sets_;
  uint32_t ways_;
  std::vector<uint64_t> tag_;
  std::vector<uint64_t> stamp_;
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;
};

TEST(SectorCache, MatchesTimestampLruReference) {
  for (uint32_t ways : {1u, 2u, 3u, 4u, 8u, 16u}) {
    SectorCache cache(64 * ways * 32, ways);
    StampLru reference(cache.NumSets(), ways);
    util::SplitMix64 rng(ways);
    for (int i = 0; i < 200000; ++i) {
      // A hot set plus a working set a few times the capacity, with
      // occasional flushes (as unified-memory eviction does) so sets refill
      // from empty, and range invalidations that leave holes among the
      // valid ways.
      if (i % 5000 == 4999) {
        cache.InvalidateAll();
        reference.InvalidateAll();
        continue;
      }
      if (i % 1700 == 1699) {
        const uint64_t first = rng.NextBounded(4096);
        const uint64_t last = first + rng.NextBounded(512);
        cache.InvalidateRange(first, last);
        reference.InvalidateRange(first, last);
        continue;
      }
      const uint64_t sector = rng.NextBounded(i % 3 == 0 ? 64 : 4096);
      ASSERT_EQ(cache.Access(sector), reference.Access(sector))
          << "ways=" << ways << " probe " << i << " sector " << sector;
    }
    EXPECT_EQ(cache.Hits(), reference.Hits()) << "ways=" << ways;
    EXPECT_EQ(cache.Accesses(), reference.Accesses()) << "ways=" << ways;
  }
}

TEST(SectorCache, RefillAfterInvalidateAllKeepsLruOrder) {
  SectorCache cache(8 * 32, 2);  // 4 sets x 2 ways
  cache.Access(0);
  cache.Access(4);
  cache.InvalidateAll();
  EXPECT_FALSE(cache.Access(4));
  EXPECT_FALSE(cache.Access(0));
  EXPECT_TRUE(cache.Access(4));   // 4 is MRU, 0 LRU
  EXPECT_FALSE(cache.Access(8));  // evicts 0
  EXPECT_TRUE(cache.Access(4));
  EXPECT_FALSE(cache.Access(0));
}

// --- Coalescer and atomic multiplicity ---------------------------------------

/// `count` distinct keys, `first` upward in steps of `step`, that all fall
/// in one bucket of the coalescer's duplicate filter: the keys that make
/// FindOrAppend scan.
std::vector<uint64_t> BucketMates(uint64_t first, uint64_t step, uint32_t count) {
  const uint32_t bucket = internal::KeyBucket(first);
  std::vector<uint64_t> keys;
  for (uint64_t key = first; keys.size() < count; key += step) {
    if (internal::KeyBucket(key) == bucket) keys.push_back(key);
  }
  return keys;
}

/// Lane patterns a warp produces: contiguous, strided, random, a few
/// repeated elements, everything in one element, and draws from `pool`
/// (keys crafted to collide in the duplicate filter).
LaneArray<uint64_t> LanePattern(util::SplitMix64& rng, uint32_t pattern,
                                const std::vector<uint64_t>& pool) {
  LaneArray<uint64_t> idx{};
  const uint64_t base = rng.NextBounded(1 << 20);
  for (uint32_t lane = 0; lane < kWarpSize; ++lane) {
    switch (pattern % 6) {
      case 0: idx[lane] = base + lane; break;
      case 1: idx[lane] = base + 9 * lane; break;
      case 2: idx[lane] = rng.NextBounded(1 << 20); break;
      case 3: idx[lane] = base + rng.NextBounded(5); break;
      case 4: idx[lane] = base; break;
      default: idx[lane] = pool[rng.NextBounded(pool.size())]; break;
    }
  }
  return idx;
}

/// The coalescer's addresses for element indices below: 4-byte elements
/// from 1 MiB, so sector = 32768 + idx / 8.
constexpr uint64_t kPatternBase = 1 << 20;

TEST(CoalesceSectors, MatchesFirstOccurrenceReference) {
  // Elements 0 and 5 of each of six sectors sharing a filter bucket.
  std::vector<uint64_t> pool;
  for (uint64_t sector : BucketMates(kPatternBase / 32 + 100, 1, 6)) {
    pool.push_back((sector - kPatternBase / 32) * 8);
    pool.push_back((sector - kPatternBase / 32) * 8 + 5);
  }
  util::SplitMix64 rng(7);
  for (uint32_t trial = 0; trial < 24000; ++trial) {
    const LaneArray<uint64_t> idx = LanePattern(rng, trial, pool);
    const uint32_t mask = trial % 3 == 0 ? kFullMask : static_cast<uint32_t>(rng.Next());
    LaneArray<uint64_t> addrs{};
    for (uint32_t lane = 0; lane < kWarpSize; ++lane) addrs[lane] = kPatternBase + 4 * idx[lane];
    std::vector<uint64_t> expected;
    WarpCtx::ForActive(mask, [&](uint32_t lane) {
      const uint64_t sector = addrs[lane] / 32;
      if (std::find(expected.begin(), expected.end(), sector) == expected.end()) {
        expected.push_back(sector);
      }
    });
    uint64_t sectors[kWarpSize];
    const uint32_t n = internal::CoalesceSectors(addrs, mask, 4, sectors);
    ASSERT_EQ(std::vector<uint64_t>(sectors, sectors + n), expected) << "trial " << trial;
  }
}

TEST(CoalesceSectors, BucketCollisionsKeepFirstOccurrenceOrder) {
  // Three sectors in one filter bucket, revisited out of order: the second
  // and third pay the collision scan, repeats of each must still resolve
  // to their first slot.
  const std::vector<uint64_t> mates = BucketMates(1 << 15, 1, 3);
  const uint64_t order[] = {1, 0, 1, 2, 0, 2, 1, 0};
  LaneArray<uint64_t> addrs{};
  for (uint32_t lane = 0; lane < kWarpSize; ++lane) {
    addrs[lane] = mates[order[lane % std::size(order)]] * 32 + 4 * (lane % 8);
  }
  uint64_t sectors[kWarpSize];
  const uint32_t n = internal::CoalesceSectors(addrs, kFullMask, 4, sectors);
  EXPECT_EQ(std::vector<uint64_t>(sectors, sectors + n),
            (std::vector<uint64_t>{mates[1], mates[0], mates[2]}));
}

TEST(MaxLaneMultiplicity, MatchesPairwiseReference) {
  const std::vector<uint64_t> pool = BucketMates(12345, 7, 5);
  util::SplitMix64 rng(11);
  for (uint32_t trial = 0; trial < 24000; ++trial) {
    const LaneArray<uint64_t> idx = LanePattern(rng, trial, pool);
    const uint32_t mask = static_cast<uint32_t>(rng.Next()) | 1u;
    uint32_t expected = 0;
    WarpCtx::ForActive(mask, [&](uint32_t lane) {
      uint32_t mult = 0;
      WarpCtx::ForActive(mask, [&](uint32_t other) { mult += idx[other] == idx[lane]; });
      expected = std::max(expected, mult);
    });
    ASSERT_EQ(internal::MaxLaneMultiplicity(idx, mask), expected) << "trial " << trial;
  }
}

TEST(MaxLaneMultiplicity, CountsBucketMatesApart) {
  // Keys sharing a filter bucket are still distinct indices: 3 lanes on
  // mates[2] (the third key of its bucket) is the deepest chain.
  const std::vector<uint64_t> mates = BucketMates(999, 1, 3);
  LaneArray<uint64_t> idx{};
  const uint64_t order[] = {0, 1, 2, 2, 1, 2};
  for (uint32_t lane = 0; lane < std::size(order); ++lane) idx[lane] = mates[order[lane]];
  EXPECT_EQ(internal::MaxLaneMultiplicity(idx, 0x3f), 3u);
  EXPECT_EQ(internal::MaxLaneMultiplicity(idx, 0x07), 1u);
}

TEST(Device, AtomicSerializationChargesSameIndexLanesOnly) {
  // Same-sector lanes on distinct elements do not serialize; lanes on one
  // element do, 32 cycles per extra lane.
  auto latency = [](const LaneArray<uint64_t>& idx) {
    Device device;
    auto buf = device.Alloc<uint32_t>(64, MemKind::kDevice, "buf");
    return device
        .Launch("k", {32},
                [&](WarpCtx& w) {
                  LaneArray<uint32_t> one{};
                  one.fill(1);
                  LaneArray<uint32_t> old{};
                  w.AtomicAdd(buf, idx, one, w.ActiveMask(), old);
                })
        .counters.mem_latency_cycles;
  };
  LaneArray<uint64_t> distinct{};
  LaneArray<uint64_t> same{};
  LaneArray<uint64_t> pairs{};
  for (uint32_t lane = 0; lane < kWarpSize; ++lane) {
    distinct[lane] = lane;
    pairs[lane] = lane / 2;
  }
  const uint64_t base = latency(distinct);
  EXPECT_EQ(latency(same), base + 32 * 31);
  EXPECT_EQ(latency(pairs), base + 32);
}

// --- DeviceMemory -------------------------------------------------------------

TEST(DeviceMemory, AllocatesZeroedPageAligned) {
  DeviceMemory mem(1 << 20, 4096);
  RawBuffer b = mem.Allocate(100, MemKind::kDevice, "x");
  EXPECT_EQ(b.base_addr % 4096, 0u);
  EXPECT_EQ(b.bytes, 4096u);  // rounded up
  for (uint64_t i = 0; i < 100; ++i) EXPECT_EQ(static_cast<int>(b.data[i]), 0);
}

TEST(DeviceMemory, OomThrowsWithContext) {
  DeviceMemory mem(8192, 4096);
  mem.Allocate(4096, MemKind::kDevice, "a");
  try {
    mem.Allocate(8192, MemKind::kDevice, "b");
    FAIL() << "expected OomError";
  } catch (const OomError& e) {
    EXPECT_EQ(e.requested_bytes, 8192u);
    EXPECT_EQ(e.used_bytes, 4096u);
    EXPECT_EQ(e.capacity_bytes, 8192u);
  }
}

TEST(DeviceMemory, UnifiedNeverOoms) {
  DeviceMemory mem(4096, 4096);
  RawBuffer b = mem.Allocate(1 << 20, MemKind::kUnified, "big");
  EXPECT_TRUE(b.Valid());
  EXPECT_EQ(mem.DeviceBytesUsed(), 0u);
}

TEST(DeviceMemory, FreeReturnsCapacity) {
  DeviceMemory mem(8192, 4096);
  RawBuffer a = mem.Allocate(8192, MemKind::kDevice, "a");
  mem.Free(a);
  EXPECT_EQ(mem.DeviceBytesUsed(), 0u);
  EXPECT_TRUE(mem.Allocate(8192, MemKind::kDevice, "b").Valid());
}

TEST(DeviceMemory, FindResolvesAddresses) {
  DeviceMemory mem(1 << 20, 4096);
  RawBuffer a = mem.Allocate(4096, MemKind::kDevice, "a");
  RawBuffer b = mem.Allocate(4096, MemKind::kDevice, "b");
  EXPECT_EQ(mem.Find(a.base_addr + 10)->id, a.id);
  EXPECT_EQ(mem.Find(b.base_addr)->id, b.id);
  EXPECT_EQ(mem.Find(a.base_addr + 5000), nullptr);  // guard page
}

// --- Device / WarpCtx ----------------------------------------------------------

DeviceSpec TestSpec() {
  DeviceSpec spec;
  spec.device_memory_bytes = 16 * util::kMiB;
  return spec;
}

TEST(Device, ContiguousGatherCoalescesToFourSectors) {
  Device device(TestSpec());
  auto buf = device.Alloc<uint32_t>(1024, MemKind::kDevice, "data");
  auto result = device.Launch("k", {32}, [&](WarpCtx& w) {
    LaneArray<uint32_t> out{};
    w.GatherContiguous(buf, 0, w.ActiveMask(), out);
  });
  // 32 consecutive 4B elements = 128B = 4 sectors of 32B.
  EXPECT_EQ(result.counters.l1_accesses, 4u);
  EXPECT_EQ(result.counters.dram_read_transactions, 4u);
}

TEST(Device, StridedGatherIsUncoalesced) {
  Device device(TestSpec());
  auto buf = device.Alloc<uint32_t>(4096, MemKind::kDevice, "data");
  auto result = device.Launch("k", {32}, [&](WarpCtx& w) {
    LaneArray<uint64_t> idx{};
    for (uint32_t lane = 0; lane < 32; ++lane) idx[lane] = lane * 64;  // 256B stride
    LaneArray<uint32_t> out{};
    w.Gather(buf, idx, w.ActiveMask(), out);
  });
  EXPECT_EQ(result.counters.l1_accesses, 32u);  // one sector per lane
  EXPECT_EQ(result.counters.dram_read_transactions, 32u);
}

TEST(Device, RepeatedGatherHitsCache) {
  Device device(TestSpec());
  auto buf = device.Alloc<uint32_t>(64, MemKind::kDevice, "data");
  auto result = device.Launch("k", {32}, [&](WarpCtx& w) {
    LaneArray<uint32_t> out{};
    w.GatherContiguous(buf, 0, w.ActiveMask(), out);
    w.GatherContiguous(buf, 0, w.ActiveMask(), out);
  });
  EXPECT_EQ(result.counters.l1_accesses, 8u);
  EXPECT_EQ(result.counters.l1_hits, 4u);  // second gather hits
  EXPECT_EQ(result.counters.dram_read_transactions, 4u);
}

TEST(Device, GatherReadsCorrectValues) {
  Device device(TestSpec());
  auto buf = device.Alloc<uint32_t>(256, MemKind::kDevice, "data");
  std::vector<uint32_t> host(256);
  for (uint32_t i = 0; i < 256; ++i) host[i] = i * 3;
  device.CopyToDevice(buf, std::span<const uint32_t>(host));
  device.Launch("k", {32}, [&](WarpCtx& w) {
    LaneArray<uint64_t> idx{};
    for (uint32_t lane = 0; lane < 32; ++lane) idx[lane] = 255 - lane;
    LaneArray<uint32_t> out{};
    w.Gather(buf, idx, w.ActiveMask(), out);
    for (uint32_t lane = 0; lane < 32; ++lane) EXPECT_EQ(out[lane], (255 - lane) * 3);
  });
}

TEST(Device, GatherBulkDeduplicatesSectors) {
  Device device(TestSpec());
  auto buf = device.Alloc<uint32_t>(4096, MemKind::kDevice, "data");
  auto result = device.Launch("k", {32}, [&](WarpCtx& w) {
    LaneArray<uint64_t> start{};
    LaneArray<uint32_t> count{};
    for (uint32_t lane = 0; lane < 32; ++lane) {
      start[lane] = lane * 16;  // 16 elements = 2 sectors each, disjoint
      count[lane] = 16;
    }
    std::vector<uint32_t> out(32 * 16);
    w.GatherBulk(buf, start, count, w.ActiveMask(), out.data(), 16);
  });
  // 32 lanes x 2 sectors, requested exactly once each.
  EXPECT_EQ(result.counters.dram_read_transactions, 64u);
  EXPECT_EQ(result.counters.shared_accesses, 16u * 32);
}

TEST(Device, ScatterWritesThrough) {
  Device device(TestSpec());
  auto buf = device.Alloc<uint32_t>(64, MemKind::kDevice, "data");
  auto result = device.Launch("k", {32}, [&](WarpCtx& w) {
    LaneArray<uint64_t> idx{};
    LaneArray<uint32_t> val{};
    for (uint32_t lane = 0; lane < 32; ++lane) {
      idx[lane] = lane;
      val[lane] = lane + 100;
    }
    w.Scatter(buf, idx, val, w.ActiveMask());
  });
  EXPECT_EQ(result.counters.l2_accesses, 4u);
  auto host = buf.HostSpan();
  EXPECT_EQ(host[0], 100u);
  EXPECT_EQ(host[31], 131u);
}

TEST(Device, AtomicAddReturnsUniqueSlots) {
  Device device(TestSpec());
  auto counter = device.Alloc<uint32_t>(1, MemKind::kDevice, "counter");
  device.Launch("k", {32}, [&](WarpCtx& w) {
    LaneArray<uint64_t> idx{};  // all lanes target slot 0
    LaneArray<uint32_t> one{};
    one.fill(1);
    LaneArray<uint32_t> old{};
    w.AtomicAdd(counter, idx, one, w.ActiveMask(), old);
    std::set<uint32_t> slots(old.begin(), old.end());
    EXPECT_EQ(slots.size(), 32u);  // strictly increasing old values
  });
  EXPECT_EQ(counter.HostSpan()[0], 32u);
}

TEST(Device, AtomicMinKeepsMinimum) {
  Device device(TestSpec());
  auto buf = device.Alloc<uint32_t>(4, MemKind::kDevice, "labels");
  buf.HostSpan()[2] = 50;
  device.Launch("k", {2}, [&](WarpCtx& w) {
    LaneArray<uint64_t> idx{};
    idx[0] = 2;
    idx[1] = 2;
    LaneArray<uint32_t> val{};
    val[0] = 70;  // no improvement
    val[1] = 30;  // improvement
    LaneArray<uint32_t> old{};
    w.AtomicMin(buf, idx, val, w.ActiveMask(), old);
    EXPECT_EQ(old[0], 50u);
  });
  EXPECT_EQ(buf.HostSpan()[2], 30u);
}

TEST(Device, ActiveMaskClampsLastWarp) {
  Device device(TestSpec());
  uint32_t total_lanes = 0;
  device.Launch("k", {40}, [&](WarpCtx& w) {
    total_lanes += WarpCtx::PopCount(w.ActiveMask());
  });
  EXPECT_EQ(total_lanes, 40u);
}

TEST(Device, ClockAdvancesMonotonically) {
  Device device(TestSpec());
  auto buf = device.Alloc<uint32_t>(1024, MemKind::kDevice, "data");
  double t0 = device.NowMs();
  std::vector<uint32_t> host(1024, 1);
  device.CopyToDevice(buf, std::span<const uint32_t>(host));
  double t1 = device.NowMs();
  EXPECT_GT(t1, t0);
  device.Launch("k", {1024}, [&](WarpCtx& w) {
    LaneArray<uint32_t> out{};
    w.GatherContiguous(buf, w.WarpId() * 32, w.ActiveMask(), out);
  });
  EXPECT_GT(device.NowMs(), t1);
}

// The interval clock sums the charges since StartInterval, so the same work
// measures a bit-identical interval on devices whose clocks start from
// different bases; the difference of two absolute readings does not.
TEST(Device, IntervalIsIndependentOfClockBase) {
  std::vector<double> intervals, differences;
  for (double base_ms : {0.1, 0.3, 0.7, 1.9, 123.456}) {
    Device device(TestSpec());
    auto buf = device.Alloc<uint32_t>(1 << 12, MemKind::kDevice, "data");
    std::vector<uint32_t> host(1 << 12, 1);
    device.ChargeDelay(base_ms, "base");
    const double start = device.NowMs();
    device.StartInterval();
    for (int i = 0; i < 20; ++i) {
      device.CopyToDevice(buf, std::span<const uint32_t>(host));
      device.Launch("k", {1 << 12}, [&](WarpCtx& w) {
        LaneArray<uint32_t> out{};
        w.GatherContiguous(buf, w.WarpId() * 32, w.ActiveMask(), out);
      });
      device.ChargeHostToDevice(4096, /*pageable=*/false, "h2d", /*overlap=*/0.6);
      device.Synchronize();
    }
    intervals.push_back(device.IntervalMs());
    differences.push_back(device.NowMs() - start);
  }
  for (double interval : intervals) EXPECT_EQ(interval, intervals.front());
  // The bases are chosen so the absolute difference does drift.
  EXPECT_FALSE(std::all_of(differences.begin(), differences.end(),
                           [&](double d) { return d == differences.front(); }));
}

// From a zero base the interval is the absolute clock itself, waits on an
// in-flight prefetch included.
TEST(Device, IntervalFromZeroBaseIsTheClock) {
  Device device(TestSpec());
  auto buf = device.Alloc<uint32_t>(1 << 16, MemKind::kUnified, "data");
  device.MarkHostInitialized(buf);
  device.StartInterval();
  device.PrefetchAsync(buf);
  device.Launch("k", {1 << 16}, [&](WarpCtx& w) {
    LaneArray<uint32_t> out{};
    w.GatherContiguous(buf, w.WarpId() * 32, w.ActiveMask(), out);
  });
  device.ChargeDelay(0.3, "backoff");
  EXPECT_GT(device.IntervalMs(), 0.3);
  EXPECT_EQ(device.IntervalMs(), device.NowMs());
}

TEST(Device, LaunchTimeScalesWithWork) {
  Device device(TestSpec());
  auto buf = device.Alloc<uint32_t>(1 << 20, MemKind::kDevice, "data");
  auto small = device.Launch("small", {1 << 10}, [&](WarpCtx& w) {
    LaneArray<uint32_t> out{};
    w.GatherContiguous(buf, w.WarpId() * 32, w.ActiveMask(), out);
  });
  auto big = device.Launch("big", {1 << 20}, [&](WarpCtx& w) {
    LaneArray<uint32_t> out{};
    w.GatherContiguous(buf, w.WarpId() * 32, w.ActiveMask(), out);
  });
  EXPECT_GT(big.compute_ms, small.compute_ms);
}

TEST(Device, DeterministicAcrossRuns) {
  auto run = [] {
    Device device(TestSpec());
    auto buf = device.Alloc<uint32_t>(1 << 16, MemKind::kDevice, "data");
    device.Launch("k", {1 << 16}, [&](WarpCtx& w) {
      LaneArray<uint64_t> idx{};
      for (uint32_t lane = 0; lane < 32; ++lane) {
        idx[lane] = (w.GlobalThread(lane) * 2654435761u) % (1 << 16);
      }
      LaneArray<uint32_t> out{};
      w.Gather(buf, idx, w.ActiveMask(), out);
    });
    return std::make_tuple(device.NowMs(), device.TotalCounters().l1_hits,
                           device.TotalCounters().dram_read_transactions);
  };
  EXPECT_EQ(run(), run());
}

// --- Closed-form contiguous gather vs the indexed path -------------------------

/// Everything a launch reports, compared bit for bit.
void ExpectSameLaunch(const LaunchResult& a, const LaunchResult& b, const std::string& where) {
  EXPECT_EQ(a.counters.warp_instructions, b.counters.warp_instructions) << where;
  EXPECT_EQ(a.counters.thread_instructions, b.counters.thread_instructions) << where;
  EXPECT_EQ(a.counters.l1_accesses, b.counters.l1_accesses) << where;
  EXPECT_EQ(a.counters.l1_hits, b.counters.l1_hits) << where;
  EXPECT_EQ(a.counters.l2_accesses, b.counters.l2_accesses) << where;
  EXPECT_EQ(a.counters.l2_hits, b.counters.l2_hits) << where;
  EXPECT_EQ(a.counters.dram_read_transactions, b.counters.dram_read_transactions) << where;
  EXPECT_EQ(a.counters.dram_write_transactions, b.counters.dram_write_transactions) << where;
  EXPECT_EQ(a.counters.mem_latency_cycles, b.counters.mem_latency_cycles) << where;
  EXPECT_EQ(a.counters.elapsed_cycles, b.counters.elapsed_cycles) << where;
  EXPECT_EQ(a.migrated_bytes, b.migrated_bytes) << where;
  EXPECT_EQ(a.fault_ops, b.fault_ops) << where;
  EXPECT_EQ(a.start_ms, b.start_ms) << where;
  EXPECT_EQ(a.end_ms, b.end_ms) << where;
}

/// Drives GatherContiguous on one device and the indexed Gather with
/// base + lane on a twin, over random bases and masks on four warps (four
/// SMs' L1s). Outputs and launch results must match every time, and a
/// trailing stream of scattered probes must see the same cache state.
template <typename T>
void ExpectContiguousMatchesIndexed(MemKind kind, bool sanitize, uint64_t seed) {
  constexpr uint64_t kCount = 1000;  // not a multiple of 32
  constexpr uint32_t kWarps = 4;
  // Out-of-bounds lanes clamp only where the device's DCHECK is compiled
  // out; with it armed they abort, so such builds keep the lanes in bounds.
#ifdef NDEBUG
  constexpr bool kClampsOutOfBounds = true;
#else
  constexpr bool kClampsOutOfBounds = false;
#endif
  DeviceSpec spec = TestSpec();
  spec.l1_bytes = 4 * util::kKiB;  // small caches, so evictions matter
  spec.l2_bytes = 16 * util::kKiB;
  Device closed(spec);
  Device indexed(spec);
  sanitizer::Sanitizer closed_check;
  sanitizer::Sanitizer indexed_check;
  if (sanitize) {
    closed.SetObserver(&closed_check);
    indexed.SetObserver(&indexed_check);
  }
  Buffer<T> closed_buf = closed.Alloc<T>(kCount, kind, "data");
  Buffer<T> indexed_buf = indexed.Alloc<T>(kCount, kind, "data");
  for (uint64_t i = 0; i < kCount; ++i) {
    closed_buf.HostSpan()[i] = static_cast<T>(i * 2654435761u + 17);
    indexed_buf.HostSpan()[i] = closed_buf.HostSpan()[i];
  }
  closed.MarkHostInitialized(closed_buf);
  indexed.MarkHostInitialized(indexed_buf);

  util::SplitMix64 rng(seed);
  const LaunchConfig config{kWarps * kWarpSize, kWarpSize};
  for (uint32_t trial = 0; trial < 300; ++trial) {
    uint64_t base[kWarps];
    uint32_t mask[kWarps];
    for (uint32_t warp = 0; warp < kWarps; ++warp) {
      // A third of the bases lie within 31 elements of the end, where
      // high lanes fall off the buffer and the indexed path takes over.
      base[warp] = rng.NextBounded(3) == 0 ? kCount - 1 - rng.NextBounded(31)
                                           : rng.NextBounded(kCount - kWarpSize + 1);
      switch (rng.NextBounded(5)) {
        case 0: mask[warp] = kFullMask; break;
        case 1: mask[warp] = kFullMask >> rng.NextBounded(kWarpSize); break;
        case 2: {  // one run of lanes, starting anywhere
          const uint32_t run = kFullMask >> rng.NextBounded(kWarpSize);
          mask[warp] = run << rng.NextBounded(std::countl_zero(run) + 1);
          break;
        }
        default: mask[warp] = static_cast<uint32_t>(rng.Next()); break;
      }
      if (!kClampsOutOfBounds && !sanitize && base[warp] + kWarpSize > kCount) {
        mask[warp] &= (1u << (kCount - base[warp])) - 1;
      }
    }
    LaneArray<T> closed_out[kWarps];
    LaneArray<T> indexed_out[kWarps];
    for (uint32_t warp = 0; warp < kWarps; ++warp) {
      closed_out[warp].fill(static_cast<T>(0xabababab));
      indexed_out[warp].fill(static_cast<T>(0xabababab));
    }
    const LaunchResult a = closed.Launch("k", config, [&](WarpCtx& w) {
      const uint64_t warp = w.WarpId();
      w.GatherContiguous(closed_buf, base[warp], mask[warp], closed_out[warp]);
    });
    const LaunchResult b = indexed.Launch("k", config, [&](WarpCtx& w) {
      const uint64_t warp = w.WarpId();
      LaneArray<uint64_t> idx{};
      for (uint32_t lane = 0; lane < kWarpSize; ++lane) idx[lane] = base[warp] + lane;
      w.Gather(indexed_buf, idx, mask[warp], indexed_out[warp]);
    });
    const std::string where = "trial " + std::to_string(trial);
    ExpectSameLaunch(a, b, where);
    for (uint32_t warp = 0; warp < kWarps; ++warp) {
      ASSERT_EQ(closed_out[warp], indexed_out[warp]) << where << " warp " << warp;
    }
  }

  // The same scattered probe stream on both: equal hits at every level
  // mean the gathers left both devices' caches (and UM pages) alike.
  for (uint32_t round = 0; round < 20; ++round) {
    LaneArray<uint64_t> idx[kWarps];
    for (auto& lanes : idx) {
      for (uint64_t& i : lanes) i = rng.NextBounded(kCount);
    }
    auto probe = [&](Device& device, const Buffer<T>& buf) {
      return device.Launch("probe", config, [&](WarpCtx& w) {
        LaneArray<T> out{};
        w.Gather(buf, idx[w.WarpId()], kFullMask, out);
      });
    };
    ExpectSameLaunch(probe(closed, closed_buf), probe(indexed, indexed_buf),
                     "probe " + std::to_string(round));
  }
  EXPECT_EQ(closed.NowMs(), indexed.NowMs());
  if (sanitize) {
    EXPECT_EQ(closed_check.Report().Json(), indexed_check.Report().Json());
    EXPECT_FALSE(closed_check.Report().findings.empty());  // the tail bases
  }
}

TEST(GatherContiguous, MatchesIndexedGatherU32Device) {
  ExpectContiguousMatchesIndexed<uint32_t>(MemKind::kDevice, false, 1);
}

TEST(GatherContiguous, MatchesIndexedGatherU64Device) {
  ExpectContiguousMatchesIndexed<uint64_t>(MemKind::kDevice, false, 2);
}

TEST(GatherContiguous, MatchesIndexedGatherU32Unified) {
  ExpectContiguousMatchesIndexed<uint32_t>(MemKind::kUnified, false, 3);
}

TEST(GatherContiguous, MatchesIndexedGatherU64Unified) {
  ExpectContiguousMatchesIndexed<uint64_t>(MemKind::kUnified, false, 4);
}

TEST(GatherContiguous, MatchesIndexedGatherUnderSanitizer) {
  ExpectContiguousMatchesIndexed<uint32_t>(MemKind::kDevice, true, 5);
  ExpectContiguousMatchesIndexed<uint64_t>(MemKind::kUnified, true, 6);
}

// --- Indexed warp ops vs the reference coalescer -------------------------------

/// The device's memory path stated from its parts: the sectors of
/// internal::CoalesceSectors over the clamped addresses, probed through
/// standalone caches of the device's geometry, and the atomic depth of
/// internal::MaxLaneMultiplicity over the raw indices.
class ReferenceMemory {
 public:
  explicit ReferenceMemory(const DeviceSpec& spec)
      : spec_(spec), l2_(spec.l2_bytes, spec.l2_ways, spec.sector_bytes) {
    const uint64_t l1_bytes =
        std::max<uint64_t>(spec.l1_bytes / std::max(1u, spec.l1_interleave_factor),
                           uint64_t{spec.l1_ways} * spec.sector_bytes);
    for (uint32_t sm = 0; sm < spec.num_sms; ++sm) {
      l1_.emplace_back(l1_bytes, spec.l1_ways, spec.sector_bytes);
    }
  }

  template <typename T>
  void Gather(uint32_t sm, const Buffer<T>& buf, const LaneArray<uint64_t>& safe, uint32_t mask) {
    uint64_t sectors[kWarpSize];
    const uint32_t n = Coalesce(buf, safe, mask, sectors);
    uint32_t worst = spec_.lat_l1;
    for (uint32_t i = 0; i < n; ++i) {
      ++counters.l1_accesses;
      if (l1_[sm].Access(sectors[i])) {
        ++counters.l1_hits;
        continue;
      }
      ++counters.l2_accesses;
      if (l2_.Access(sectors[i])) {
        ++counters.l2_hits;
        worst = std::max(worst, spec_.lat_l2);
      } else {
        ++counters.dram_read_transactions;
        worst = std::max(worst, spec_.lat_dram);
      }
    }
    counters.mem_latency_cycles += worst;
  }

  template <typename T>
  void Scatter(const Buffer<T>& buf, const LaneArray<uint64_t>& safe, uint32_t mask) {
    Store(buf, safe, mask);
    counters.mem_latency_cycles += 4;
  }

  template <typename T>
  void Atomic(const Buffer<T>& buf, const LaneArray<uint64_t>& idx,
              const LaneArray<uint64_t>& safe, uint32_t mask) {
    Store(buf, safe, mask);
    counters.mem_latency_cycles +=
        spec_.lat_atomic + 32ull * (internal::MaxLaneMultiplicity(idx, mask) - 1);
  }

  Counters counters;  // the memory-path fields only

 private:
  template <typename T>
  static uint32_t Coalesce(const Buffer<T>& buf, const LaneArray<uint64_t>& safe,
                           uint32_t mask, uint64_t* sectors) {
    LaneArray<uint64_t> addrs{};
    WarpCtx::ForActive(mask, [&](uint32_t lane) { addrs[lane] = buf.AddrOf(safe[lane]); });
    return internal::CoalesceSectors(addrs, mask, sizeof(T), sectors);
  }

  template <typename T>
  void Store(const Buffer<T>& buf, const LaneArray<uint64_t>& safe, uint32_t mask) {
    uint64_t sectors[kWarpSize];
    const uint32_t n = Coalesce(buf, safe, mask, sectors);
    for (uint32_t i = 0; i < n; ++i) {
      ++counters.l2_accesses;
      if (l2_.Access(sectors[i])) {
        ++counters.l2_hits;
      } else {
        ++counters.dram_write_transactions;
      }
    }
  }

  DeviceSpec spec_;
  std::vector<SectorCache> l1_;
  SectorCache l2_;
};

/// A device buffer with a host copy that every op is also applied to.
template <typename T>
struct Mirrored {
  Mirrored(Device& device, uint64_t count, const char* name)
      : buf(device.Alloc<T>(count, MemKind::kDevice, name)), host(count) {
    util::SplitMix64 rng(count);
    for (T& v : host) v = static_cast<T>(rng.Next());
    std::copy(host.begin(), host.end(), buf.HostSpan().begin());
    device.MarkHostInitialized(buf);
  }
  Buffer<T> buf;
  std::vector<T> host;
};

/// One random warp op (Gather, Scatter, AtomicMin, AtomicAdd or AtomicOr)
/// on `m`, checked lane by lane against the host copy and replayed through
/// `ref`. Indices are LanePattern's (contiguous, strided, random, a few
/// repeated, one element, filter-bucket mates) folded into the buffer,
/// under full, random, sparse or single-lane masks.
template <typename T>
void RandomWarpOp(WarpCtx& w, uint32_t sm, Mirrored<T>& m, ReferenceMemory& ref,
                  util::SplitMix64& rng, const std::vector<uint64_t>& pool) {
  const uint64_t count = m.host.size();
  LaneArray<uint64_t> idx = LanePattern(rng, static_cast<uint32_t>(rng.NextBounded(6)), pool);
  for (uint64_t& i : idx) i %= count;
#ifdef NDEBUG
  // Out-of-range lanes clamp where the device's DCHECK is compiled out:
  // they share the last element's sector but not its atomic chain.
  if (rng.NextBounded(8) == 0) {
    for (uint32_t k = 0; k < 3; ++k) idx[rng.NextBounded(kWarpSize)] = count + rng.NextBounded(2);
  }
#endif
  uint32_t mask = kFullMask;
  switch (rng.NextBounded(4)) {
    case 0: break;
    case 1: mask = static_cast<uint32_t>(rng.Next()) | 1u; break;
    case 2: mask = static_cast<uint32_t>(rng.Next() & rng.Next() & rng.Next()) | 2u; break;
    default: mask = 1u << rng.NextBounded(kWarpSize); break;
  }
  LaneArray<uint64_t> safe{};
  for (uint32_t lane = 0; lane < kWarpSize; ++lane) safe[lane] = std::min(idx[lane], count - 1);
  LaneArray<T> val{};
  for (T& v : val) v = static_cast<T>(rng.Next());
  LaneArray<T> got{};
  const uint64_t op = rng.NextBounded(5);
  switch (op) {
    case 0:
      w.Gather(m.buf, idx, mask, got);
      ref.Gather(sm, m.buf, safe, mask);
      WarpCtx::ForActive(mask, [&](uint32_t lane) { ASSERT_EQ(got[lane], m.host[safe[lane]]); });
      return;
    case 1:
      w.Scatter(m.buf, idx, val, mask);
      ref.Scatter(m.buf, safe, mask);
      WarpCtx::ForActive(mask, [&](uint32_t lane) { m.host[safe[lane]] = val[lane]; });
      return;
    case 2: w.AtomicMin(m.buf, idx, val, mask, got); break;
    case 3: w.AtomicAdd(m.buf, idx, val, mask, got); break;
    default: w.AtomicOr(m.buf, idx, val, mask, got); break;
  }
  ref.Atomic(m.buf, idx, safe, mask);
  WarpCtx::ForActive(mask, [&](uint32_t lane) {
    T& slot = m.host[safe[lane]];
    ASSERT_EQ(got[lane], slot) << "op " << op << " lane " << lane;
    slot = op == 2 ? std::min(slot, val[lane]) : op == 3 ? slot + val[lane] : slot | val[lane];
  });
}

TEST(WarpMemoryOps, MatchReferenceCoalescerAndDepth) {
  DeviceSpec spec = TestSpec();
  spec.num_sms = 3;
  spec.l1_bytes = 4 * util::kKiB;  // small caches, so evictions matter
  spec.l2_bytes = 16 * util::kKiB;
  Device device(spec);
  ReferenceMemory ref(spec);
  // Sizes from under one 64-sector bitmap word to many words, both element
  // widths, visited back to back: a bit one op left set would drop the
  // same-offset sector of whichever buffer comes next.
  Mirrored<uint32_t> tiny32(device, 40, "tiny32");
  Mirrored<uint32_t> mid32(device, 3000, "mid32");
  Mirrored<uint32_t> big32(device, 70000, "big32");
  Mirrored<uint64_t> tiny64(device, 24, "tiny64");
  Mirrored<uint64_t> big64(device, 20000, "big64");
  // Elements 0 and 5 of six sectors of big32 that share a filter bucket.
  const uint64_t big_sector = big32.buf.raw.base_addr / 32;
  std::vector<uint64_t> pool;
  for (uint64_t sector : BucketMates(big_sector + 100, 1, 6)) {
    pool.push_back((sector - big_sector) * 8);
    pool.push_back((sector - big_sector) * 8 + 5);
  }
  util::SplitMix64 rng(23);
  constexpr uint32_t kWarps = 6;
  for (uint32_t launch = 0; launch < 300; ++launch) {
    ref.counters = Counters{};
    const LaunchResult result =
        device.Launch("ops", {kWarps * kWarpSize, kWarpSize}, [&](WarpCtx& w) {
          const uint32_t sm = static_cast<uint32_t>(w.WarpId() % spec.num_sms);
          for (uint32_t op = 0; op < 8; ++op) {
            switch (rng.NextBounded(5)) {
              case 0: RandomWarpOp(w, sm, tiny32, ref, rng, pool); break;
              case 1: RandomWarpOp(w, sm, mid32, ref, rng, pool); break;
              case 2: RandomWarpOp(w, sm, big32, ref, rng, pool); break;
              case 3: RandomWarpOp(w, sm, tiny64, ref, rng, pool); break;
              default: RandomWarpOp(w, sm, big64, ref, rng, pool); break;
            }
          }
        });
    const Counters& got = result.counters;
    const Counters& want = ref.counters;
    const std::string where = "launch " + std::to_string(launch);
    ASSERT_EQ(got.l1_accesses, want.l1_accesses) << where;
    ASSERT_EQ(got.l1_hits, want.l1_hits) << where;
    ASSERT_EQ(got.l2_accesses, want.l2_accesses) << where;
    ASSERT_EQ(got.l2_hits, want.l2_hits) << where;
    ASSERT_EQ(got.dram_read_transactions, want.dram_read_transactions) << where;
    ASSERT_EQ(got.dram_write_transactions, want.dram_write_transactions) << where;
    ASSERT_EQ(got.mem_latency_cycles, want.mem_latency_cycles) << where;
  }
  EXPECT_TRUE(std::equal(tiny32.host.begin(), tiny32.host.end(), tiny32.buf.HostSpan().begin()));
  EXPECT_TRUE(std::equal(big64.host.begin(), big64.host.end(), big64.buf.HostSpan().begin()));
}

TEST(Device, PageableCopySlowerThanPinned) {
  Device a(TestSpec()), b(TestSpec());
  auto ba = a.Alloc<uint32_t>(1 << 20, MemKind::kDevice, "x");
  auto bb = b.Alloc<uint32_t>(1 << 20, MemKind::kDevice, "x");
  std::vector<uint32_t> host(1 << 20, 0);
  a.CopyToDevice(ba, std::span<const uint32_t>(host), /*pageable=*/true);
  b.CopyToDevice(bb, std::span<const uint32_t>(host), /*pageable=*/false);
  EXPECT_GT(a.NowMs(), b.NowMs());
}

TEST(Counters, DerivedMetrics) {
  Counters c;
  c.warp_instructions = 280;
  c.elapsed_cycles = 10;
  c.l1_accesses = 100;
  c.l1_hits = 40;
  c.l2_accesses = 60;
  c.l2_hits = 30;
  c.dram_read_transactions = 30;
  EXPECT_DOUBLE_EQ(c.Ipc(), 28.0);
  EXPECT_DOUBLE_EQ(c.IpcPerSm(28), 1.0);
  EXPECT_DOUBLE_EQ(c.L1HitRate(), 0.4);
  EXPECT_DOUBLE_EQ(c.L2HitRate(), 0.5);
  EXPECT_EQ(c.DramReadBytes(), 30u * 32);
  Counters sum = c;
  sum += c;
  EXPECT_EQ(sum.warp_instructions, 560u);
}

// --- Plants (sim::FaultConfig rmw / short) -------------------------------------

/// Every lane access a device reports, in order.
class AccessTape : public AccessObserver {
 public:
  struct Event {
    AccessKind kind;
    uint64_t elem;
    uint32_t lane;
    bool operator==(const Event&) const = default;
  };
  void OnDeviceAccess(const DeviceAccess& a) override {
    events.push_back({a.kind, a.elem_index, a.lane});
  }
  std::vector<Event> events;
};

struct ColliderRun {
  Counters counters;
  std::vector<AccessTape::Event> events;
  LaneArray<uint32_t> old{};
  std::vector<uint32_t> after;
};

/// One warp whose 32 lanes OR bit (lane % 8) into element lane / 8 of a
/// 4-element buffer named "masks": eight lanes collide on each element.
/// `explicit_rmw` writes the read-modify-write out as a Gather plus a
/// Scatter instead of calling AtomicOr.
ColliderRun RunColliders(const FaultConfig& plants, bool explicit_rmw) {
  Device device(TestSpec(), plants);
  AccessTape tape;
  device.SetObserver(&tape);
  auto buf = device.Alloc<uint32_t>(4, MemKind::kDevice, "masks");
  LaneArray<uint64_t> idx{};
  LaneArray<uint32_t> val{};
  for (uint32_t lane = 0; lane < kWarpSize; ++lane) {
    idx[lane] = lane / 8;
    val[lane] = 1u << (lane % 8);
  }
  ColliderRun run;
  auto kernel = [&](WarpCtx& w) {
    const uint32_t mask = w.ActiveMask();
    if (!explicit_rmw) {
      w.AtomicOr(buf, idx, val, mask, run.old);
      return;
    }
    w.Gather(buf, idx, mask, run.old);
    LaneArray<uint32_t> next{};
    WarpCtx::ForActive(mask, [&](uint32_t lane) { next[lane] = run.old[lane] | val[lane]; });
    w.Scatter(buf, idx, next, mask);
  };
  run.counters = device.Launch("or", {kWarpSize}, kernel).counters;
  run.events = tape.events;
  run.after.assign(buf.HostSpan().begin(), buf.HostSpan().end());
  return run;
}

void ExpectSameCounters(const Counters& a, const Counters& b) {
  EXPECT_EQ(a.warp_instructions, b.warp_instructions);
  EXPECT_EQ(a.l1_accesses, b.l1_accesses);
  EXPECT_EQ(a.l1_hits, b.l1_hits);
  EXPECT_EQ(a.l2_accesses, b.l2_accesses);
  EXPECT_EQ(a.l2_hits, b.l2_hits);
  EXPECT_EQ(a.dram_read_transactions, b.dram_read_transactions);
  EXPECT_EQ(a.dram_write_transactions, b.dram_write_transactions);
  EXPECT_EQ(a.atomic_operations, b.atomic_operations);
  EXPECT_EQ(a.mem_latency_cycles, b.mem_latency_cycles);
  EXPECT_EQ(a.elapsed_cycles, b.elapsed_cycles);
}

TEST(Plants, RmwBufferAtomicIsAnExplicitGatherPlusScatter) {
  FaultConfig plants;
  plants.rmw_buffer = "masks";
  const ColliderRun planted = RunColliders(plants, /*explicit_rmw=*/false);
  const ColliderRun written_out = RunColliders(FaultConfig{}, /*explicit_rmw=*/true);
  ExpectSameCounters(planted.counters, written_out.counters);
  EXPECT_EQ(planted.counters.atomic_operations, 0u);
  EXPECT_EQ(planted.events, written_out.events);
  ASSERT_EQ(planted.events.size(), 2u * kWarpSize);
  EXPECT_EQ(planted.events.front().kind, AccessKind::kRead);
  EXPECT_EQ(planted.events.back().kind, AccessKind::kWrite);
  EXPECT_EQ(planted.old, written_out.old);
  // The lost update: every lane read 0, so the last lane's store wins.
  EXPECT_EQ(planted.after, (std::vector<uint32_t>{0x80, 0x80, 0x80, 0x80}));
  EXPECT_EQ(planted.after, written_out.after);
}

TEST(Plants, UnnamedBufferKeepsItsAtomic) {
  FaultConfig plants;
  plants.rmw_buffer = "reach_mask";  // not this buffer
  const ColliderRun other = RunColliders(plants, /*explicit_rmw=*/false);
  const ColliderRun clean = RunColliders(FaultConfig{}, /*explicit_rmw=*/false);
  ExpectSameCounters(other.counters, clean.counters);
  EXPECT_GT(clean.counters.atomic_operations, 0u);
  EXPECT_EQ(other.events, clean.events);
  for (const AccessTape::Event& e : clean.events) EXPECT_EQ(e.kind, AccessKind::kAtomic);
  EXPECT_EQ(other.after, (std::vector<uint32_t>{0xff, 0xff, 0xff, 0xff}));
  EXPECT_EQ(other.after, clean.after);
}

TEST(Plants, ShortBufferIsOneElementShortAndOnlyIt) {
  FaultConfig plants;
  plants.short_buffer = "act_set";
  Device device(TestSpec(), plants);
  const auto planted = device.Alloc<uint32_t>(8, MemKind::kDevice, "act_set");
  const auto other = device.Alloc<uint32_t>(8, MemKind::kDevice, "labels");
  const auto single = device.Alloc<uint32_t>(1, MemKind::kDevice, "act_set");
  EXPECT_EQ(planted.count, 7u);
  EXPECT_EQ(planted.raw.payload_bytes, 7u * sizeof(uint32_t));
  EXPECT_EQ(other.count, 8u);
  EXPECT_EQ(single.count, 1u);  // never shrunk to nothing
  EXPECT_FALSE(planted.raw.unsynced_atomics);

  Device clean(TestSpec());
  EXPECT_EQ(clean.Alloc<uint32_t>(8, MemKind::kDevice, "act_set").count, 8u);
}

}  // namespace
}  // namespace eta::sim
