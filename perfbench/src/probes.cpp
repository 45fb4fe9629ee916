// Host micro-probes of the simulator's hot primitives, called through their
// public entry points: sim::SectorCache::Access, sim::internal::
// CoalesceSectors and sim::UnifiedMemory::Touch. Each stream comes from a
// fixed seed, is generated before timing starts and is sized to the modelled
// caches and the workload's footprint: half sequential runs (frontier/offset
// reads), half uniform gathers over the footprint.
#include <algorithm>
#include <vector>

#include "bench.hpp"
#include "sim/cache.hpp"
#include "sim/device.hpp"
#include "sim/spec.hpp"
#include "sim/unified_memory.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr size_t kCacheProbes = 2'000'000;
constexpr size_t kCoalesceCalls = 400'000;
constexpr size_t kTouchCalls = 400'000;
constexpr uint64_t kBaseAddr = 1ull << 20;
constexpr uint64_t kProbeSeed = 1;

/// Byte offsets within [0, footprint): runs of 32 sequential 4-byte
/// elements alternate with 32 uniform gathers.
std::vector<uint64_t> AddressStream(uint64_t seed, uint64_t tag, uint64_t footprint,
                                    size_t count) {
  eta::util::SplitMix64 rng = eta::util::SplitMix64::Stream(seed, tag);
  std::vector<uint64_t> out;
  out.reserve(count);
  uint64_t cursor = 0;
  for (size_t i = 0; i < count; ++i) {
    if ((i / 32) % 2 == 0) {
      if (i % 32 == 0) cursor = rng.NextBounded(footprint / 4) * 4;
      out.push_back(cursor);
      cursor = (cursor + 4) % footprint;
    } else {
      out.push_back(rng.NextBounded(footprint / 4) * 4);
    }
  }
  return out;
}

}  // namespace

ProbeCosts RunProbes(SpanLog& spans, uint64_t footprint_bytes) {
  const eta::sim::DeviceSpec spec;
  const uint64_t footprint = std::max<uint64_t>(footprint_bytes, spec.l2_bytes * 4);
  ProbeCosts costs;

  {
    // One L1 (the per-warp share the device models) backed by the L2, as
    // Device::ReadSectors probes them: L2 only on an L1 miss.
    const std::vector<uint64_t> addrs = AddressStream(kProbeSeed, 1, footprint, kCacheProbes);
    const uint64_t l1_bytes = std::max<uint64_t>(
        spec.l1_bytes / spec.l1_interleave_factor,
        static_cast<uint64_t>(spec.l1_ways) * spec.sector_bytes);
    eta::sim::SectorCache l1(l1_bytes, spec.l1_ways, spec.sector_bytes);
    eta::sim::SectorCache l2(spec.l2_bytes, spec.l2_ways, spec.sector_bytes);
    const double t0 = HostSeconds();
    {
      SpanLog::Scope span(spans, "sim.SectorCache.Access");
      for (uint64_t a : addrs) {
        const uint64_t sector = a / spec.sector_bytes;
        if (!l1.Access(sector)) l2.Access(sector);
      }
    }
    const double s = HostSeconds() - t0;
    const uint64_t calls = l1.Accesses() + l2.Accesses();
    costs.cache_access_ns = 1e9 * s / static_cast<double>(calls);
    costs.checksum += l1.Hits() + l2.Hits();
  }

  {
    const std::vector<uint64_t> addrs =
        AddressStream(kProbeSeed, 2, footprint, kCoalesceCalls * eta::sim::kWarpSize);
    eta::sim::LaneArray<uint64_t> lanes{};
    uint64_t sectors[eta::sim::kWarpSize];
    const double t0 = HostSeconds();
    {
      SpanLog::Scope span(spans, "sim.CoalesceSectors");
      for (size_t call = 0; call < kCoalesceCalls; ++call) {
        std::copy_n(addrs.begin() + static_cast<long>(call * eta::sim::kWarpSize),
                    eta::sim::kWarpSize, lanes.begin());
        costs.checksum += eta::sim::internal::CoalesceSectors(lanes, eta::sim::kFullMask, 4,
                                                              sectors);
      }
    }
    costs.coalesce_ns = 1e9 * (HostSeconds() - t0) / static_cast<double>(kCoalesceCalls);
  }

  {
    const std::vector<uint64_t> addrs = AddressStream(kProbeSeed, 3, footprint, kTouchCalls);
    eta::sim::UnifiedMemory um(spec);
    um.Register(kBaseAddr, footprint);
    um.SetDeviceBudget(spec.device_memory_bytes);
    double now_ms = 0;
    const double t0 = HostSeconds();
    {
      SpanLog::Scope span(spans, "sim.UnifiedMemory.Touch");
      for (size_t i = 0; i < addrs.size(); ++i) {
        const auto r = um.Touch(kBaseAddr + addrs[i], i % 4 == 0, now_ms);
        costs.checksum += r.migrated_bytes;
        now_ms += 1e-4;
      }
    }
    costs.um_touch_ns = 1e9 * (HostSeconds() - t0) / static_cast<double>(kTouchCalls);
  }
  return costs;
}

}  // namespace perfbench
