#include "sim/device.hpp"

namespace eta::sim {

namespace internal {

namespace {

/// Membership filter over the at most 32 keys of one warp op: a 256-bit map
/// of occupied buckets plus, per occupied bucket, the list slot of its first
/// key. `first[b]` is read only once bit b of `seen` is set, which is when
/// it is written.
struct KeyFilter {
  uint64_t seen[4] = {};
  uint8_t first[256];
};

/// Index of `key` in keys[0..*n), appending it first when absent. A clear
/// bucket bit proves the key new; a bucket whose first key is `key` proves
/// a repeat. Only a second distinct key in one bucket (about one in eight
/// once 32 keys are in) pays a scan, from just past the bucket's first key.
uint32_t FindOrAppend(uint64_t key, uint64_t* keys, uint32_t* n, KeyFilter& filter) {
  const uint32_t h = KeyBucket(key);
  const uint64_t bit = 1ULL << (h & 63);
  if ((filter.seen[h >> 6] & bit) == 0) {
    filter.seen[h >> 6] |= bit;
    filter.first[h] = static_cast<uint8_t>(*n);
    keys[*n] = key;
    return (*n)++;
  }
  uint32_t i = filter.first[h];
  if (keys[i] == key) return i;
  while (++i < *n && keys[i] != key) {}
  if (i == *n) keys[(*n)++] = key;
  return i;
}

}  // namespace

uint32_t CoalesceSectors(const LaneArray<uint64_t>& addrs, uint32_t mask,
                         uint32_t elem_bytes, uint64_t* sectors) {
  (void)elem_bytes;  // elements are 4/8B and aligned: never straddle a sector
  // Neighbouring lanes usually share a sector, so a repeat of the previous
  // sector is dropped before the filter is consulted.
  KeyFilter filter;
  uint64_t last = ~0ULL;
  uint32_t n = 0;
  WarpCtx::ForActive(mask, [&](uint32_t lane) {
    const uint64_t sector = addrs[lane] / 32;
    if (sector == last) return;
    last = sector;
    FindOrAppend(sector, sectors, &n, filter);
  });
  return n;
}

uint32_t MaxLaneMultiplicity(const LaneArray<uint64_t>& idx, uint32_t mask) {
  KeyFilter filter;
  uint64_t keys[kWarpSize];
  uint32_t count[kWarpSize] = {};
  uint32_t n = 0;
  uint32_t most = 0;
  WarpCtx::ForActive(mask, [&](uint32_t lane) {
    most = std::max(most, ++count[FindOrAppend(idx[lane], keys, &n, filter)]);
  });
  return most;
}

}  // namespace internal

AccessObserver::~AccessObserver() = default;

Device::Device(DeviceSpec spec, const FaultConfig& faults)
    : spec_(spec),
      rmw_plant_(faults.rmw_buffer),
      short_plant_(faults.short_buffer),
      mem_(spec_.device_memory_bytes, spec_.page_bytes),
      um_(spec_),
      l2_(spec_.l2_bytes, spec_.l2_ways, spec_.sector_bytes) {
  // Per-SM L1 with contention-scaled effective capacity (see spec.hpp).
  uint64_t effective_l1 =
      std::max<uint64_t>(spec_.l1_bytes / std::max(1u, spec_.l1_interleave_factor),
                         static_cast<uint64_t>(spec_.l1_ways) * spec_.sector_bytes);
  l1_.reserve(spec_.num_sms);
  for (uint32_t i = 0; i < spec_.num_sms; ++i) {
    l1_.emplace_back(effective_l1, spec_.l1_ways, spec_.sector_bytes);
  }
  UpdateUmBudget();
}

void Device::UpdateUmBudget() {
  uint64_t used = mem_.DeviceBytesUsed();
  um_.SetDeviceBudget(spec_.device_memory_bytes > used ? spec_.device_memory_bytes - used
                                                       : 0);
}

void Device::RecordTransfer(uint64_t bytes, bool pageable, SpanKind kind,
                            const std::string& label) {
  double dur = spec_.memcpy_latency_us / 1000.0 + spec_.PcieMsForBytes(bytes, pageable);
  timeline_.Add(kind, now_ms_, now_ms_ + dur, label);
  Advance(dur);
}

void Device::BeginLaunch() {
  ETA_CHECK(!in_launch_);
  in_launch_ = true;
  accum_ = LaunchAccum{};
}

LaunchResult Device::EndLaunch(const std::string& label, const LaunchConfig& config,
                               uint64_t num_warps) {
  ETA_CHECK(in_launch_);
  in_launch_ = false;

  // --- Roofline over the launch's aggregate demands -----------------------
  const Counters& c = accum_.c;
  const uint32_t warps_per_block = std::max(1u, config.block_size / kWarpSize);
  const uint64_t blocks = (num_warps + warps_per_block - 1) / warps_per_block;
  const double active_sms =
      static_cast<double>(std::min<uint64_t>(blocks, spec_.num_sms));
  const double warps_per_sm =
      std::max(1.0, static_cast<double>(num_warps) / std::max(1.0, active_sms));
  const double hiding =
      std::min<double>(spec_.latency_hiding_warps, warps_per_sm);

  const double issue_cycles =
      static_cast<double>(c.warp_instructions) / (active_sms * spec_.issue_width);
  const double latency_cycles =
      static_cast<double>(c.mem_latency_cycles) / (active_sms * std::max(1.0, hiding));
  const double l2_cycles = static_cast<double>(c.L2Bytes()) / spec_.l2_bytes_per_cycle;
  const double dram_bytes = static_cast<double>(
      (c.dram_read_transactions + c.dram_write_transactions) * spec_.sector_bytes);
  const double dram_cycles = dram_bytes / spec_.dram_bytes_per_cycle;

  double cycles = std::max({issue_cycles, latency_cycles, l2_cycles, dram_cycles, 1.0});
  double compute_ms = spec_.CyclesToMs(cycles) + spec_.kernel_launch_us / 1000.0;

  // --- Unified-memory fault servicing -------------------------------------
  double fault_ms = accum_.fault_ops * spec_.page_fault_us / 1000.0 +
                    spec_.PcieMsForBytes(accum_.migrated_bytes);
  double overlap = spec_.fault_overlap_fraction;
  double busy =
      std::max(compute_ms, fault_ms) + (1.0 - overlap) * std::min(compute_ms, fault_ms);

  // Default-stream semantics: a kernel launched after cudaMemPrefetchAsync
  // on the same stream waits for the prefetch to drain (the paper's
  // Procedure 1 issues both on the default stream).
  double start = std::max(now_ms_, pending_transfer_end_);
  double end = std::max(start + busy, accum_.arrival_barrier_ms);
  WaitUntil(start);
  if (end == start + busy) {
    Advance(busy);
  } else {
    WaitUntil(end);  // stalled on a page still in flight
  }

  timeline_.Add(SpanKind::kCompute, start, end, label);
  if (fault_ms > 0) {
    timeline_.Add(SpanKind::kTransferH2D, start, start + fault_ms, label + ":um-fault");
  }
  if (accum_.arrival_barrier_ms > start + busy) {
    // Stalled on an in-flight prefetch: the tail of the prefetch transfer
    // already appears on the timeline from PrefetchAsync.
  }

  LaunchResult result;
  result.start_ms = start;
  result.end_ms = end;
  result.compute_ms = compute_ms;
  result.wall_ms = end - start;
  result.counters = c;
  result.counters.elapsed_cycles = cycles;
  result.counters.launches = 1;
  result.migrated_bytes = accum_.migrated_bytes;
  result.fault_ops = accum_.fault_ops;
  result.ecc_corrected = pending_ecc_corrected_;
  pending_ecc_corrected_ = 0;

  total_ += result.counters;
  last_launch_ = result;
  if (profiler_ != nullptr) {
    KernelProfile p;
    p.name = label;
    p.grid_threads = config.num_threads;
    p.block_size = config.block_size;
    p.start_ms = result.start_ms;
    p.end_ms = result.end_ms;
    p.compute_ms = result.compute_ms;
    p.counters = result.counters;
    p.status = LaunchStatus::kOk;
    p.ecc_corrected = result.ecc_corrected;
    profiler_->Record(std::move(p));
  }
  return result;
}

LaunchFault Device::DecideLaunchFault() {
  if (lost_) {
    LaunchFault fault;
    fault.status = LaunchStatus::kDeviceLost;
    return fault;
  }
  return fault_->NextLaunch();
}

LaunchResult Device::FailLaunch(const std::string& label, const LaunchConfig& config,
                                const LaunchFault& fate) {
  const bool was_lost = lost_;
  LaunchResult result;
  result.status = fate.status;
  result.ecc_corrected = fate.ecc_corrected;

  double dur = 0;
  switch (fate.status) {
    case LaunchStatus::kKernelTimeout:
      // The kernel never retires; the watchdog kills it after watchdog_ms of
      // simulated time. The whole window is burned.
      dur = fault_->Config().watchdog_ms;
      break;
    case LaunchStatus::kEccUncorrectable:
    case LaunchStatus::kDeviceLost:
      // The abort surfaces at the launch boundary: only the launch overhead
      // is charged. A launch on an already-lost device fails instantly.
      dur = was_lost ? 0.0 : spec_.kernel_launch_us / 1000.0;
      break;
    case LaunchStatus::kOk:
      break;
  }

  if (fate.status == LaunchStatus::kEccUncorrectable) {
    CorruptVictim(fate, &result.fault_buffer);
  }
  if (fate.status == LaunchStatus::kDeviceLost) lost_ = true;

  double start = std::max(now_ms_, pending_transfer_end_);
  double end = start + dur;
  WaitUntil(start);
  Advance(dur);
  if (dur > 0) {
    timeline_.Add(SpanKind::kCompute, start, end,
                  label + ":" + LaunchStatusName(fate.status));
  }
  result.start_ms = start;
  result.end_ms = end;
  result.wall_ms = dur;
  last_launch_ = result;
  if (profiler_ != nullptr) {
    KernelProfile p;
    p.name = label;
    p.grid_threads = config.num_threads;
    p.block_size = config.block_size;
    p.start_ms = start;
    p.end_ms = end;
    p.status = fate.status;
    p.ecc_corrected = fate.ecc_corrected;
    p.fault_buffer = result.fault_buffer;
    profiler_->Record(std::move(p));
  }
  return result;
}

void Device::CorruptVictim(const LaunchFault& fate, std::string* victim_name) {
  auto live = mem_.LiveAllocations();
  if (live.empty()) return;
  const auto& victim = live[fate.victim_entropy % live.size()];
  const RawBuffer& buf = victim.first;
  // Flip within the caller's payload, not the page-rounded tail padding —
  // a fault that only ever hits padding would never need recovery.
  uint64_t words = buf.payload_bytes / sizeof(uint32_t);
  if (words == 0) return;
  auto* data = reinterpret_cast<uint32_t*>(buf.data);
  for (uint32_t i = 0; i < fault_->Config().corrupt_words; ++i) {
    uint64_t w = (fate.offset_entropy + i * 0x9e3779b97f4a7c15ULL) % words;
    // A double-bit flip pattern: guaranteed nonzero, varies per word.
    data[w] ^= 0x80000001u + i;
  }
  *victim_name = victim.second;
}

void Device::ReportLeaks() {
  if (leaks_reported_ || observer_ == nullptr) return;
  leaks_reported_ = true;
  for (const auto& [buf, name] : mem_.LiveAllocations()) {
    observer_->OnLeakedBuffer(buf, name);
  }
}

uint32_t Device::ReadSectors(uint32_t sm, const uint64_t* sectors, uint32_t count,
                             UnifiedMemory::Range* managed) {
  ETA_DCHECK(sm < l1_.size());
  // Tallies stay in locals: the cache tag stores could otherwise alias the
  // counters and force a memory round trip per probe.
  uint32_t l1_hits = 0, l2_accesses = 0, l2_hits = 0;
  uint32_t worst = spec_.lat_l1;
  SectorCache& l1 = l1_[sm];
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t sector = sectors[i];
    if (l1.Access(sector)) {
      ++l1_hits;
      continue;
    }
    ++l2_accesses;
    if (l2_.Access(sector)) {
      ++l2_hits;
      worst = std::max(worst, spec_.lat_l2);
      continue;
    }
    worst = std::max(worst, spec_.lat_dram);
    if (managed != nullptr) TouchManaged(*managed, sector * spec_.sector_bytes, /*write=*/false);
  }
  Counters& c = accum_.c;
  c.l1_accesses += count;
  c.l1_hits += l1_hits;
  c.l2_accesses += l2_accesses;
  c.l2_hits += l2_hits;
  c.dram_read_transactions += l2_accesses - l2_hits;
  return worst;
}

void Device::WriteSectors(const uint64_t* sectors, uint32_t count,
                          UnifiedMemory::Range* managed) {
  // L1 is write-through no-allocate: stores go straight to L2.
  uint32_t hits = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t sector = sectors[i];
    hits += l2_.Access(sector) ? 1 : 0;
    if (managed != nullptr) TouchManaged(*managed, sector * spec_.sector_bytes, /*write=*/true);
  }
  Counters& c = accum_.c;
  c.l2_accesses += count;
  c.l2_hits += hits;
  c.dram_write_transactions += count - hits;
}

void Device::TouchManaged(UnifiedMemory::Range& range, uint64_t addr, bool write) {
  auto r = um_.Touch(range, addr, write, now_ms_);
  accum_.migrated_bytes += r.migrated_bytes;
  accum_.fault_ops += r.fault_ops;
  accum_.evicted_bytes += r.evicted_bytes;
  accum_.arrival_barrier_ms = std::max(accum_.arrival_barrier_ms, r.arrival_ms);
  if (r.cache_flush) {
    // Evicted pages leave stale sectors behind; drop them wholesale (an
    // eviction storm is rare and only occurs under oversubscription).
    l2_.InvalidateAll();
    for (SectorCache& l1 : l1_) l1.InvalidateAll();
  }
}

// --- WarpCtx cost accounting -------------------------------------------------

void WarpCtx::Barrier(uint32_t arrive_mask) {
  Counters& c = device_.accum_.c;
  c.warp_instructions += 1;
  c.thread_instructions += PopCount(arrive_mask);
  if (device_.observer_ != nullptr) {
    const uint32_t warps_per_block = std::max(1u, config_.block_size / kWarpSize);
    device_.observer_->OnBarrier(warp_id_, warp_id_ / warps_per_block, arrive_mask,
                                 ActiveMask());
  }
}

void WarpCtx::ChargeAlu(uint32_t instructions, uint32_t mask) {
  Counters& c = device_.accum_.c;
  c.warp_instructions += instructions;
  c.thread_instructions += static_cast<uint64_t>(instructions) * PopCount(mask);
}

void WarpCtx::ChargeShared(uint32_t ops, uint32_t mask) {
  Counters& c = device_.accum_.c;
  c.warp_instructions += ops;
  c.thread_instructions += static_cast<uint64_t>(ops) * PopCount(mask);
  c.shared_accesses += static_cast<uint64_t>(ops) * PopCount(mask);
  c.mem_latency_cycles += static_cast<uint64_t>(ops) * device_.spec_.lat_shared / 4;
}

void WarpCtx::AccumGatherCost(uint32_t mask, uint32_t sectors, uint32_t worst_latency) {
  (void)sectors;
  Counters& c = device_.accum_.c;
  c.warp_instructions += 1;
  c.thread_instructions += PopCount(mask);
  // Dependent-load pattern: the warp waits out the worst lane.
  c.mem_latency_cycles += worst_latency;
}

void WarpCtx::AccumBulkCost(uint32_t mask, uint32_t sectors, uint32_t worst_latency,
                            uint32_t unrolled_loads) {
  Counters& c = device_.accum_.c;
  // The unrolled loads issue back to back (one instruction each) plus the
  // shared-memory stores; misses pipeline behind one full latency.
  c.warp_instructions += unrolled_loads;
  c.thread_instructions += static_cast<uint64_t>(unrolled_loads) * PopCount(mask);
  c.shared_accesses += static_cast<uint64_t>(unrolled_loads) * PopCount(mask);
  c.mem_latency_cycles +=
      worst_latency + device_.spec_.lat_pipelined * (sectors > 0 ? sectors - 1 : 0);
}

void WarpCtx::AccumStoreCost(uint32_t mask) {
  Counters& c = device_.accum_.c;
  c.warp_instructions += 1;
  c.thread_instructions += PopCount(mask);
  // Stores retire through the write queue without stalling the warp.
  c.mem_latency_cycles += 4;
}

void WarpCtx::AccumAtomicCost(uint32_t mask, uint32_t max_multiplicity) {
  Counters& c = device_.accum_.c;
  c.warp_instructions += 1;
  c.thread_instructions += PopCount(mask);
  c.atomic_operations += PopCount(mask);
  c.mem_latency_cycles +=
      device_.spec_.lat_atomic + 32ull * (max_multiplicity > 0 ? max_multiplicity - 1 : 0);
}

}  // namespace eta::sim
