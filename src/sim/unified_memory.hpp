// CUDA Unified Memory model: page residency, fault-driven migration with
// driver-style merge escalation, cudaMemPrefetchAsync, and oversubscription
// with LRU eviction.
//
// Paper touchpoints:
//   - Table V: migrated page sizes (4 KB .. ~1 MB averaging ~44 KB without
//     prefetch; ~2 MB chunks with prefetch) — MigrationSizes() feeds that
//     table directly;
//   - Fig 4: fault transfers overlapping kernel execution;
//   - "oversubscription of UM supported by Pascal" — uk-2006's CSR exceeds
//     simulated device capacity, so eviction keeps the run alive where
//     cudaMalloc-based frameworks OOM.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "sim/spec.hpp"
#include "util/histogram.hpp"

namespace eta::sim {

class UnifiedMemory {
 public:
  explicit UnifiedMemory(const DeviceSpec& spec) : spec_(spec) {}

  /// Registers a managed allocation [base_addr, base_addr + bytes).
  /// Pages start host-resident.
  void Register(uint64_t base_addr, uint64_t bytes);
  void Unregister(uint64_t base_addr);

  /// Bytes of device memory available to managed pages; the device updates
  /// this whenever explicit allocations change.
  void SetDeviceBudget(uint64_t bytes) { budget_bytes_ = bytes; }

  struct TouchResult {
    uint64_t migrated_bytes = 0;   // moved host->device right now (a fault)
    uint32_t fault_ops = 0;        // migration operations (each pays latency)
    double arrival_ms = 0;         // if in-flight via prefetch: ready time
    uint64_t evicted_bytes = 0;    // displaced to host to make room
    bool cache_flush = false;      // eviction happened: stale sectors exist
  };

  enum class PageState : uint8_t { kHost, kInFlight, kResident };

  /// One managed allocation's page state. Callers only hold it as the
  /// handle FindRange returns; it stays valid until Unregister.
  struct Range {
    uint64_t base = 0;
    uint64_t bytes = 0;
    std::vector<PageState> state;   // per page
    std::vector<uint8_t> dirty;
    std::vector<float> arrival_ms;  // valid when kInFlight
    /// Migration-merge escalation: consecutive nearby faults double the
    /// migration window (4 KB -> ... -> max_migration_bytes), mimicking the
    /// UM driver's density prefetcher. Distant faults reset it.
    uint32_t window_log = 0;
    uint64_t last_fault_page = ~0ULL;
  };

  /// The range containing `addr`, or nullptr.
  Range* FindRange(uint64_t addr);

  /// Models a GPU-side access to `addr` at simulated time `now_ms`.
  /// Non-resident pages fault and migrate (merged per the escalation
  /// policy); pages scheduled by a prefetch report their arrival time.
  /// An address outside every managed range is a no-op (empty result).
  TouchResult Touch(uint64_t addr, bool write, double now_ms);
  /// Touch of `addr` inside `range`, already resolved.
  TouchResult Touch(Range& range, uint64_t addr, bool write, double now_ms);

  /// cudaMemPrefetchAsync: schedules migration of the whole allocation in
  /// max_migration_bytes chunks starting at `start_ms`, at full PCIe rate.
  /// Returns the completion time. Pages become "in flight" with linear
  /// arrival times; kernels touching them stall until arrival.
  double PrefetchToDevice(uint64_t base_addr, double start_ms);

  /// True if `addr` falls inside a registered managed range.
  bool IsManaged(uint64_t addr) const;

  uint64_t ResidentBytes() const { return resident_bytes_; }
  /// Sizes of every completed migration operation (Table V).
  const util::Histogram& MigrationSizes() const { return migration_sizes_; }
  uint64_t TotalMigratedBytes() const { return migration_sizes_.Sum(); }
  uint64_t TotalEvictedBytes() const { return evicted_bytes_; }

 private:
  const Range* FindRangeConst(uint64_t addr) const;
  uint64_t PageOf(const Range& r, uint64_t addr) const {
    return (addr - r.base) / spec_.page_bytes;
  }
  /// Evicts host-ward until `needed` bytes fit in the budget. Returns
  /// evicted byte count.
  uint64_t EnsureRoom(uint64_t needed);

  const DeviceSpec& spec_;
  std::map<uint64_t, Range> ranges_;  // base -> range
  uint64_t budget_bytes_ = 0;
  uint64_t resident_bytes_ = 0;
  uint64_t evicted_bytes_ = 0;
  util::Histogram migration_sizes_;
  /// FIFO of resident pages (range base, page index) for eviction order.
  std::deque<std::pair<uint64_t, uint64_t>> resident_fifo_;
};

}  // namespace eta::sim
