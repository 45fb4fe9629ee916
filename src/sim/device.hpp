// The simulated GPU device: allocation, host<->device transfer, kernel
// launch, and the WarpCtx SIMT execution API kernels are written against.
//
// Execution model
// ---------------
// A launch is a grid of `num_threads` threads in `block_size`-thread
// blocks; blocks map round-robin onto SMs. The engine invokes the kernel
// functor once per 32-thread warp. Kernels are written *warp-wide*: they
// operate on lane arrays and issue memory operations for a whole warp at
// once, which is exactly what lets the simulator model coalescing, cache
// behaviour, divergence and latency per warp instruction. Functionally the
// kernel reads and writes real host backing memory, so results are exact;
// architecturally every access is routed through the coalescer, the per-SM
// L1, the shared L2, DRAM, and (for managed buffers) the unified-memory
// page machinery, so costs and counters are faithful to the mechanism.
//
// Timing is a deterministic roofline over the launch's aggregate demands:
//   cycles = max(issue, latency/(SMs x hiding warps), L2 bw, DRAM bw)
// which preserves the *relative* effects the paper measures (load balance,
// coalescing, cache hit rates, transfer overlap) without pretending to be
// cycle-exact. See DESIGN.md section 1.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "sim/cache.hpp"
#include "sim/fault.hpp"
#include "sim/memory.hpp"
#include "sim/observer.hpp"
#include "sim/profiler.hpp"
#include "sim/spec.hpp"
#include "sim/timeline.hpp"
#include "sim/unified_memory.hpp"
#include "util/check.hpp"

namespace eta::sim {

inline constexpr uint32_t kWarpSize = 32;
inline constexpr uint32_t kFullMask = 0xffffffffu;

/// Per-lane value block, the register file of a warp-wide operation.
template <typename T>
using LaneArray = std::array<T, kWarpSize>;

struct LaunchConfig {
  uint64_t num_threads = 0;
  uint32_t block_size = 256;
};

struct LaunchResult {
  double start_ms = 0;
  double end_ms = 0;
  /// Pure kernel-execution time (roofline), excluding fault transfers.
  double compute_ms = 0;
  /// Wall time including unified-memory fault servicing and prefetch
  /// arrival stalls.
  double wall_ms = 0;
  Counters counters;            // this launch only
  uint64_t migrated_bytes = 0;  // UM pages pulled in by this launch
  uint32_t fault_ops = 0;
  /// Terminal status. Anything but kOk means no warp executed: the launch
  /// aborted at the boundary (callers must check before trusting outputs).
  LaunchStatus status = LaunchStatus::kOk;
  /// Correctable ECC events scrubbed during this launch (logged only).
  uint32_t ecc_corrected = 0;
  /// UECC victim allocation name (empty unless status == kEccUncorrectable).
  std::string fault_buffer;

  bool Ok() const { return status == LaunchStatus::kOk; }
};

class Device;

/// Execution context handed to the kernel functor, one warp at a time.
/// All memory operations take a lane mask (bit i = lane i participates).
class WarpCtx {
 public:
  WarpCtx(Device& device, uint64_t warp_id, uint32_t sm, const LaunchConfig& config)
      : device_(device), warp_id_(warp_id), sm_(sm), config_(config) {}

  uint64_t WarpId() const { return warp_id_; }
  uint64_t GlobalThread(uint32_t lane) const { return warp_id_ * kWarpSize + lane; }

  /// Lanes whose global thread index is within the launch bound.
  uint32_t ActiveMask() const {
    uint64_t first = warp_id_ * kWarpSize;
    if (first + kWarpSize <= config_.num_threads) return kFullMask;
    if (first >= config_.num_threads) return 0;
    return kFullMask >> (kWarpSize - static_cast<uint32_t>(config_.num_threads - first));
  }

  /// Charges `instructions` warp-level ALU/control instructions.
  void ChargeAlu(uint32_t instructions, uint32_t mask);

  /// Charges shared-memory traffic: `ops` warp accesses over `mask` lanes.
  /// (Functional data stays in the kernel's own arrays; the scratchpad is a
  /// cost model, not a second storage.)
  void ChargeShared(uint32_t ops, uint32_t mask);

  /// Warp gather: lane i loads element idx[i] of `buf`. One load
  /// instruction; coalesced into unique 32B sectors; each sector probes
  /// L1 -> L2 -> DRAM. Serial-dependence latency: the warp pays the worst
  /// lane's level once per gather (issue-and-wait pattern).
  template <typename T>
  void Gather(const Buffer<T>& buf, const LaneArray<uint64_t>& idx, uint32_t mask,
              LaneArray<T>& out);

  /// Contiguous warp load: lane i loads element base + i. The common
  /// fully-coalesced pattern (frontier arrays, offset arrays).
  template <typename T>
  void GatherContiguous(const Buffer<T>& buf, uint64_t base, uint32_t mask,
                        LaneArray<T>& out);

  /// SMP-style bulk gather: lane i loads elements [start[i], start[i] +
  /// count[i]) into out[i * stride ..]. Issued as `max(count)` unrolled
  /// load instructions whose misses pipeline: the warp pays one full
  /// worst-level latency plus a per-sector streaming interval, modelling
  /// the instruction-level parallelism the paper's shared-memory prefetch
  /// unlocks (Section V-B). Also charges the shared-memory stores.
  template <typename T>
  void GatherBulk(const Buffer<T>& buf, const LaneArray<uint64_t>& start,
                  const LaneArray<uint32_t>& count, uint32_t mask, T* out,
                  uint32_t stride);

  /// Warp scatter store: lane i writes val[i] to element idx[i].
  /// Write-through: L2 allocate, DRAM write on L2 miss; stores do not stall
  /// the warp.
  template <typename T>
  void Scatter(Buffer<T>& buf, const LaneArray<uint64_t>& idx,
               const LaneArray<T>& val, uint32_t mask);

  /// Scatter declared race-tolerant — the CUDA `st.relaxed` / volatile-store
  /// idiom for single-writer protocols where concurrent readers are part of
  /// the design (e.g. pull-phase level claiming in hybrid BFS). Identical
  /// cost and functional behaviour to Scatter; racecheck treats it like an
  /// atomic instead of a hazard, while memcheck still bounds-checks it.
  template <typename T>
  void ScatterRelaxed(Buffer<T>& buf, const LaneArray<uint64_t>& idx,
                      const LaneArray<T>& val, uint32_t mask);

  /// Block-level barrier (__syncthreads). `arrive_mask` is the lane mask the
  /// warp arrives with; arriving under a mask narrower than ActiveMask()
  /// is the classic divergent-barrier hang that synccheck flags. Charges one
  /// warp instruction.
  void Barrier(uint32_t arrive_mask);

  /// Warp atomic min: old values returned. Lanes targeting the same
  /// element serialize.
  template <typename T>
  void AtomicMin(Buffer<T>& buf, const LaneArray<uint64_t>& idx,
                 const LaneArray<T>& val, uint32_t mask, LaneArray<T>& old);

  /// Warp atomic max (SSWP uses max of min-so-far widths).
  template <typename T>
  void AtomicMax(Buffer<T>& buf, const LaneArray<uint64_t>& idx,
                 const LaneArray<T>& val, uint32_t mask, LaneArray<T>& old);

  /// Warp atomic add; used for frontier-append cursors.
  template <typename T>
  void AtomicAdd(Buffer<T>& buf, const LaneArray<uint64_t>& idx,
                 const LaneArray<T>& val, uint32_t mask, LaneArray<T>& old);

  /// Warp atomic or; used for per-source reach-mask accumulation in
  /// attributed multi-source traversals.
  template <typename T>
  void AtomicOr(Buffer<T>& buf, const LaneArray<uint64_t>& idx,
                const LaneArray<T>& val, uint32_t mask, LaneArray<T>& old);

  /// Convenience: iterate set bits of mask.
  template <typename F>
  static void ForActive(uint32_t mask, F&& fn) {
    while (mask) {
      uint32_t lane = static_cast<uint32_t>(std::countr_zero(mask));
      fn(lane);
      mask &= mask - 1;
    }
  }

  static uint32_t PopCount(uint32_t mask) { return static_cast<uint32_t>(std::popcount(mask)); }

 private:
  // Cost accounting helpers (defined after Device below).
  void AccumGatherCost(uint32_t mask, uint32_t sectors, uint32_t worst_latency);
  void AccumBulkCost(uint32_t mask, uint32_t sectors, uint32_t worst_latency,
                     uint32_t unrolled_loads);
  void AccumStoreCost(uint32_t mask);
  void AccumAtomicCost(uint32_t mask, uint32_t max_multiplicity);

  template <typename T, typename Op>
  void AtomicOp(Buffer<T>& buf, const LaneArray<uint64_t>& idx, const LaneArray<T>& val,
                uint32_t mask, LaneArray<T>& old, Op op);

  template <typename T>
  void ScatterImpl(Buffer<T>& buf, const LaneArray<uint64_t>& idx,
                   const LaneArray<T>& val, uint32_t mask, AccessKind kind);

  /// The checked, coalescing front end of every indexed warp memory op, in
  /// one pass over the active lanes. Each lane's access is reported to the
  /// attached observer (with the raw, unclamped index so the sanitizer sees
  /// out-of-bounds attempts), the DCHECK stays armed for unchecked debug
  /// builds, and the index is clamped into bounds so a release build can
  /// never corrupt host memory on a buggy index — `safe` is what the
  /// functional load/store must use. The clamped addresses' distinct 32-byte
  /// sectors go to `sectors` in order of first occurrence by lane (the order
  /// the caches are probed in), exactly as internal::CoalesceSectors would
  /// emit them; returns their count. When `depth` is non-null it receives
  /// the atomic serialization depth, internal::MaxLaneMultiplicity(idx, mask).
  template <typename T>
  uint32_t CheckAndCoalesce(const Buffer<T>& buf, const LaneArray<uint64_t>& idx,
                            uint32_t mask, AccessKind kind, LaneArray<uint64_t>& safe,
                            uint64_t* sectors, uint32_t* depth = nullptr) const;

  Device& device_;
  uint64_t warp_id_;
  uint32_t sm_;
  LaunchConfig config_;
};

class Device {
 public:
  /// `faults` supplies the buffer plants (rmw_buffer, short_buffer), armed
  /// for every allocation; its hardware faults need SetFaultInjector.
  explicit Device(DeviceSpec spec = {}, const FaultConfig& faults = {});

  const DeviceSpec& Spec() const { return spec_; }

  // --- Allocation ---------------------------------------------------------
  template <typename T>
  Buffer<T> Alloc(uint64_t count, MemKind kind, const std::string& name) {
    // Test plants (FaultConfig::short_buffer, rmw_buffer); unnamed
    // buffers never match.
    if (count > 1 && !short_plant_.empty() && name == short_plant_) --count;
    if (fault_ != nullptr && (lost_ || fault_->NextAllocFails())) {
      // Injected allocation failure (or allocation on a lost device)
      // surfaces exactly like real memory pressure.
      throw OomError(count * sizeof(T), mem_.DeviceBytesUsed(), mem_.CapacityBytes());
    }
    RawBuffer raw = mem_.Allocate(count * sizeof(T), kind, name);
    raw.unsynced_atomics = !rmw_plant_.empty() && name == rmw_plant_;
    if (kind == MemKind::kUnified) um_.Register(raw.base_addr, raw.bytes);
    UpdateUmBudget();
    if (observer_ != nullptr) observer_->OnAlloc(raw, name);
    return Buffer<T>{raw, count};
  }

  template <typename T>
  void Free(Buffer<T>& buffer) {
    if (!buffer.Valid()) return;
    if (observer_ != nullptr) observer_->OnFree(buffer.raw);
    if (buffer.raw.kind == MemKind::kUnified) um_.Unregister(buffer.raw.base_addr);
    mem_.Free(buffer.raw);
    UpdateUmBudget();
    buffer = Buffer<T>{};
  }

  // --- Host <-> device transfers -------------------------------------------
  /// Synchronous cudaMemcpy H2D. `pageable` selects the slower staging path
  /// (the default for frameworks that do not pin their host graphs).
  template <typename T>
  void CopyToDevice(Buffer<T>& buffer, std::span<const T> src, bool pageable = true) {
    ETA_CHECK(buffer.raw.kind == MemKind::kDevice);
    ETA_CHECK(src.size() <= buffer.count);
    std::memcpy(buffer.raw.data, src.data(), src.size_bytes());
    RecordTransfer(src.size_bytes(), pageable, SpanKind::kTransferH2D, "h2d");
    if (observer_ != nullptr) observer_->OnHostWrite(buffer.raw, 0, src.size_bytes());
  }

  /// H2D copy into a sub-range of the buffer (cudaMemcpy with an offset
  /// destination pointer) — used for single-element setup writes.
  template <typename T>
  void CopyToDeviceRange(Buffer<T>& buffer, uint64_t offset, std::span<const T> src,
                         bool pageable = true) {
    ETA_CHECK(buffer.raw.kind == MemKind::kDevice);
    ETA_CHECK(offset + src.size() <= buffer.count);
    std::memcpy(buffer.raw.data + offset * sizeof(T), src.data(), src.size_bytes());
    RecordTransfer(src.size_bytes(), pageable, SpanKind::kTransferH2D, "h2d");
    if (observer_ != nullptr) {
      observer_->OnHostWrite(buffer.raw, offset * sizeof(T), src.size_bytes());
    }
  }

  template <typename T>
  void CopyToHost(std::span<T> dst, const Buffer<T>& buffer, bool pageable = true) {
    ETA_CHECK(dst.size() <= buffer.count);
    std::memcpy(dst.data(), buffer.raw.data, dst.size_bytes());
    RecordTransfer(dst.size_bytes(), pageable, SpanKind::kTransferD2H, "d2h");
  }

  /// cudaMemPrefetchAsync for a managed buffer: schedules the transfer and
  /// returns immediately; kernels stall on pages that have not landed.
  template <typename T>
  double PrefetchAsync(const Buffer<T>& buffer) {
    ETA_CHECK(buffer.raw.kind == MemKind::kUnified);
    // Back-to-back prefetches share one PCIe link: they queue.
    double start = std::max(now_ms_, pending_transfer_end_);
    double end = um_.PrefetchToDevice(buffer.raw.base_addr, start);
    if (end > start) {
      timeline_.Add(SpanKind::kTransferH2D, start, end, "prefetch");
    }
    pending_transfer_end_ = std::max(pending_transfer_end_, end);
    return end;
  }

  /// cudaDeviceSynchronize: waits out any in-flight prefetch.
  void Synchronize() { WaitUntil(pending_transfer_end_); }

  /// Declares the buffer's contents host-initialized without charging a
  /// transfer: call sites that stage data straight into HostSpan() (unified
  /// memory, chunked streaming) or that rely on the allocator's zero-fill
  /// use this to tell an attached sanitizer the bytes are defined. Free when
  /// no observer is attached; never moves the simulated clock.
  template <typename T>
  void MarkHostInitialized(const Buffer<T>& buffer) {
    if (observer_ != nullptr) {
      observer_->OnHostWrite(buffer.raw, 0, buffer.count * sizeof(T));
    }
  }

  /// Charges a host->device transfer without moving bytes — used by
  /// frameworks that manage their own staging (e.g. GTS-style chunked
  /// streaming) where the functional data already lives in host-backed
  /// storage and only the cost is modeled.
  /// `overlap` in [0,1): that fraction of the transfer hides behind
  /// subsequent kernels (multi-stream pipelining); the timeline records the
  /// full span, but the clock only advances by the exposed part.
  void ChargeHostToDevice(uint64_t bytes, bool pageable, const std::string& label,
                          double overlap = 0.0) {
    double dur = spec_.memcpy_latency_us / 1000.0 + spec_.PcieMsForBytes(bytes, pageable);
    timeline_.Add(SpanKind::kTransferH2D, now_ms_, now_ms_ + dur, label);
    Advance(dur * (1.0 - overlap));
  }

  /// Advances the simulated clock by `ms` with no device activity — how
  /// recovery layers charge retry backoff to simulated time. Recorded as a
  /// kStall span so the timeline shows where a fault run lost its wall time.
  void ChargeDelay(double ms, const std::string& label) {
    if (ms <= 0) return;
    timeline_.Add(SpanKind::kStall, now_ms_, now_ms_ + ms, label);
    Advance(ms);
  }

  // --- Kernel launch --------------------------------------------------------
  template <typename F>
  LaunchResult Launch(const std::string& label, const LaunchConfig& config, F&& kernel) {
    if (fault_ != nullptr) {
      LaunchFault fate = DecideLaunchFault();
      if (fate.status != LaunchStatus::kOk) return FailLaunch(label, config, fate);
      pending_ecc_corrected_ = fate.ecc_corrected;
    }
    BeginLaunch();
    if (observer_ != nullptr) observer_->OnLaunchBegin(label, config);
    const uint32_t warps_per_block = std::max(1u, config.block_size / kWarpSize);
    const uint64_t num_warps =
        (config.num_threads + kWarpSize - 1) / kWarpSize;
    for (uint64_t w = 0; w < num_warps; ++w) {
      uint64_t block = w / warps_per_block;
      uint32_t sm = static_cast<uint32_t>(block % spec_.num_sms);
      WarpCtx ctx(*this, w, sm, config);
      kernel(ctx);
    }
    if (observer_ != nullptr) observer_->OnLaunchEnd();
    return EndLaunch(label, config, num_warps);
  }

  // --- Introspection ---------------------------------------------------------
  double NowMs() const { return now_ms_; }
  /// Restarts the interval clock at zero. IntervalMs() is the simulated
  /// time charged since then, summed from the individual charges instead
  /// of read as the difference of two absolute clock values: equal device
  /// work measures a bit-identical interval whatever the clock's base, so
  /// earlier work that shifted the session clock (a hoisted prefetch)
  /// cannot perturb a later query's duration by an ulp. Only a wait for a
  /// transfer still in flight ends at an absolute time; the interval there
  /// is that time less the interval's start.
  void StartInterval() {
    interval_start_ms_ = now_ms_;
    interval_ms_ = 0;
  }
  double IntervalMs() const { return interval_ms_; }
  const Counters& TotalCounters() const { return total_; }
  const Timeline& GetTimeline() const { return timeline_; }
  Timeline& MutableTimeline() { return timeline_; }
  const UnifiedMemory& Um() const { return um_; }
  DeviceMemory& Mem() { return mem_; }
  const DeviceMemory& Mem() const { return mem_; }
  const LaunchResult& LastLaunch() const { return last_launch_; }

  /// Attaches (or detaches, with nullptr) an instrumentation observer. The
  /// observer must outlive every subsequent device operation; it sees only
  /// events that happen while attached, so attach before allocating the
  /// buffers it should know about.
  void SetObserver(AccessObserver* observer) { observer_ = observer; }
  AccessObserver* Observer() const { return observer_; }

  /// Attaches (or detaches) a fault injector. With none attached (the
  /// default) every launch/alloc takes the zero-cost fast path and the
  /// simulation is bit-identical to a faultless build. The injector must
  /// outlive every subsequent launch and allocation.
  void SetFaultInjector(FaultInjector* injector) { fault_ = injector; }

  /// Attaches (or detaches) a per-launch profiler (etaprof). Recording is
  /// host-side only: it never moves the simulated clock or the counters, so
  /// a profiled run is bit-identical to an unprofiled one. The profiler must
  /// outlive every subsequent launch.
  void SetProfiler(LaunchProfiler* profiler) { profiler_ = profiler; }
  LaunchProfiler* Profiler() const { return profiler_; }

  /// True once a kDeviceLost fault has fired: the device fell off the bus
  /// and every further launch/alloc fails until the Device is rebuilt.
  bool Lost() const { return lost_; }

  /// Leakcheck teardown sweep: reports every still-live allocation to the
  /// attached observer via OnLeakedBuffer, in base-address order. Runs at
  /// most once per device; call after freeing everything that should be
  /// freed, before reading the sanitizer report.
  void ReportLeaks();

 private:
  friend class WarpCtx;

  struct LaunchAccum {
    Counters c;
    uint64_t migrated_bytes = 0;
    uint32_t fault_ops = 0;
    uint64_t evicted_bytes = 0;
    double arrival_barrier_ms = 0;
  };

  void BeginLaunch();
  LaunchResult EndLaunch(const std::string& label, const LaunchConfig& config,
                         uint64_t num_warps);
  /// Consults the injector (or the sticky lost flag) for the next launch.
  LaunchFault DecideLaunchFault();
  /// Aborts a launch without executing warps: charges the abort/watchdog
  /// time, applies UECC corruption, and latches device loss.
  LaunchResult FailLaunch(const std::string& label, const LaunchConfig& config,
                          const LaunchFault& fate);
  /// Flips words in a deterministically chosen live allocation (UECC).
  void CorruptVictim(const LaunchFault& fate, std::string* victim_name);
  void UpdateUmBudget();
  /// Charges `dur` at the current clock (see StartInterval).
  void Advance(double dur) {
    now_ms_ += dur;
    interval_ms_ += dur;
  }
  /// Stalls the clock until absolute time `t`, if it is still ahead.
  void WaitUntil(double t) {
    if (t <= now_ms_) return;
    now_ms_ = t;
    interval_ms_ = t - interval_start_ms_;
  }
  void RecordTransfer(uint64_t bytes, bool pageable, SpanKind kind,
                      const std::string& label);

  /// The unified-memory range of `buf`, or nullptr when it is not managed:
  /// warp operations resolve it once from the buffer, never per sector.
  UnifiedMemory::Range* ManagedRange(const RawBuffer& buf) {
    return buf.kind == MemKind::kUnified ? um_.FindRange(buf.base_addr) : nullptr;
  }
  /// Cache/DRAM read path for `count` unique sectors on SM `sm`. Returns
  /// the worst latency level encountered (cycles). `managed` is the range
  /// the sectors lie in (ManagedRange), or nullptr.
  uint32_t ReadSectors(uint32_t sm, const uint64_t* sectors, uint32_t count,
                       UnifiedMemory::Range* managed);
  /// Write-through store path.
  void WriteSectors(const uint64_t* sectors, uint32_t count, UnifiedMemory::Range* managed);
  /// Unified-memory residency handling for one DRAM-level access to a
  /// managed buffer.
  void TouchManaged(UnifiedMemory::Range& range, uint64_t addr, bool write);

  /// The coalescer's scratch (WarpCtx::CheckAndCoalesce), grown to at least
  /// `size` entries. Both are all zero between warp operations: each op
  /// clears exactly the entries it set.
  uint64_t* SectorBits(uint64_t size) {
    if (sector_bits_.size() < size) sector_bits_.resize(size);
    return sector_bits_.data();
  }
  uint8_t* ElementDepths(uint64_t size) {
    if (element_depths_.size() < size) element_depths_.resize(size);
    return element_depths_.data();
  }

  DeviceSpec spec_;
  std::string rmw_plant_;    // FaultConfig::rmw_buffer
  std::string short_plant_;  // FaultConfig::short_buffer
  DeviceMemory mem_;
  UnifiedMemory um_;
  SectorCache l2_;
  std::vector<SectorCache> l1_;
  Timeline timeline_;
  Counters total_;
  LaunchResult last_launch_;
  LaunchAccum accum_;
  bool in_launch_ = false;
  double now_ms_ = 0;
  double interval_start_ms_ = 0;
  double interval_ms_ = 0;
  double pending_transfer_end_ = 0;
  AccessObserver* observer_ = nullptr;
  FaultInjector* fault_ = nullptr;
  LaunchProfiler* profiler_ = nullptr;
  bool lost_ = false;
  bool leaks_reported_ = false;
  uint32_t pending_ecc_corrected_ = 0;
  /// One bit per 32-byte sector of the largest buffer a warp op has
  /// indexed, relative to the buffer's base.
  std::vector<uint64_t> sector_bits_;
  /// One lane count per element of the largest atomic target.
  std::vector<uint8_t> element_depths_;
};

// ---------------------------------------------------------------------------
// WarpCtx implementation (templates; the sector-level core lives in
// device.cpp).
// ---------------------------------------------------------------------------

namespace internal {

/// Hash bucket (0..255) of a sector or element index in the duplicate
/// filter of the two functions below.
inline uint32_t KeyBucket(uint64_t key) {
  return static_cast<uint32_t>((key * 0x9e3779b97f4a7c15ULL) >> 56);
}

/// Writes the distinct 32-byte sectors the active lanes' addresses fall in
/// to `sectors`, in order of first occurrence by lane (the order the caches
/// are probed in); returns their count. One pass over the lanes: O(32).
/// The reference for WarpCtx::CheckAndCoalesce, which needs no filter
/// because it knows the buffer's base.
uint32_t CoalesceSectors(const LaneArray<uint64_t>& addrs, uint32_t mask,
                         uint32_t elem_bytes, uint64_t* sectors);

/// Largest number of active lanes (mask != 0) that share one index: the
/// serialization depth of a warp atomic. One pass over the lanes: O(32).
/// CheckAndCoalesce counts it per element, and calls this only when a lane
/// was clamped.
uint32_t MaxLaneMultiplicity(const LaneArray<uint64_t>& idx, uint32_t mask);

}  // namespace internal

template <typename T>
uint32_t WarpCtx::CheckAndCoalesce(const Buffer<T>& buf, const LaneArray<uint64_t>& idx,
                                   uint32_t mask, AccessKind kind,
                                   LaneArray<uint64_t>& safe, uint64_t* sectors,
                                   uint32_t* depth) const {
  AccessObserver* obs = device_.observer_;
  // Locals, so the stores to `safe` cannot force reloads of the buffer.
  const uint64_t count = buf.count;
  const uint64_t last_elem = count > 0 ? count - 1 : 0;
  // Buffers are page-aligned, so element i lies in sector
  // base_addr / 32 + i * sizeof(T) / 32 exactly: that offset is its bit.
  ETA_DCHECK(buf.raw.base_addr % 32 == 0);
  const uint64_t base_sector = buf.raw.base_addr / 32;
  uint64_t* seen = device_.SectorBits(last_elem * sizeof(T) / 32 / 64 + 1);
  uint32_t n = 0;
  bool clamped = false;
  ForActive(mask, [&](uint32_t lane) {
    uint64_t i = idx[lane];
    if (obs != nullptr) {
      obs->OnDeviceAccess(DeviceAccess{&buf.raw, i, 1, sizeof(T), count, kind, warp_id_, lane});
    } else {
      ETA_DCHECK(i < count);
    }
    clamped |= i >= count;
    if (i >= count) i = last_elem;
    safe[lane] = i;
    const uint64_t bit = i * sizeof(T) / 32;
    const uint64_t word = seen[bit / 64];
    const uint64_t flag = uint64_t{1} << (bit % 64);
    seen[bit / 64] = word | flag;
    sectors[n] = base_sector + bit;
    n += (word & flag) == 0;
  });
  // Back to all zero: the emitted sectors' words are exactly those set.
  for (uint32_t j = 0; j < n; ++j) seen[(sectors[j] - base_sector) / 64] = 0;
  if (depth != nullptr) {
    // One sector per active lane proves the indices distinct. Otherwise
    // count lanes per element. Depth counts raw indices, though: lanes
    // clamped onto one element are still distinct.
    if (n == PopCount(mask)) {
      *depth = 1;
    } else if (clamped) {
      *depth = internal::MaxLaneMultiplicity(idx, mask);
    } else {
      uint8_t* lanes_on = device_.ElementDepths(count);
      uint32_t most = 0;
      ForActive(mask, [&](uint32_t lane) {
        most = std::max<uint32_t>(most, ++lanes_on[safe[lane]]);
      });
      ForActive(mask, [&](uint32_t lane) { lanes_on[safe[lane]] = 0; });
      *depth = most;
    }
  }
  return n;
}

template <typename T>
void WarpCtx::Gather(const Buffer<T>& buf, const LaneArray<uint64_t>& idx, uint32_t mask,
                     LaneArray<T>& out) {
  if (!mask) return;
  LaneArray<uint64_t> safe;
  uint64_t sectors[kWarpSize];
  const uint32_t n = CheckAndCoalesce(buf, idx, mask, AccessKind::kRead, safe, sectors);
  const uint32_t worst = device_.ReadSectors(sm_, sectors, n, device_.ManagedRange(buf.raw));
  AccumGatherCost(mask, n, worst);
  const T* data = reinterpret_cast<const T*>(buf.raw.data);
  ForActive(mask, [&](uint32_t lane) { out[lane] = data[safe[lane]]; });
}

template <typename T>
void WarpCtx::GatherContiguous(const Buffer<T>& buf, uint64_t base, uint32_t mask,
                               LaneArray<T>& out) {
  if (!mask) return;
  const uint32_t last_lane = kWarpSize - 1 - static_cast<uint32_t>(std::countl_zero(mask));
  if (device_.observer_ != nullptr || buf.count <= last_lane ||
      base >= buf.count - last_lane) {
    // The sanitizer must see every lane, and out-of-bounds lanes clamp:
    // both are the indexed path's job.
    LaneArray<uint64_t> idx;
    ForActive(mask, [&](uint32_t lane) { idx[lane] = base + lane; });
    Gather(buf, idx, mask, out);
    return;
  }
  // Every active lane is in bounds and the addresses ascend with the lane,
  // so first-occurrence order is ascending order: the sectors are those of
  // the run [addr / 32, ...] that hold an active lane. Shifted by the first
  // element's slot in its sector, the mask splits into one group of
  // `per_sector` bits per sector.
  static_assert(32 % sizeof(T) == 0, "elements must tile the 32-byte sectors");
  constexpr uint32_t per_sector = 32 / sizeof(T);
  const uint64_t addr = buf.raw.base_addr + base * sizeof(T);
  uint64_t sectors[kWarpSize];
  uint32_t n = 0;
  uint64_t lanes = uint64_t{mask} << (addr % 32 / sizeof(T));
  for (uint64_t sector = addr / 32; lanes != 0; ++sector, lanes >>= per_sector) {
    if ((lanes & ((uint64_t{1} << per_sector) - 1)) != 0) sectors[n++] = sector;
  }
  const uint32_t worst = device_.ReadSectors(sm_, sectors, n, device_.ManagedRange(buf.raw));
  AccumGatherCost(mask, n, worst);
  const T* data = reinterpret_cast<const T*>(buf.raw.data) + base;
  if (mask == kFullMask) {
    std::memcpy(out.data(), data, sizeof(out));
  } else {
    ForActive(mask, [&](uint32_t lane) { out[lane] = data[lane]; });
  }
}

template <typename T>
void WarpCtx::GatherBulk(const Buffer<T>& buf, const LaneArray<uint64_t>& start,
                         const LaneArray<uint32_t>& count, uint32_t mask, T* out,
                         uint32_t stride) {
  if (!mask) return;
  // Checked-indexing pass: report each lane's run to the observer with the
  // raw range, then clamp the run into bounds so the streaming loops below
  // never touch host memory past the allocation.
  AccessObserver* obs = device_.observer_;
  LaneArray<uint64_t> safe_start;
  LaneArray<uint32_t> safe_count;
  ForActive(mask, [&](uint32_t lane) {
    uint64_t s = start[lane];
    uint32_t c = count[lane];
    if (c > 0) {
      if (obs != nullptr) {
        obs->OnDeviceAccess(DeviceAccess{&buf.raw, s, c, sizeof(T), buf.count,
                                         AccessKind::kRead, warp_id_, lane});
      } else {
        ETA_DCHECK(s + c <= buf.count);
      }
    }
    if (s >= buf.count) {
      s = 0;
      c = 0;
    } else if (s + c > buf.count) {
      c = static_cast<uint32_t>(buf.count - s);
    }
    // `out` holds exactly `stride` slots per lane; a count beyond that
    // (fault-corrupted device data) must not spill into neighbor lanes.
    if (c > stride) c = stride;
    safe_start[lane] = s;
    safe_count[lane] = c;
  });
  // Each lane's run is contiguous, so its sectors are requested exactly
  // once (the unrolled loads have nothing intervening to evict them); a
  // rare cross-lane duplicate simply hits in the L1 on its second probe.
  // The runs are probed in lane order, batched across lanes.
  uint32_t worst = 0;
  uint32_t max_count = 0;
  uint32_t total_sectors = 0;
  const uint32_t sector_bytes = device_.Spec().sector_bytes;
  UnifiedMemory::Range* managed = device_.ManagedRange(buf.raw);
  uint64_t chunk[4 * kWarpSize];
  uint32_t n = 0;
  auto flush = [&] {
    worst = std::max(worst, device_.ReadSectors(sm_, chunk, n, managed));
    total_sectors += n;
    n = 0;
  };
  ForActive(mask, [&](uint32_t lane) {
    max_count = std::max(max_count, safe_count[lane]);
    if (safe_count[lane] == 0) return;
    uint64_t first = buf.AddrOf(safe_start[lane]) / sector_bytes;
    uint64_t last =
        (buf.AddrOf(safe_start[lane]) + uint64_t{safe_count[lane]} * sizeof(T) - 1) /
        sector_bytes;
    for (uint64_t s = first; s <= last; ++s) {
      chunk[n++] = s;
      if (n == std::size(chunk)) flush();
    }
  });
  if (n > 0) flush();
  AccumBulkCost(mask, total_sectors, worst, max_count);

  const T* data = reinterpret_cast<const T*>(buf.raw.data);
  ForActive(mask, [&](uint32_t lane) {
    for (uint32_t j = 0; j < safe_count[lane]; ++j) {
      out[lane * stride + j] = data[safe_start[lane] + j];
    }
  });
}

template <typename T>
void WarpCtx::ScatterImpl(Buffer<T>& buf, const LaneArray<uint64_t>& idx,
                          const LaneArray<T>& val, uint32_t mask, AccessKind kind) {
  if (!mask) return;
  LaneArray<uint64_t> safe;
  uint64_t sectors[kWarpSize];
  const uint32_t n = CheckAndCoalesce(buf, idx, mask, kind, safe, sectors);
  device_.WriteSectors(sectors, n, device_.ManagedRange(buf.raw));
  AccumStoreCost(mask);
  T* data = reinterpret_cast<T*>(buf.raw.data);
  ForActive(mask, [&](uint32_t lane) { data[safe[lane]] = val[lane]; });
}

template <typename T>
void WarpCtx::Scatter(Buffer<T>& buf, const LaneArray<uint64_t>& idx,
                      const LaneArray<T>& val, uint32_t mask) {
  ScatterImpl(buf, idx, val, mask, AccessKind::kWrite);
}

template <typename T>
void WarpCtx::ScatterRelaxed(Buffer<T>& buf, const LaneArray<uint64_t>& idx,
                             const LaneArray<T>& val, uint32_t mask) {
  ScatterImpl(buf, idx, val, mask, AccessKind::kRelaxedWrite);
}

template <typename T, typename Op>
void WarpCtx::AtomicOp(Buffer<T>& buf, const LaneArray<uint64_t>& idx,
                       const LaneArray<T>& val, uint32_t mask, LaneArray<T>& old, Op op) {
  if (!mask) return;
  if (buf.raw.unsynced_atomics) [[unlikely]] {
    // Planted dropped atomic: each lane reads, applies `op` to its private
    // copy and stores, so lanes that share an element lose updates.
    Gather(buf, idx, mask, old);
    LaneArray<T> next = old;
    ForActive(mask, [&](uint32_t lane) { op(&next[lane], val[lane]); });
    Scatter(buf, idx, next, mask);
    return;
  }
  LaneArray<uint64_t> safe;
  uint64_t sectors[kWarpSize];
  uint32_t depth = 0;
  const uint32_t n =
      CheckAndCoalesce(buf, idx, mask, AccessKind::kAtomic, safe, sectors, &depth);
  // Atomics resolve at the L2; same-address lanes serialize.
  device_.WriteSectors(sectors, n, device_.ManagedRange(buf.raw));
  AccumAtomicCost(mask, depth);
  T* data = reinterpret_cast<T*>(buf.raw.data);
  ForActive(mask, [&](uint32_t lane) { old[lane] = op(&data[safe[lane]], val[lane]); });
}

template <typename T>
void WarpCtx::AtomicMin(Buffer<T>& buf, const LaneArray<uint64_t>& idx,
                        const LaneArray<T>& val, uint32_t mask, LaneArray<T>& old) {
  AtomicOp(buf, idx, val, mask, old,
           [](T* slot, T v) { T o = *slot; if (v < o) *slot = v; return o; });
}

template <typename T>
void WarpCtx::AtomicMax(Buffer<T>& buf, const LaneArray<uint64_t>& idx,
                        const LaneArray<T>& val, uint32_t mask, LaneArray<T>& old) {
  AtomicOp(buf, idx, val, mask, old,
           [](T* slot, T v) { T o = *slot; if (v > o) *slot = v; return o; });
}

template <typename T>
void WarpCtx::AtomicAdd(Buffer<T>& buf, const LaneArray<uint64_t>& idx,
                        const LaneArray<T>& val, uint32_t mask, LaneArray<T>& old) {
  AtomicOp(buf, idx, val, mask, old,
           [](T* slot, T v) { T o = *slot; *slot = o + v; return o; });
}

template <typename T>
void WarpCtx::AtomicOr(Buffer<T>& buf, const LaneArray<uint64_t>& idx,
                       const LaneArray<T>& val, uint32_t mask, LaneArray<T>& old) {
  AtomicOp(buf, idx, val, mask, old,
           [](T* slot, T v) { T o = *slot; *slot = o | v; return o; });
}

}  // namespace eta::sim
