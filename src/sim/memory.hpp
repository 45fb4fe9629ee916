// Device memory management: the simulated cudaMalloc / cudaMallocManaged.
//
// Allocations live in a single simulated device address space (page-aligned
// bump allocation) with real host backing storage for functional execution.
// Explicit (kDevice) allocations count against the device capacity and
// throw OomError when it is exceeded — this is how every O.O.M entry in the
// paper's Table III reproduces. Unified (kUnified) allocations never fail:
// their pages migrate on demand and may oversubscribe (handled by
// sim::UnifiedMemory).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/check.hpp"

namespace eta::sim {

enum class MemKind {
  kDevice,   // cudaMalloc: counts against capacity, OOMs
  kUnified,  // cudaMallocManaged: page-migrated, can oversubscribe
  /// Host-backed storage accessed through a framework-managed staging
  /// buffer (GTS-style chunk streaming). Functionally identical to
  /// kUnified but invisible to the UM page machinery: the framework
  /// charges its own transfers.
  kHostStaged,
};

class OomError : public std::runtime_error {
 public:
  OomError(uint64_t requested, uint64_t used, uint64_t capacity)
      : std::runtime_error("simulated device out of memory"),
        requested_bytes(requested),
        used_bytes(used),
        capacity_bytes(capacity) {}

  uint64_t requested_bytes;
  uint64_t used_bytes;
  uint64_t capacity_bytes;
};

/// Untyped allocation handle. Copyable; the storage is owned by
/// DeviceMemory and outlives handles until Free().
struct RawBuffer {
  uint64_t id = 0;
  uint64_t base_addr = 0;
  uint64_t bytes = 0;          // page-rounded; what capacity accounting charges
  uint64_t payload_bytes = 0;  // caller-requested size; ECC faults only hit this
  MemKind kind = MemKind::kDevice;
  /// Planted dropped atomic (FaultConfig::rmw_buffer): warp atomics on this
  /// buffer run as an unsynchronized Gather plus Scatter.
  bool unsynced_atomics = false;
  std::byte* data = nullptr;

  bool Valid() const { return data != nullptr; }
};

/// Typed view over a RawBuffer.
template <typename T>
struct Buffer {
  RawBuffer raw;
  uint64_t count = 0;

  bool Valid() const { return raw.Valid(); }
  uint64_t AddrOf(uint64_t index) const {
    ETA_DCHECK(index < count);
    return raw.base_addr + index * sizeof(T);
  }
  /// Direct host access to the backing storage. Host-side code uses this
  /// for initialization and verification; simulated kernels go through
  /// WarpCtx so costs are charged.
  std::span<T> HostSpan() const {
    return {reinterpret_cast<T*>(raw.data), count};
  }
};

class DeviceMemory {
 public:
  explicit DeviceMemory(uint64_t capacity_bytes, uint64_t page_bytes)
      : capacity_(capacity_bytes), page_bytes_(page_bytes) {}

  /// Allocates `bytes` of `kind` memory, zero-initialized and page-aligned.
  /// Throws OomError if a kDevice allocation would exceed capacity
  /// (kUnified allocations always succeed — they can oversubscribe).
  RawBuffer Allocate(uint64_t bytes, MemKind kind, const std::string& name);

  void Free(const RawBuffer& buffer);

  uint64_t DeviceBytesUsed() const { return device_used_; }
  uint64_t UnifiedBytesAllocated() const { return unified_allocated_; }
  uint64_t CapacityBytes() const { return capacity_; }

  /// Looks up the allocation containing `addr`; nullptr if none.
  const RawBuffer* Find(uint64_t addr) const;

  /// Every live allocation with its name, ordered by base address — a
  /// deterministic enumeration used for UECC victim selection and the
  /// leakcheck teardown sweep.
  std::vector<std::pair<RawBuffer, std::string>> LiveAllocations() const;

 private:
  struct Record {
    RawBuffer handle;
    std::string name;
    std::unique_ptr<std::byte[]> storage;
  };

  uint64_t capacity_;
  uint64_t page_bytes_;
  uint64_t next_addr_ = 1ULL << 20;  // leave page 0 unmapped
  uint64_t next_id_ = 1;
  uint64_t device_used_ = 0;
  uint64_t unified_allocated_ = 0;
  std::unordered_map<uint64_t, Record> records_;         // id -> record
  std::vector<std::pair<uint64_t, uint64_t>> ranges_;    // (base, id), sorted
};

}  // namespace eta::sim
