#include "sim/memory.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

namespace eta::sim {

RawBuffer DeviceMemory::Allocate(uint64_t bytes, MemKind kind, const std::string& name) {
  uint64_t rounded = (std::max<uint64_t>(bytes, 1) + page_bytes_ - 1) / page_bytes_ * page_bytes_;
  if (kind == MemKind::kDevice) {
    if (device_used_ + rounded > capacity_) {
      throw OomError(rounded, device_used_, capacity_);
    }
    device_used_ += rounded;
  } else {
    unified_allocated_ += rounded;
  }

  Record record;
  record.storage = std::make_unique<std::byte[]>(rounded);
  std::memset(record.storage.get(), 0, rounded);
  record.name = name;
  record.handle = RawBuffer{.id = next_id_++,
                            .base_addr = next_addr_,
                            .bytes = rounded,
                            .payload_bytes = std::max<uint64_t>(bytes, 1),
                            .kind = kind,
                            .data = record.storage.get()};
  next_addr_ += rounded + page_bytes_;  // guard page between allocations

  uint64_t id = record.handle.id;
  uint64_t base = record.handle.base_addr;
  RawBuffer handle = record.handle;
  records_.emplace(id, std::move(record));
  ranges_.insert(std::lower_bound(ranges_.begin(), ranges_.end(),
                                  std::make_pair(base, uint64_t{0})),
                 {base, id});
  return handle;
}

void DeviceMemory::Free(const RawBuffer& buffer) {
  auto it = records_.find(buffer.id);
  ETA_CHECK(it != records_.end());
  if (buffer.kind == MemKind::kDevice) {
    ETA_CHECK(device_used_ >= it->second.handle.bytes);
    device_used_ -= it->second.handle.bytes;
  } else {
    unified_allocated_ -= it->second.handle.bytes;
  }
  auto rit = std::lower_bound(ranges_.begin(), ranges_.end(),
                              std::make_pair(buffer.base_addr, uint64_t{0}));
  ETA_CHECK(rit != ranges_.end() && rit->second == buffer.id);
  ranges_.erase(rit);
  records_.erase(it);
}

std::vector<std::pair<RawBuffer, std::string>> DeviceMemory::LiveAllocations() const {
  std::vector<std::pair<RawBuffer, std::string>> live;
  live.reserve(ranges_.size());
  for (const auto& [base, id] : ranges_) {
    const Record& record = records_.at(id);
    live.emplace_back(record.handle, record.name);
  }
  return live;
}

const RawBuffer* DeviceMemory::Find(uint64_t addr) const {
  auto it = std::upper_bound(ranges_.begin(), ranges_.end(),
                             std::make_pair(addr, std::numeric_limits<uint64_t>::max()));
  if (it == ranges_.begin()) return nullptr;
  --it;
  const Record& record = records_.at(it->second);
  if (addr < record.handle.base_addr + record.handle.bytes) return &record.handle;
  return nullptr;
}

}  // namespace eta::sim
