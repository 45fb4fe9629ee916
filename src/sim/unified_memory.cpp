#include "sim/unified_memory.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace eta::sim {

void UnifiedMemory::Register(uint64_t base_addr, uint64_t bytes) {
  ETA_CHECK(bytes > 0);
  ETA_CHECK(base_addr % spec_.page_bytes == 0);
  Range range;
  range.base = base_addr;
  range.bytes = bytes;
  uint64_t pages = (bytes + spec_.page_bytes - 1) / spec_.page_bytes;
  range.state.assign(pages, PageState::kHost);
  range.dirty.assign(pages, 0);
  range.arrival_ms.assign(pages, 0.f);
  ranges_.emplace(base_addr, std::move(range));
}

void UnifiedMemory::Unregister(uint64_t base_addr) {
  auto it = ranges_.find(base_addr);
  ETA_CHECK(it != ranges_.end());
  for (PageState s : it->second.state) {
    if (s == PageState::kResident || s == PageState::kInFlight) {
      resident_bytes_ -= spec_.page_bytes;
    }
  }
  ranges_.erase(it);
  // Stale FIFO entries for this range are skipped lazily in EnsureRoom.
}

UnifiedMemory::Range* UnifiedMemory::FindRange(uint64_t addr) {
  auto it = ranges_.upper_bound(addr);
  if (it == ranges_.begin()) return nullptr;
  --it;
  Range& r = it->second;
  return addr < r.base + r.bytes ? &r : nullptr;
}

const UnifiedMemory::Range* UnifiedMemory::FindRangeConst(uint64_t addr) const {
  auto it = ranges_.upper_bound(addr);
  if (it == ranges_.begin()) return nullptr;
  --it;
  const Range& r = it->second;
  return addr < r.base + r.bytes ? &r : nullptr;
}

bool UnifiedMemory::IsManaged(uint64_t addr) const {
  return FindRangeConst(addr) != nullptr;
}

uint64_t UnifiedMemory::EnsureRoom(uint64_t needed) {
  uint64_t evicted = 0;
  while (resident_bytes_ + needed > budget_bytes_ && !resident_fifo_.empty()) {
    auto [base, page] = resident_fifo_.front();
    resident_fifo_.pop_front();
    auto it = ranges_.find(base);
    if (it == ranges_.end()) continue;  // range was unregistered
    Range& r = it->second;
    if (page >= r.state.size() ||
        (r.state[page] != PageState::kResident && r.state[page] != PageState::kInFlight)) {
      continue;
    }
    r.state[page] = PageState::kHost;
    r.dirty[page] = 0;  // dirty pages write back; cost charged by caller
    resident_bytes_ -= spec_.page_bytes;
    evicted += spec_.page_bytes;
  }
  evicted_bytes_ += evicted;
  return evicted;
}

UnifiedMemory::TouchResult UnifiedMemory::Touch(uint64_t addr, bool write, double now_ms) {
  Range* r = FindRange(addr);
  if (r == nullptr) return {};  // unmanaged (e.g. a freed buffer): no-op
  return Touch(*r, addr, write, now_ms);
}

UnifiedMemory::TouchResult UnifiedMemory::Touch(Range& r, uint64_t addr, bool write,
                                                double now_ms) {
  ETA_DCHECK(addr >= r.base && addr < r.base + r.bytes);
  TouchResult result;
  uint64_t page = PageOf(r, addr);

  if (r.state[page] == PageState::kResident) {
    if (write) r.dirty[page] = 1;
    return result;
  }
  if (r.state[page] == PageState::kInFlight) {
    // Scheduled by a prefetch; the warp stalls until the chunk lands.
    // Residency was accounted when the prefetch was issued.
    result.arrival_ms = r.arrival_ms[page];
    r.state[page] = PageState::kResident;
    if (write) r.dirty[page] = 1;
    return result;
  }

  // --- Page fault: merged migration -------------------------------------
  // The UM driver's density prefetcher migrates a 16 KB block around any
  // fault and escalates when follow-up faults land within the current
  // window; a distant fault resets it. Per-migration sizes land between
  // one page (partially-resident or edge blocks) and the fault-path cap,
  // averaging a few tens of KB — Table V's profile.
  auto log2_pages = [&](uint64_t bytes) {
    uint64_t pages = std::max<uint64_t>(1, bytes / spec_.page_bytes);
    uint64_t log = 0;
    while ((1ULL << (log + 1)) <= pages) ++log;
    return log;
  };
  const uint64_t base_log = log2_pages(16 * util::kKiB);
  // Fault-driven migrations cap well below the 2 MB prefetch chunk (the
  // driver reserves full-chunk moves for explicit prefetches; nvprof traces
  // show on-demand batches topping out under ~1 MB — Table V).
  const uint64_t max_log =
      std::min(log2_pages(spec_.max_migration_bytes), log2_pages(1 * util::kMiB));
  if (r.window_log < base_log) r.window_log = static_cast<uint32_t>(base_log);
  uint64_t window_pages = 1ULL << r.window_log;
  if (r.last_fault_page != ~0ULL) {
    uint64_t dist = page > r.last_fault_page ? page - r.last_fault_page
                                             : r.last_fault_page - page;
    if (dist <= window_pages) {
      // Strictly local follow-up fault: grow the granule.
      r.window_log = static_cast<uint32_t>(std::min<uint64_t>(r.window_log + 1, max_log));
    } else {
      r.window_log = static_cast<uint32_t>(base_log);
    }
  }
  r.last_fault_page = page;
  // Never migrate a batch larger than the whole device budget (the driver
  // caps its prefetch block at what can be made resident at all).
  uint64_t budget_pages = std::max<uint64_t>(1, budget_bytes_ / spec_.page_bytes);
  while (r.window_log > 0 && (1ULL << r.window_log) > budget_pages) {
    --r.window_log;
  }
  window_pages = 1ULL << r.window_log;

  uint64_t first = page / window_pages * window_pages;
  uint64_t last = std::min<uint64_t>(first + window_pages, r.state.size());
  uint64_t batch_pages = 0;
  for (uint64_t p = first; p < last; ++p) {
    if (r.state[p] != PageState::kHost) continue;
    ++batch_pages;
  }
  ETA_CHECK(batch_pages >= 1);  // the faulting page itself is kHost

  uint64_t batch_bytes = batch_pages * spec_.page_bytes;
  result.evicted_bytes = EnsureRoom(batch_bytes);
  result.cache_flush = result.evicted_bytes > 0;

  for (uint64_t p = first; p < last; ++p) {
    if (r.state[p] != PageState::kHost) continue;
    r.state[p] = PageState::kResident;
    resident_bytes_ += spec_.page_bytes;
    resident_fifo_.emplace_back(r.base, p);
  }
  if (write) r.dirty[page] = 1;

  result.migrated_bytes = batch_bytes;
  result.fault_ops = 1;
  result.arrival_ms = now_ms;  // charged to the running kernel by the device
  migration_sizes_.Add(batch_bytes);
  return result;
}

double UnifiedMemory::PrefetchToDevice(uint64_t base_addr, double start_ms) {
  auto it = ranges_.find(base_addr);
  ETA_CHECK(it != ranges_.end());
  Range& r = it->second;

  const uint64_t chunk_pages = spec_.max_migration_bytes / spec_.page_bytes;
  double t = start_ms;
  uint64_t pages = r.state.size();
  for (uint64_t first = 0; first < pages; first += chunk_pages) {
    uint64_t last = std::min(first + chunk_pages, pages);
    uint64_t moving = 0;
    for (uint64_t p = first; p < last; ++p) {
      if (r.state[p] == PageState::kHost) ++moving;
    }
    if (moving == 0) continue;
    uint64_t bytes = moving * spec_.page_bytes;
    EnsureRoom(bytes);
    t += spec_.PcieMsForBytes(bytes);
    for (uint64_t p = first; p < last; ++p) {
      if (r.state[p] != PageState::kHost) continue;
      // In-flight pages occupy device room from the moment the prefetch is
      // queued; when the allocation oversubscribes the budget, EnsureRoom
      // above recycles the earliest chunks (LRU thrash, as on real UM).
      r.state[p] = PageState::kInFlight;
      r.arrival_ms[p] = static_cast<float>(t);
      resident_bytes_ += spec_.page_bytes;
      resident_fifo_.emplace_back(r.base, p);
    }
    migration_sizes_.Add(bytes);
  }
  return t;
}

}  // namespace eta::sim
