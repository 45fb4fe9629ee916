#include "serve/scheduler.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace eta::serve {
namespace {
constexpr uint32_t kNoIndex = UINT32_MAX;
}  // namespace

bool QueryScheduler::EntryPopsAfter(const Entry& ea, const Entry& eb) const {
  if (ea.request.priority != eb.request.priority) {
    return ea.request.priority < eb.request.priority;
  }
  // EDF (DESIGN.md section 15): earliest effective deadline first within a
  // priority class. Off, this branch never reads the key: the order is
  // (priority desc, seq asc).
  if (edf_ && ea.edf_key != eb.edf_key) return ea.edf_key > eb.edf_key;
  return ea.seq > eb.seq;
}

bool QueryScheduler::PopsAfter(uint32_t a, uint32_t b) const {
  return EntryPopsAfter(entries_[a], entries_[b]);
}

bool QueryScheduler::Admit(const Request& request, double service_estimate_ms) {
  if (live_ >= capacity_) return false;
  const uint32_t index = static_cast<uint32_t>(entries_.size());
  // StartDeadline() is +inf for deadline-free requests, so their key stays
  // +inf and they order FIFO behind every deadlined peer of their class.
  entries_.push_back(
      {request, next_seq_++, request.StartDeadline() - service_estimate_ms, true});
  ++live_;
  peek_valid_ = false;
  std::vector<uint32_t>& lane = lanes_[LaneKey(request.algo, request.graph_id)];
  lane.push_back(index);
  std::push_heap(lane.begin(), lane.end(),
                 [this](uint32_t a, uint32_t b) { return PopsAfter(a, b); });
  return true;
}

std::vector<Request> QueryScheduler::ExpireDeadlines(double now_ms) {
  // entries_ is in admission order (compaction preserves it), so a forward
  // scan yields expired requests sorted by seq without an explicit sort.
  std::vector<Request> expired;
  for (Entry& e : entries_) {
    if (!e.live || !e.request.ExpiredAt(now_ms)) continue;
    expired.push_back(e.request);
    e.live = false;
    --live_;
  }
  if (!expired.empty()) {
    peek_valid_ = false;
    MaybeCompact();
  }
  return expired;
}

uint32_t QueryScheduler::PruneTop(std::vector<uint32_t>& lane) {
  auto after = [this](uint32_t a, uint32_t b) { return PopsAfter(a, b); };
  while (!lane.empty() && !entries_[lane.front()].live) {
    std::pop_heap(lane.begin(), lane.end(), after);
    lane.pop_back();
  }
  return lane.empty() ? kNoIndex : lane.front();
}

Request QueryScheduler::Take(uint32_t index) {
  Entry& e = entries_[index];
  ETA_CHECK(e.live);
  e.live = false;
  --live_;
  peek_valid_ = false;
  Request r = e.request;
  MaybeCompact();
  return r;
}

std::optional<Request> QueryScheduler::PopNext() {
  uint32_t best = kNoIndex;
  std::vector<uint32_t>* best_lane = nullptr;
  for (auto it = lanes_.begin(); it != lanes_.end();) {
    uint32_t top = PruneTop(it->second);
    if (top == kNoIndex) {
      it = lanes_.erase(it);
      continue;
    }
    if (best == kNoIndex || PopsAfter(best, top)) {
      best = top;
      best_lane = &it->second;
    }
    ++it;
  }
  if (best == kNoIndex) return std::nullopt;
  auto after = [this](uint32_t a, uint32_t b) { return PopsAfter(a, b); };
  std::pop_heap(best_lane->begin(), best_lane->end(), after);
  best_lane->pop_back();
  return Take(best);
}

std::optional<Request> QueryScheduler::PeekNext() const {
  // Const scan instead of the lane heaps (whose tops may be tombstones
  // that only a mutating prune can drop); same total order as PopsAfter
  // (EntryPopsAfter, EDF-aware). The result is memoized until the live set
  // mutates, so repeated idle-tick peeks are O(1).
  if (peek_valid_) return peek_cache_;
  const Entry* best = nullptr;
  for (const Entry& e : entries_) {
    if (!e.live) continue;
    if (best == nullptr || EntryPopsAfter(*best, e)) best = &e;
  }
  peek_cache_ = best == nullptr ? std::nullopt : std::optional<Request>(best->request);
  peek_valid_ = true;
  return peek_cache_;
}

std::vector<Request> QueryScheduler::PopCompatible(core::Algo algo, uint32_t graph_id,
                                                   uint32_t max_count) {
  std::vector<Request> result;
  auto it = lanes_.find(LaneKey(algo, graph_id));
  if (it == lanes_.end()) return result;
  auto after = [this](uint32_t a, uint32_t b) { return PopsAfter(a, b); };
  while (result.size() < max_count) {
    uint32_t top = PruneTop(it->second);
    if (top == kNoIndex) break;
    std::pop_heap(it->second.begin(), it->second.end(), after);
    it->second.pop_back();
    result.push_back(Take(top));
    // Take() may compact, invalidating the iterator's lane vector; re-find.
    it = lanes_.find(LaneKey(algo, graph_id));
    if (it == lanes_.end()) break;
  }
  return result;
}

void QueryScheduler::MaybeCompact() {
  if (entries_.size() < 64 || live_ * 2 > entries_.size()) return;
  std::vector<Entry> compacted;
  compacted.reserve(live_);
  for (const Entry& e : entries_) {
    if (e.live) compacted.push_back(e);
  }
  entries_ = std::move(compacted);
  lanes_.clear();
  auto after = [this](uint32_t a, uint32_t b) { return PopsAfter(a, b); };
  for (uint32_t i = 0; i < entries_.size(); ++i) {
    const Request& r = entries_[i].request;
    std::vector<uint32_t>& lane = lanes_[LaneKey(r.algo, r.graph_id)];
    lane.push_back(i);
    std::push_heap(lane.begin(), lane.end(), after);
  }
}

}  // namespace eta::serve
