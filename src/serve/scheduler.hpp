// QueryScheduler — bounded admission queue with priority + FIFO ordering
// and start-deadline expiry.
//
// Admission control happens at Admit(): a full queue rejects the request
// outright (the caller records QueryStatus::kRejected). Dispatch order is
// highest priority first, FIFO within a priority level. Requests whose
// queueing deadline passes before dispatch are swept out by
// ExpireDeadlines() and reported as timed out — an overloaded engine sheds
// load explicitly instead of building unbounded queues.
//
// Implementation: entries append to a stable store and dispatch through
// per-(algo, graph) binary heaps of store indices ordered by
// (priority desc, seq asc). Pops mark tombstones instead of erasing from
// the middle of a vector, so dispatch is O(log depth) amortized rather
// than O(depth) — the difference is visible at the queue depths a sharded
// fleet drains into one scheduler. The (priority, seq) order is a total
// order (seqs are unique), so pop order is exactly the order the previous
// scan-and-erase implementation produced.
//
// EDF mode (DESIGN.md section 15): with `edf` on, the order within a
// priority class becomes earliest effective deadline first — the request's
// start deadline minus the caller-supplied running-mean service estimate
// for its algorithm, frozen at admission so heap invariants (and double
// runs) hold. Priority-class precedence is preserved: gold never starves
// behind an earlier-deadline bronze. Requests without a deadline carry an
// infinite key and fall back to FIFO behind every deadlined peer of their
// class. With `edf` off the comparator never reads the key, so the pop
// order is plain (priority desc, seq asc).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "serve/types.hpp"

namespace eta::serve {

class QueryScheduler {
 public:
  explicit QueryScheduler(size_t capacity, bool edf = false)
      : capacity_(capacity), edf_(edf) {}

  /// Enqueues `request`; returns false (reject) if the queue is full.
  /// `service_estimate_ms` is the caller's running-mean service estimate
  /// for the request's algorithm at admission time — only read in EDF mode,
  /// where the effective deadline is StartDeadline() - estimate.
  bool Admit(const Request& request, double service_estimate_ms = 0);

  bool Empty() const { return live_ == 0; }
  size_t Depth() const { return live_; }

  /// Removes and returns every queued request that Request::ExpiredAt(now_ms)
  /// — i.e. whose start deadline lies strictly before `now_ms`; a request
  /// whose deadline equals `now_ms` stays queued and dispatchable. Returned
  /// in admission order.
  std::vector<Request> ExpireDeadlines(double now_ms);

  /// Pops the highest-priority (then oldest) request; nullopt when empty.
  std::optional<Request> PopNext();

  /// Returns (a copy of) the request PopNext would pop, without popping —
  /// what the async dispatcher's pre-staging looks at to decide which
  /// graph to stage on the copy stream while the compute engine is busy.
  std::optional<Request> PeekNext() const;

  /// Pops up to `max_count` queued requests running `algo` against
  /// `graph_id`, in priority/FIFO order — the batcher's fold operation.
  std::vector<Request> PopCompatible(core::Algo algo, uint32_t graph_id,
                                     uint32_t max_count);

 private:
  struct Entry {
    Request request;
    uint64_t seq = 0;  // admission order, the FIFO tiebreaker
    /// Effective deadline (StartDeadline - service estimate), frozen at
    /// admission; +inf for deadline-free requests. Ignored unless edf_.
    double edf_key = 0;
    bool live = false;
  };

  /// One dispatch lane per (graph, algo) pair, keyed so iteration order is
  /// deterministic. Lanes hold indices into entries_; dead indices are
  /// pruned lazily at the heap top.
  static uint64_t LaneKey(core::Algo algo, uint32_t graph_id) {
    return (uint64_t{graph_id} << 8) | static_cast<uint64_t>(algo);
  }

  /// Heap comparator: true when entry `a` must pop *after* entry `b`
  /// (std::push_heap keeps the best-to-pop entry at the front).
  bool PopsAfter(uint32_t a, uint32_t b) const;
  /// The same total order on entry references — shared by the lane heaps
  /// and PeekNext's const scan so every consumer agrees on pop order.
  bool EntryPopsAfter(const Entry& ea, const Entry& eb) const;

  /// Drops dead indices off the lane's top; returns the live top index or
  /// UINT32_MAX when the lane is empty (empty lanes are erased by callers).
  uint32_t PruneTop(std::vector<uint32_t>& lane);

  /// Removes entry `index` (already popped from its lane) from the store.
  Request Take(uint32_t index);

  /// Rebuilds the store and lanes without dead entries once tombstones
  /// dominate, keeping every per-pop cost amortized.
  void MaybeCompact();

  size_t capacity_;
  bool edf_ = false;
  uint64_t next_seq_ = 0;
  size_t live_ = 0;
  std::vector<Entry> entries_;
  std::map<uint64_t, std::vector<uint32_t>> lanes_;
  /// PeekNext memo, valid until the live set next mutates — the async
  /// dispatcher peeks once per shard per event-loop tick, which would
  /// otherwise rescan the whole store on every idle iteration.
  mutable bool peek_valid_ = false;
  mutable std::optional<Request> peek_cache_;
};

}  // namespace eta::serve
