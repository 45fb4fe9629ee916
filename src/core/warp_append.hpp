// core::WarpAppend — the one cursor reservation shared by EtaGraph's kernels
// (the UDC transform, TraverseKernel's next-active append, hybrid BFS's
// frontier appends). It is the only place a core kernel applies an atomic to
// a cursor (scripts/lint.sh enforces it).
#pragma once

#include <bit>
#include <cstdint>

#include "sim/device.hpp"

namespace eta::core {

/// The one atomic of a warp-aggregated append: the lowest lane of `mask`
/// adds `total` to `cursors[cursor]`; returns the value it saw.
inline uint32_t LeaderAdd(sim::WarpCtx& w, sim::Buffer<uint32_t>& cursors, uint64_t cursor,
                          uint32_t total, uint32_t mask) {
  const uint32_t leader = static_cast<uint32_t>(std::countr_zero(mask));
  sim::LaneArray<uint64_t> idx;
  sim::LaneArray<uint32_t> val, old;
  idx[leader] = cursor;
  val[leader] = total;
  w.AtomicAdd(cursors, idx, val, 1u << leader, old);
  return old[leader];
}

/// Warp-aggregated append of one unit per lane of `mask` to the cursor
/// `cursors[cursor]`: the lowest lane of `mask` adds the warp's lane count
/// with one atomic, and lane i gets base + (number of lanes of `mask` below
/// i) in `slot` — the slots a per-lane AtomicAdd would hand out in lane
/// order. Charges the ballot, the popc of the lower lanes and the shfl of
/// the base (three ALU ops on `mask`) plus the single atomic.
inline void WarpAppend(sim::WarpCtx& w, sim::Buffer<uint32_t>& cursors, uint64_t cursor,
                       uint32_t mask, sim::LaneArray<uint32_t>& slot) {
  if (!mask) return;
  w.ChargeAlu(3, mask);
  uint32_t next =
      LeaderAdd(w, cursors, cursor, static_cast<uint32_t>(std::popcount(mask)), mask);
  sim::WarpCtx::ForActive(mask, [&](uint32_t lane) { slot[lane] = next++; });
}

/// Warp-aggregated append of `count[i]` consecutive slots per lane i of
/// `mask`: one atomic of the warp's total from the lowest lane of `mask`,
/// and lane i's first slot in `slot` is base + the exclusive prefix sum of
/// the counts of the lanes of `mask` below it. Charges a warp scan (five
/// shfl_up + add steps), the shfl of the total to the lowest lane and the
/// shfl of the base back (twelve ALU ops on `mask`) plus the single atomic.
/// The total wraps modulo 2^32, as the cursor itself does.
inline void WarpAppend(sim::WarpCtx& w, sim::Buffer<uint32_t>& cursors, uint64_t cursor,
                       const sim::LaneArray<uint32_t>& count, uint32_t mask,
                       sim::LaneArray<uint32_t>& slot) {
  if (!mask) return;
  w.ChargeAlu(2 * 5 + 2, mask);
  uint32_t prefix = 0;
  sim::WarpCtx::ForActive(mask, [&](uint32_t lane) {
    slot[lane] = prefix;
    prefix += count[lane];
  });
  const uint32_t base = LeaderAdd(w, cursors, cursor, prefix, mask);
  sim::WarpCtx::ForActive(mask, [&](uint32_t lane) { slot[lane] += base; });
}

}  // namespace eta::core
