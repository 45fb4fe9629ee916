// core::ForEachShadowEdge — the one SMP edge loop (Section V), shared by
// EtaGraph's TraverseKernel, hybrid BFS's top-down step and PageRank's push.
#pragma once

#include <algorithm>

#include "core/options.hpp"
#include "graph/types.hpp"
#include "sim/device.hpp"
#include "util/check.hpp"

namespace eta::core {

/// Walks edges [start[lane], start[lane] + deg[lane]) of every lane of
/// `mask`, one edge per lane per step, and calls body(jmask, u, ew) with the
/// lanes that still have an edge, their neighbour IDs and edge weights
/// (zero unless kWeighted). With `use_smp` it first bulk-fetches each lane's
/// first min(deg, k) neighbours (and weights) into the warp's shared-memory
/// partition and reads steps j < k from there; every other step is a global
/// Gather. Only a caller that does not cut degrees at k (hybrid BFS's
/// top-down step) passes a deg above k.
template <bool kWeighted, class Body>
void ForEachShadowEdge(sim::WarpCtx& w, const sim::Buffer<graph::VertexId>& col,
                       const sim::Buffer<graph::Weight>& wts,
                       const sim::LaneArray<graph::EdgeId>& start,
                       const sim::LaneArray<uint32_t>& deg, uint32_t mask, uint32_t k,
                       bool use_smp, Body&& body) {
  ETA_DCHECK(k >= 1 && k <= kMaxDegreeLimit);
  uint32_t max_deg = 0;
  sim::WarpCtx::ForActive(mask, [&](uint32_t lane) { max_deg = std::max(max_deg, deg[lane]); });

  // The shared-memory partition of this warp (functional stand-in; the
  // traffic is charged through GatherBulk / ChargeShared).
  uint32_t nbr_buf[sim::kWarpSize * kMaxDegreeLimit];
  uint32_t wgt_buf[kWeighted ? sim::kWarpSize * kMaxDegreeLimit : 1];
  if (use_smp) {
    sim::LaneArray<uint64_t> start64{};
    sim::LaneArray<uint32_t> count{};
    sim::WarpCtx::ForActive(mask, [&](uint32_t lane) {
      start64[lane] = start[lane];
      count[lane] = std::min(deg[lane], k);
    });
    w.GatherBulk(col, start64, count, mask, nbr_buf, k);
    if constexpr (kWeighted) w.GatherBulk(wts, start64, count, mask, wgt_buf, k);
  }

  for (uint32_t j = 0; j < max_deg; ++j) {
    uint32_t jmask = 0;
    sim::WarpCtx::ForActive(mask, [&](uint32_t lane) {
      if (j < deg[lane]) jmask |= 1u << lane;
    });
    if (!jmask) break;

    // `u` is written under jmask before any read under it, so it skips the
    // zero-fill; `ew` keeps it because unweighted semirings read it too.
    sim::LaneArray<graph::VertexId> u;
    sim::LaneArray<graph::Weight> ew{};
    if (use_smp && j < k) {
      sim::WarpCtx::ForActive(jmask, [&](uint32_t lane) {
        u[lane] = nbr_buf[lane * k + j];
        if constexpr (kWeighted) ew[lane] = wgt_buf[lane * k + j];
      });
      w.ChargeShared(kWeighted ? 2 : 1, jmask);
    } else {
      sim::LaneArray<uint64_t> eidx;
      sim::WarpCtx::ForActive(jmask, [&](uint32_t lane) { eidx[lane] = start[lane] + j; });
      w.Gather(col, eidx, jmask, u);
      if constexpr (kWeighted) w.Gather(wts, eidx, jmask, ew);
    }
    body(jmask, u, ew);
  }
}

}  // namespace eta::core
