#include "core/hybrid_bfs.hpp"

#include <algorithm>

#include "core/relax_step.hpp"
#include "core/shadow_edges.hpp"
#include "core/traversal.hpp"
#include "core/warp_append.hpp"

namespace eta::core {

using graph::EdgeId;
using graph::VertexId;
using graph::Weight;
using sim::Buffer;
using sim::kWarpSize;
using sim::LaneArray;
using sim::WarpCtx;

// The top-down claim is RelaxStep<BfsLevel> with candidate `iter`: during
// step `iter` every level is kInf or <= iter, so a lane improves exactly the
// unvisited vertices.
void TopDownKernel(WarpCtx& w, const Buffer<EdgeId>& row, const Buffer<VertexId>& col,
                   Buffer<Weight>& levels, const Buffer<VertexId>& frontier_in,
                   Buffer<VertexId>& frontier_out, Buffer<uint32_t>& cursors, uint32_t iter,
                   bool use_smp, uint32_t k) {
  uint32_t mask = w.ActiveMask();
  if (!mask) return;
  uint64_t base = w.WarpId() * kWarpSize;

  LaneArray<VertexId> v{};
  w.GatherContiguous(frontier_in, base, mask, v);
  LaneArray<uint64_t> vi{}, vi1{};
  WarpCtx::ForActive(mask, [&](uint32_t lane) {
    vi[lane] = v[lane];
    vi1[lane] = v[lane] + 1;
  });
  LaneArray<EdgeId> start{}, end{};
  w.Gather(row, vi, mask, start);
  w.Gather(row, vi1, mask, end);

  LaneArray<uint32_t> deg{};
  const uint32_t max_edges =
      static_cast<uint32_t>(std::min<uint64_t>(col.count, UINT32_MAX));
  WarpCtx::ForActive(mask, [&](uint32_t lane) {
    // Row offsets are device-resident and may be corrupt after an ECC
    // fault; no vertex has more edges than the graph, and an inverted
    // pair must not underflow into a ~2^32-long edge loop.
    deg[lane] =
        end[lane] > start[lane] ? std::min(end[lane] - start[lane], max_edges) : 0;
  });

  LaneArray<Weight> lvl{};
  lvl.fill(iter);

  ForEachShadowEdge<false>(
      w, col, Buffer<Weight>{}, start, deg, mask, k, use_smp,
      [&](uint32_t jmask, const LaneArray<VertexId>& u, const LaneArray<Weight>&) {
        LaneArray<uint64_t> u_idx{};
        WarpCtx::ForActive(jmask, [&](uint32_t lane) { u_idx[lane] = u[lane]; });
        const uint32_t cmask = RelaxStep<BfsLevel>(w, levels, u_idx, lvl, jmask);
        if (!cmask) return;
        LaneArray<uint32_t> slot{};
        WarpAppend(w, cursors, 0, cmask, slot);
        LaneArray<uint64_t> slot_idx{};
        WarpCtx::ForActive(cmask, [&](uint32_t lane) { slot_idx[lane] = slot[lane]; });
        w.Scatter(frontier_out, slot_idx, u, cmask);
      });
}

// Bottom-up lanes stop at the first frontier parent (early exit — the
// divergence mask shrinks as lanes claim parents).
void BottomUpKernel(WarpCtx& w, const Buffer<EdgeId>& trow, const Buffer<VertexId>& tcol,
                    Buffer<Weight>& levels, Buffer<uint32_t>& cursors, uint32_t iter) {
  uint32_t mask = w.ActiveMask();
  if (!mask) return;
  uint64_t base = w.WarpId() * kWarpSize;

  LaneArray<Weight> my_level{};
  w.GatherContiguous(levels, base, mask, my_level);
  uint32_t umask = 0;  // unvisited lanes
  WarpCtx::ForActive(mask, [&](uint32_t lane) {
    if (my_level[lane] == kInf) umask |= 1u << lane;
  });
  w.ChargeAlu(1, mask);
  if (!umask) return;

  LaneArray<EdgeId> start{}, end{};
  w.GatherContiguous(trow, base, umask, start);
  w.GatherContiguous(trow, base + 1, umask, end);
  LaneArray<uint32_t> deg{};
  uint32_t max_deg = 0;
  const uint32_t max_edges =
      static_cast<uint32_t>(std::min<uint64_t>(tcol.count, UINT32_MAX));
  WarpCtx::ForActive(umask, [&](uint32_t lane) {
    // Same clamp as the top-down step: the transpose's offsets are
    // device-resident too.
    deg[lane] =
        end[lane] > start[lane] ? std::min(end[lane] - start[lane], max_edges) : 0;
    max_deg = std::max(max_deg, deg[lane]);
  });

  uint32_t active = umask;
  for (uint32_t j = 0; j < max_deg && active; ++j) {
    uint32_t jmask = 0;
    WarpCtx::ForActive(active, [&](uint32_t lane) {
      if (j < deg[lane]) jmask |= 1u << lane;
    });
    if (!jmask) break;
    LaneArray<uint64_t> eidx{};
    WarpCtx::ForActive(jmask, [&](uint32_t lane) { eidx[lane] = start[lane] + j; });
    LaneArray<VertexId> parent{};
    w.Gather(tcol, eidx, jmask, parent);
    LaneArray<uint64_t> p_idx{};
    WarpCtx::ForActive(jmask, [&](uint32_t lane) { p_idx[lane] = parent[lane]; });
    LaneArray<Weight> p_level{};
    w.Gather(levels, p_idx, jmask, p_level);
    w.ChargeAlu(2, jmask);

    uint32_t claim = 0;
    WarpCtx::ForActive(jmask, [&](uint32_t lane) {
      if (p_level[lane] == iter - 1) claim |= 1u << lane;
    });
    if (!claim) continue;
    // Relaxed store: each vertex is owned by exactly one thread in pull
    // mode, but other threads concurrently Gather levels for their parent
    // checks — the single-writer protocol a real kernel would express with
    // a volatile/st.relaxed store, declared here so racecheck knows it is
    // the design, not a dropped atomic.
    LaneArray<uint64_t> self{};
    LaneArray<Weight> lvl{};
    WarpCtx::ForActive(claim, [&](uint32_t lane) {
      self[lane] = base + lane;
      lvl[lane] = iter;
    });
    w.ScatterRelaxed(levels, self, lvl, claim);
    LaneArray<uint32_t> dummy{};
    WarpAppend(w, cursors, 0, claim, dummy);
    active &= ~claim;  // early exit for claimed lanes
  }
}

void CompactKernel(WarpCtx& w, const Buffer<Weight>& levels, Buffer<VertexId>& frontier,
                   Buffer<uint32_t>& cursors, uint32_t iter) {
  uint32_t mask = w.ActiveMask();
  if (!mask) return;
  uint64_t base = w.WarpId() * kWarpSize;
  LaneArray<Weight> level{};
  w.GatherContiguous(levels, base, mask, level);
  uint32_t fmask = 0;
  WarpCtx::ForActive(mask, [&](uint32_t lane) {
    if (level[lane] == iter) fmask |= 1u << lane;
  });
  w.ChargeAlu(1, mask);
  if (!fmask) return;
  LaneArray<uint32_t> slot{};
  WarpAppend(w, cursors, 0, fmask, slot);
  LaneArray<uint64_t> slot_idx{};
  LaneArray<VertexId> self{};
  WarpCtx::ForActive(fmask, [&](uint32_t lane) {
    slot_idx[lane] = slot[lane];
    self[lane] = static_cast<VertexId>(base + lane);
  });
  w.Scatter(frontier, slot_idx, self, fmask);
}

}  // namespace eta::core
