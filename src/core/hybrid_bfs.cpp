#include "core/hybrid_bfs.hpp"

#include <algorithm>

#include "core/relax_step.hpp"
#include "core/shadow_edges.hpp"
#include "core/traversal.hpp"
#include "core/warp_append.hpp"
#include "sanitizer/sanitizer.hpp"
#include "sim/device.hpp"
#include "util/check.hpp"

namespace eta::core {

namespace {

using graph::EdgeId;
using graph::VertexId;
using graph::Weight;
using sim::Buffer;
using sim::kWarpSize;
using sim::LaneArray;
using sim::WarpCtx;

struct BfsState {
  Buffer<EdgeId> row;      // out-edges
  Buffer<VertexId> col;
  Buffer<EdgeId> trow;     // in-edges (transpose)
  Buffer<VertexId> tcol;
  Buffer<Weight> levels;
  Buffer<VertexId> frontier_in;   // top-down worklist (read side)
  Buffer<VertexId> frontier_out;  // append side; swapped each iteration
  Buffer<uint32_t> counters;      // [0] = next frontier size / newly visited
};

/// Top-down step: one thread per frontier vertex; push through out-edges.
/// Its degree is not cut at K: SMP stages the first K neighbours and longer
/// lists fall back to direct loads. The claim is RelaxStep<BfsLevel> with
/// candidate `iter`: during step `iter` every level is kInf or <= iter, so a
/// lane improves exactly the unvisited vertices.
void TopDownKernel(WarpCtx& w, BfsState& d, uint32_t iter, bool use_smp, uint32_t k) {
  uint32_t mask = w.ActiveMask();
  if (!mask) return;
  uint64_t base = w.WarpId() * kWarpSize;

  LaneArray<VertexId> v{};
  w.GatherContiguous(d.frontier_in, base, mask, v);
  LaneArray<uint64_t> vi{}, vi1{};
  WarpCtx::ForActive(mask, [&](uint32_t lane) {
    vi[lane] = v[lane];
    vi1[lane] = v[lane] + 1;
  });
  LaneArray<EdgeId> start{}, end{};
  w.Gather(d.row, vi, mask, start);
  w.Gather(d.row, vi1, mask, end);

  LaneArray<uint32_t> deg{};
  const uint32_t max_edges =
      static_cast<uint32_t>(std::min<uint64_t>(d.col.count, UINT32_MAX));
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
      w, d.col, Buffer<Weight>{}, start, deg, mask, k, use_smp,
      [&](uint32_t jmask, const LaneArray<VertexId>& u, const LaneArray<Weight>&) {
        LaneArray<uint64_t> u_idx{};
        WarpCtx::ForActive(jmask, [&](uint32_t lane) { u_idx[lane] = u[lane]; });
        const uint32_t cmask = RelaxStep<BfsLevel>(w, d.levels, u_idx, lvl, jmask);
        if (!cmask) return;
        LaneArray<uint32_t> slot{};
        WarpAppend(w, d.counters, 0, cmask, slot);
        LaneArray<uint64_t> slot_idx{};
        WarpCtx::ForActive(cmask, [&](uint32_t lane) { slot_idx[lane] = slot[lane]; });
        w.Scatter(d.frontier_out, slot_idx, u, cmask);
      });
}

/// Bottom-up step: one thread per vertex; unvisited vertices scan their
/// in-neighbors and stop at the first frontier parent (early exit — the
/// divergence mask shrinks as lanes claim parents).
void BottomUpKernel(WarpCtx& w, BfsState& d, uint32_t iter) {
  uint32_t mask = w.ActiveMask();
  if (!mask) return;
  uint64_t base = w.WarpId() * kWarpSize;

  LaneArray<Weight> my_level{};
  w.GatherContiguous(d.levels, base, mask, my_level);
  uint32_t umask = 0;  // unvisited lanes
  WarpCtx::ForActive(mask, [&](uint32_t lane) {
    if (my_level[lane] == kInf) umask |= 1u << lane;
  });
  w.ChargeAlu(1, mask);
  if (!umask) return;

  LaneArray<EdgeId> start{}, end{};
  w.GatherContiguous(d.trow, base, umask, start);
  w.GatherContiguous(d.trow, base + 1, umask, end);
  LaneArray<uint32_t> deg{};
  uint32_t max_deg = 0;
  WarpCtx::ForActive(umask, [&](uint32_t lane) {
    deg[lane] = end[lane] - start[lane];
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
    w.Gather(d.tcol, eidx, jmask, parent);
    LaneArray<uint64_t> p_idx{};
    WarpCtx::ForActive(jmask, [&](uint32_t lane) { p_idx[lane] = parent[lane]; });
    LaneArray<Weight> p_level{};
    w.Gather(d.levels, p_idx, jmask, p_level);
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
    w.ScatterRelaxed(d.levels, self, lvl, claim);
    LaneArray<uint32_t> dummy{};
    WarpAppend(w, d.counters, 0, claim, dummy);
    active &= ~claim;  // early exit for claimed lanes
  }
}

/// Frontier rebuild after pull mode: compact vertices at `level == iter`
/// back into the worklist for the next top-down step.
void CompactKernel(WarpCtx& w, BfsState& d, uint32_t iter) {
  uint32_t mask = w.ActiveMask();
  if (!mask) return;
  uint64_t base = w.WarpId() * kWarpSize;
  LaneArray<Weight> level{};
  w.GatherContiguous(d.levels, base, mask, level);
  uint32_t fmask = 0;
  WarpCtx::ForActive(mask, [&](uint32_t lane) {
    if (level[lane] == iter) fmask |= 1u << lane;
  });
  w.ChargeAlu(1, mask);
  if (!fmask) return;
  LaneArray<uint32_t> slot{};
  WarpAppend(w, d.counters, 0, fmask, slot);
  LaneArray<uint64_t> slot_idx{};
  LaneArray<VertexId> self{};
  WarpCtx::ForActive(fmask, [&](uint32_t lane) {
    slot_idx[lane] = slot[lane];
    self[lane] = static_cast<VertexId>(base + lane);
  });
  w.Scatter(d.frontier_in, slot_idx, self, fmask);
}

}  // namespace

HybridBfsResult RunHybridBfs(const graph::Csr& csr, VertexId source,
                             const HybridBfsOptions& options) {
  ETA_CHECK(source < csr.NumVertices());
  ETA_CHECK(options.degree_limit >= 1 && options.degree_limit <= kMaxDegreeLimit);

  HybridBfsResult result;
  const VertexId n = csr.NumVertices();
  const EdgeId m = csr.NumEdges();

  // Preprocessing (untimed, like every framework's format conversion).
  graph::Csr transpose = csr.Transpose();

  sanitizer::Sanitizer checker(options.check);
  sim::Device device(options.spec);
  if (options.check.Enabled()) device.SetObserver(&checker);
  BfsState d;
  try {
    d.row = device.Alloc<EdgeId>(n + 1, sim::MemKind::kUnified, "row");
    d.col = device.Alloc<VertexId>(m, sim::MemKind::kUnified, "col");
    d.trow = device.Alloc<EdgeId>(n + 1, sim::MemKind::kUnified, "trow");
    d.tcol = device.Alloc<VertexId>(m, sim::MemKind::kUnified, "tcol");
    d.levels = device.Alloc<Weight>(n, sim::MemKind::kDevice, "levels");
    d.frontier_in = device.Alloc<VertexId>(n, sim::MemKind::kDevice, "frontier_in");
    d.frontier_out = device.Alloc<VertexId>(n, sim::MemKind::kDevice, "frontier_out");
    d.counters = device.Alloc<uint32_t>(1, sim::MemKind::kDevice, "counters");
  } catch (const sim::OomError&) {
    result.oom = true;
    return result;
  }

  std::copy(csr.RowOffsets().begin(), csr.RowOffsets().end(), d.row.HostSpan().begin());
  std::copy(csr.ColIndices().begin(), csr.ColIndices().end(), d.col.HostSpan().begin());
  std::copy(transpose.RowOffsets().begin(), transpose.RowOffsets().end(),
            d.trow.HostSpan().begin());
  std::copy(transpose.ColIndices().begin(), transpose.ColIndices().end(),
            d.tcol.HostSpan().begin());
  device.MarkHostInitialized(d.row);
  device.MarkHostInitialized(d.col);
  device.MarkHostInitialized(d.trow);
  device.MarkHostInitialized(d.tcol);

  std::vector<Weight> init(n, kInf);
  init[source] = 0;
  device.CopyToDevice(d.levels, std::span<const Weight>(init));
  const VertexId src_val[1] = {source};
  device.CopyToDeviceRange(d.frontier_in, 0, std::span<const VertexId>(src_val), false);
  device.PrefetchAsync(d.row);
  device.PrefetchAsync(d.col);

  bool prefetched_transpose = false;
  bool bottom_up = false;
  uint32_t frontier_size = 1;
  const uint32_t zero[1] = {0};
  double kernel_ms = 0;

  for (uint32_t iter = 1; frontier_size > 0 && iter <= options.max_iterations; ++iter) {
    // Beamer's direction heuristic on frontier size.
    bool want_bottom_up = frontier_size > n / options.alpha;
    bool want_top_down = frontier_size < n / options.beta;
    if (!bottom_up && want_bottom_up) {
      bottom_up = true;
      if (!prefetched_transpose) {
        device.PrefetchAsync(d.trow);
        device.PrefetchAsync(d.tcol);
        prefetched_transpose = true;
      }
    } else if (bottom_up && want_top_down) {
      bottom_up = false;
      // Rebuild the worklist from the level array.
      device.CopyToDevice(d.counters, std::span<const uint32_t>(zero, 1), false);
      auto r = device.Launch("bfs_compact", {n, options.block_size},
                             [&](WarpCtx& w) { CompactKernel(w, d, iter - 1); });
      kernel_ms += r.compute_ms;
      uint32_t rebuilt = 0;
      device.CopyToHost(std::span<uint32_t>(&rebuilt, 1), d.counters, false);
      ETA_CHECK(rebuilt == frontier_size);
    }

    device.CopyToDevice(d.counters, std::span<const uint32_t>(zero, 1), false);
    if (bottom_up) {
      auto r = device.Launch("bfs_bottom_up", {n, options.block_size},
                             [&](WarpCtx& w) { BottomUpKernel(w, d, iter); });
      kernel_ms += r.compute_ms;
      ++result.bottom_up_iterations;
    } else {
      auto r = device.Launch(
          "bfs_top_down", {frontier_size, options.block_size}, [&](WarpCtx& w) {
            TopDownKernel(w, d, iter, options.use_smp, options.degree_limit);
          });
      kernel_ms += r.compute_ms;
    }
    device.CopyToHost(std::span<uint32_t>(&frontier_size, 1), d.counters, false);
    if (!bottom_up) std::swap(d.frontier_in, d.frontier_out);
    ++result.iterations;
  }

  device.Synchronize();
  result.levels.resize(n);
  device.CopyToHost(std::span<Weight>(result.levels), d.levels);
  result.kernel_ms = kernel_ms;
  result.total_ms = device.NowMs();
  result.counters = device.TotalCounters();
  if (options.check.Enabled()) result.check = checker.Report();
  return result;
}

}  // namespace eta::core
