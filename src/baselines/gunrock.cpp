#include "baselines/gunrock.hpp"

#include <algorithm>
#include <cmath>

#include "baselines/run_common.hpp"
#include "core/relax_step.hpp"
#include "sim/device.hpp"
#include "util/check.hpp"

namespace eta::baselines {

namespace {

using core::Algo;
using graph::EdgeId;
using graph::VertexId;
using graph::Weight;
using sim::Buffer;
using sim::kWarpSize;
using sim::LaneArray;
using sim::WarpCtx;

struct DeviceState {
  Buffer<EdgeId> row;
  Buffer<VertexId> col;
  Buffer<Weight> wts;
  Buffer<Weight> labels;
  Buffer<uint32_t> stamp;   // improved-this-iteration marks (set by advance)
  Buffer<uint32_t> qstamp;  // queued-this-iteration marks (set by filter)
  Buffer<VertexId> frontier[2];   // vertex frontiers (ping-pong)
  Buffer<VertexId> edge_raw[2];   // |E|-capacity expanded frontiers
  Buffer<EdgeId> scan;            // per-frontier-vertex scanned degrees
  Buffer<uint32_t> cursors;       // [0]=raw out, [1]=next vertex frontier
};

/// Host-side mirror of the advance decomposition: one (src, edge) pair per
/// work item. Rebuilt each iteration from the frontier.
struct WorkList {
  std::vector<VertexId> src;
  std::vector<EdgeId> edge;
  std::vector<uint32_t> segment;  // frontier slot owning the work item
};

/// Gunrock's advance: edge-parallel relaxation of every (src, edge) work
/// item of the frontier under semiring S.
template <class S>
void AdvanceKernel(WarpCtx& w, DeviceState& d, const WorkList& work, Buffer<VertexId>& raw,
                   uint32_t search_cost, uint32_t iter) {
  uint32_t mask = w.ActiveMask();
  if (!mask) return;
  uint64_t base = w.WarpId() * kWarpSize;

  // Sorted-search for each lane's owning frontier segment.
  LaneArray<uint64_t> seg_idx{};
  WarpCtx::ForActive(mask, [&](uint32_t lane) {
    seg_idx[lane] = work.segment[base + lane];
  });
  LaneArray<EdgeId> seg_off{};
  w.Gather(d.scan, seg_idx, mask, seg_off);
  w.ChargeAlu(search_cost, mask);

  LaneArray<uint64_t> src_idx{}, edge_idx{};
  WarpCtx::ForActive(mask, [&](uint32_t lane) {
    src_idx[lane] = work.src[base + lane];
    edge_idx[lane] = work.edge[base + lane];
  });
  LaneArray<Weight> src_label{};
  w.Gather(d.labels, src_idx, mask, src_label);
  LaneArray<VertexId> u{};
  w.Gather(d.col, edge_idx, mask, u);
  LaneArray<Weight> ew{};
  if (S::kWeighted) w.Gather(d.wts, edge_idx, mask, ew);

  LaneArray<uint64_t> u_idx{};
  LaneArray<Weight> cand{};
  WarpCtx::ForActive(mask, [&](uint32_t lane) {
    u_idx[lane] = u[lane];
    cand[lane] = S::Propagate(src_label[lane], ew[lane]);
  });
  if (const uint32_t cmask = core::RelaxStep<S>(w, d.labels, u_idx, cand, mask)) {
    LaneArray<uint32_t> next_mark{};
    next_mark.fill(iter + 1);
    LaneArray<uint32_t> prev{};
    w.AtomicMax(d.stamp, u_idx, next_mark, cmask, prev);
  }

  // Gunrock's advance emits the *entire* expanded neighbor list into the
  // output (edge) frontier; pruning is the filter's job.
  LaneArray<uint32_t> one{};
  one.fill(1);
  LaneArray<uint64_t> zero_idx{};
  LaneArray<uint32_t> slot{};
  w.AtomicAdd(d.cursors, zero_idx, one, mask, slot);
  LaneArray<uint64_t> slot_idx{};
  WarpCtx::ForActive(mask, [&](uint32_t lane) { slot_idx[lane] = slot[lane]; });
  w.Scatter(raw, slot_idx, u, mask);
}

}  // namespace

core::RunReport Gunrock::Run(const graph::Csr& csr, Algo algo, VertexId source) const {
  ETA_CHECK(source < csr.NumVertices());
  ETA_CHECK(!core::IsWeighted(algo) || csr.HasWeights());

  core::RunReport report;
  report.framework = "Gunrock";
  report.algo = algo;

  const VertexId n = csr.NumVertices();
  const EdgeId m = csr.NumEdges();
  const bool weighted = core::IsWeighted(algo);

  sim::Device device(options_.spec);
  DeviceState d;
  try {
    d.row = device.Alloc<EdgeId>(n + 1, sim::MemKind::kDevice, "row");
    d.col = device.Alloc<VertexId>(m, sim::MemKind::kDevice, "col");
    if (weighted) d.wts = device.Alloc<Weight>(m, sim::MemKind::kDevice, "weights");
    d.labels = device.Alloc<Weight>(n, sim::MemKind::kDevice, "labels");
    d.stamp = device.Alloc<uint32_t>(n, sim::MemKind::kDevice, "stamp");
    d.qstamp = device.Alloc<uint32_t>(n, sim::MemKind::kDevice, "qstamp");
    d.frontier[0] = device.Alloc<VertexId>(n, sim::MemKind::kDevice, "frontier_a");
    d.frontier[1] = device.Alloc<VertexId>(n, sim::MemKind::kDevice, "frontier_b");
    d.edge_raw[0] = device.Alloc<VertexId>(m, sim::MemKind::kDevice, "edge_raw_a");
    d.edge_raw[1] = device.Alloc<VertexId>(m, sim::MemKind::kDevice, "edge_raw_b");
    d.scan = device.Alloc<EdgeId>(n + 1, sim::MemKind::kDevice, "scan");
    d.cursors = device.Alloc<uint32_t>(2, sim::MemKind::kDevice, "cursors");
  } catch (const sim::OomError& e) {
    report.oom = true;
    report.oom_request_bytes = e.requested_bytes;
    return report;
  }
  report.device_bytes_peak = device.Mem().DeviceBytesUsed();

  device.CopyToDevice(d.row, csr.RowOffsets());
  device.CopyToDevice(d.col, csr.ColIndices());
  if (weighted) device.CopyToDevice(d.wts, csr.Weights());

  UploadInitLabels(device, d.labels, algo, source);
  const VertexId src_val[1] = {source};
  device.CopyToDeviceRange(d.frontier[0], 0, std::span<const VertexId>(src_val), false);
  const uint32_t one_val[1] = {1};
  device.CopyToDeviceRange(d.stamp, source, std::span<const uint32_t>(one_val), false);

  double kernel_ms = 0;
  uint32_t frontier_size = 1;
  uint32_t in_buf = 0;
  uint64_t activated_cum = 1;
  WorkList work;

  for (uint32_t iter = 1; frontier_size > 0 && iter <= options_.max_iterations; ++iter) {
    Buffer<VertexId>& fin = d.frontier[in_buf];
    Buffer<VertexId>& fout = d.frontier[in_buf ^ 1];
    Buffer<VertexId>& raw = d.edge_raw[iter & 1];

    // ---- Scan: per-frontier-vertex degree prefix (sizes the advance) ----
    auto scan_res = device.Launch(
        "gunrock_scan", {frontier_size, options_.block_size}, [&](WarpCtx& w) {
          uint32_t mask = w.ActiveMask();
          if (!mask) return;
          uint64_t base = w.WarpId() * kWarpSize;
          LaneArray<VertexId> v{};
          w.GatherContiguous(fin, base, mask, v);
          LaneArray<uint64_t> vi{}, vi1{};
          WarpCtx::ForActive(mask, [&](uint32_t lane) {
            vi[lane] = v[lane];
            vi1[lane] = v[lane] + 1;
          });
          LaneArray<EdgeId> s{}, e{};
          w.Gather(d.row, vi, mask, s);
          w.Gather(d.row, vi1, mask, e);
          w.ChargeAlu(3, mask);
          LaneArray<uint64_t> slot{};
          WarpCtx::ForActive(mask, [&](uint32_t lane) { slot[lane] = base + lane; });
          LaneArray<EdgeId> deg{};
          WarpCtx::ForActive(mask, [&](uint32_t lane) { deg[lane] = e[lane] - s[lane]; });
          w.Scatter(d.scan, slot, deg, mask);
        });
    kernel_ms += scan_res.compute_ms;

    // Host mirror of the decomposition (the device-side scan's result).
    auto fin_host = fin.HostSpan();
    work.src.clear();
    work.edge.clear();
    work.segment.clear();
    std::span<EdgeId> scan_host = d.scan.HostSpan();
    EdgeId running = 0;
    for (uint32_t i = 0; i < frontier_size; ++i) {
      VertexId v = fin_host[i];
      scan_host[i] = running;
      for (EdgeId e = csr.RowStart(v); e < csr.RowEnd(v); ++e) {
        work.src.push_back(v);
        work.edge.push_back(e);
        work.segment.push_back(i);
      }
      running += csr.OutDegree(v);
    }
    const uint64_t total_work = work.src.size();

    const uint32_t zeros[2] = {0, 0};
    device.CopyToDevice(d.cursors, std::span<const uint32_t>(zeros, 2), false);

    // ---- Advance: edge-parallel relaxation over the frontier ------------
    const uint32_t search_cost =
        std::max(1, static_cast<int>(std::ceil(std::log2(frontier_size + 1))));
    if (total_work > 0) {
      auto adv = core::WithSemiring(algo, [&]<class S>(S) {
        return device.Launch("gunrock_advance", {total_work, options_.block_size},
                             [&](WarpCtx& w) {
                               AdvanceKernel<S>(w, d, work, raw, search_cost, iter);
                             });
      });
      kernel_ms += adv.compute_ms;
    }

    uint32_t cursors_host[2] = {0, 0};
    device.CopyToHost(std::span<uint32_t>(cursors_host, 2), d.cursors, false);
    const uint32_t raw_count = cursors_host[0];

    // ---- Near/far partition (weighted only) -------------------------------
    // Gunrock's SSSP/SSWP enactor runs an extra pass over the expanded
    // frontier to split it into priority piles before filtering — one of
    // the reasons its weighted traversals are several times slower than its
    // BFS in the paper's Table III.
    if (weighted && raw_count > 0) {
      auto part = device.Launch(
          "gunrock_partition", {raw_count, options_.block_size}, [&](WarpCtx& w) {
            uint32_t mask = w.ActiveMask();
            if (!mask) return;
            uint64_t base = w.WarpId() * kWarpSize;
            LaneArray<VertexId> u{};
            w.GatherContiguous(raw, base, mask, u);
            LaneArray<uint64_t> u_idx{};
            WarpCtx::ForActive(mask, [&](uint32_t lane) { u_idx[lane] = u[lane]; });
            LaneArray<Weight> lab{};
            w.Gather(d.labels, u_idx, mask, lab);
            w.ChargeAlu(4, mask);
            LaneArray<uint64_t> slot{};
            WarpCtx::ForActive(mask, [&](uint32_t lane) { slot[lane] = base + lane; });
            w.Scatter(raw, slot, u, mask);  // pile writeback
          });
      kernel_ms += part.compute_ms;
    }

    // ---- Filter: deduplicate and compact the next vertex frontier --------
    if (raw_count > 0) {
      LaneArray<uint32_t> next_iter{};
      next_iter.fill(iter + 1);
      auto flt = device.Launch(
          "gunrock_filter", {raw_count, options_.block_size}, [&](WarpCtx& w) {
            uint32_t mask = w.ActiveMask();
            if (!mask) return;
            uint64_t base = w.WarpId() * kWarpSize;
            LaneArray<VertexId> u{};
            w.GatherContiguous(raw, base, mask, u);
            LaneArray<uint64_t> u_idx{};
            WarpCtx::ForActive(mask, [&](uint32_t lane) { u_idx[lane] = u[lane]; });
            // Keep only vertices the advance actually improved...
            LaneArray<uint32_t> improved{};
            w.Gather(d.stamp, u_idx, mask, improved);
            uint32_t pmask = 0;
            WarpCtx::ForActive(mask, [&](uint32_t lane) {
              if (improved[lane] == iter + 1) pmask |= 1u << lane;
            });
            w.ChargeAlu(1, mask);
            if (!pmask) return;
            // ...and deduplicate them into the next vertex frontier.
            LaneArray<uint32_t> prev{};
            w.AtomicMax(d.qstamp, u_idx, next_iter, pmask, prev);
            uint32_t nmask = 0;
            WarpCtx::ForActive(pmask, [&](uint32_t lane) {
              if (prev[lane] < iter + 1) nmask |= 1u << lane;
            });
            if (!nmask) return;
            LaneArray<uint32_t> one{};
            one.fill(1);
            LaneArray<uint64_t> one_idx{};
            one_idx.fill(1);
            LaneArray<uint32_t> slot{};
            w.AtomicAdd(d.cursors, one_idx, one, nmask, slot);
            LaneArray<uint64_t> slot_idx{};
            WarpCtx::ForActive(nmask, [&](uint32_t lane) { slot_idx[lane] = slot[lane]; });
            w.Scatter(fout, slot_idx, u, nmask);
          });
      kernel_ms += flt.compute_ms;
    }

    device.CopyToHost(std::span<uint32_t>(cursors_host, 2), d.cursors, false);
    uint64_t prev_frontier = frontier_size;
    frontier_size = cursors_host[1];
    activated_cum += frontier_size;
    report.iteration_stats.push_back(
        {iter, prev_frontier, 0, device.NowMs(), activated_cum});
    in_buf ^= 1;
  }

  FinishReport(device, d.labels, kernel_ms, report);
  return report;
}

}  // namespace eta::baselines
