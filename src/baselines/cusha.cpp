#include "baselines/cusha.hpp"

#include <algorithm>
#include <numeric>

#include "baselines/run_common.hpp"
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
  // Shard-ordered, |E|-sized arrays (the G-Shards layout).
  Buffer<VertexId> shard_src;
  Buffer<VertexId> shard_dst;
  Buffer<Weight> shard_w;
  Buffer<Weight> src_val;   // per-edge source-value snapshot
  Buffer<Weight> dst_val;   // per-edge update slot (reduced into windows)
  Buffer<VertexId> cw_map;  // concatenated-windows refresh mapping
  // Update staging: CuSha's shards emit (window index, value) update pairs
  // that the apply phase reduces; both arrays are |E|-sized.
  Buffer<VertexId> update_idx;
  Buffer<Weight> update_val;
  Buffer<Weight> labels;
  Buffer<uint32_t> changed;
};

/// Shard relaxation: one thread per shard edge streams its source-value
/// snapshot, destination and weight, and relaxes the destination window
/// (held in shared memory) under semiring S. Counts improved lanes into
/// `improvements`.
template <class S>
void ShardRelaxKernel(WarpCtx& w, DeviceState& d, std::span<Weight> labels_host,
                      uint64_t& improvements) {
  uint32_t mask = w.ActiveMask();
  if (!mask) return;
  uint64_t base = w.WarpId() * kWarpSize;
  LaneArray<Weight> sval{};
  w.GatherContiguous(d.src_val, base, mask, sval);
  LaneArray<VertexId> dst{};
  w.GatherContiguous(d.shard_dst, base, mask, dst);
  LaneArray<Weight> ew{};
  if (S::kWeighted) w.GatherContiguous(d.shard_w, base, mask, ew);
  w.ChargeAlu(2, mask);

  // Compare/update against the shard's destination window, which the block
  // holds in shared memory.
  uint32_t imask = 0;
  LaneArray<Weight> cand{};
  WarpCtx::ForActive(mask, [&](uint32_t lane) {
    if (!S::Reached(sval[lane])) return;
    cand[lane] = S::Propagate(sval[lane], ew[lane]);
    if (S::Improves(cand[lane], labels_host[dst[lane]])) imask |= 1u << lane;
  });
  w.ChargeShared(1, mask);
  if (!imask) return;
  w.ChargeShared(1, imask);
  WarpCtx::ForActive(imask, [&](uint32_t lane) {
    labels_host[dst[lane]] = cand[lane];  // shared-memory reduction
    ++improvements;
  });
  // One flag store per warp that saw an improvement.
  LaneArray<uint64_t> zero_idx{};
  LaneArray<uint32_t> one{};
  one.fill(1);
  LaneArray<uint32_t> dummy{};
  uint32_t first = static_cast<uint32_t>(std::countr_zero(imask));
  w.AtomicAdd(d.changed, zero_idx, one, 1u << first, dummy);
}

}  // namespace

Cusha::Shards Cusha::BuildShards(const graph::Csr& csr, uint32_t window_vertices) {
  ETA_CHECK(window_vertices >= 1);
  // Stable counting sort by destination window over CSR order: CSR rows
  // come in source order, so each window's bucket is filled ordered by
  // source, and within a source by destination (rows not sorted by
  // destination are visited in stable destination order). O(|E| + windows).
  Shards shards;
  const EdgeId m = csr.NumEdges();
  const VertexId n = csr.NumVertices();
  const std::span<const VertexId> col = csr.ColIndices();
  const std::span<const Weight> wts = csr.Weights();
  const bool weighted = csr.HasWeights();
  const uint32_t num_windows = (n + window_vertices - 1) / window_vertices;
  shards.shard_start.assign(num_windows + 1, 0);
  for (VertexId u : col) ++shards.shard_start[u / window_vertices + 1];
  for (uint32_t win = 0; win < num_windows; ++win) {
    shards.shard_start[win + 1] += shards.shard_start[win];
  }
  shards.src.resize(m);
  shards.dst.resize(m);
  if (weighted) shards.weight.resize(m);
  std::vector<EdgeId> cursor(shards.shard_start.begin(), shards.shard_start.end() - 1);
  std::vector<EdgeId> row_order;
  auto place = [&](VertexId v, EdgeId e) {
    const EdgeId slot = cursor[col[e] / window_vertices]++;
    shards.src[slot] = v;
    shards.dst[slot] = col[e];
    if (weighted) shards.weight[slot] = wts[e];
  };
  for (VertexId v = 0; v < n; ++v) {
    const EdgeId begin = csr.RowStart(v), end = csr.RowEnd(v);
    if (std::is_sorted(col.begin() + begin, col.begin() + end)) {
      for (EdgeId e = begin; e < end; ++e) place(v, e);
      continue;
    }
    row_order.resize(end - begin);
    std::iota(row_order.begin(), row_order.end(), begin);
    std::stable_sort(row_order.begin(), row_order.end(),
                     [&](EdgeId a, EdgeId b) { return col[a] < col[b]; });
    for (EdgeId e : row_order) place(v, e);
  }
  return shards;
}

core::RunReport Cusha::Run(const graph::Csr& csr, Algo algo, VertexId source) const {
  ETA_CHECK(source < csr.NumVertices());
  ETA_CHECK(!core::IsWeighted(algo) || csr.HasWeights());

  core::RunReport report;
  report.framework = "CuSha";
  report.algo = algo;

  const VertexId n = csr.NumVertices();
  const EdgeId m = csr.NumEdges();
  const bool weighted = core::IsWeighted(algo);

  sim::Device device(options_.spec);
  DeviceState d;
  try {
    d.shard_src = device.Alloc<VertexId>(m, sim::MemKind::kDevice, "shard_src");
    d.shard_dst = device.Alloc<VertexId>(m, sim::MemKind::kDevice, "shard_dst");
    if (weighted) d.shard_w = device.Alloc<Weight>(m, sim::MemKind::kDevice, "shard_w");
    d.src_val = device.Alloc<Weight>(m, sim::MemKind::kDevice, "src_val");
    d.dst_val = device.Alloc<Weight>(m, sim::MemKind::kDevice, "dst_val");
    d.cw_map = device.Alloc<VertexId>(m, sim::MemKind::kDevice, "cw_map");
    d.update_idx = device.Alloc<VertexId>(m, sim::MemKind::kDevice, "update_idx");
    d.update_val = device.Alloc<Weight>(m, sim::MemKind::kDevice, "update_val");
    d.labels = device.Alloc<Weight>(n, sim::MemKind::kDevice, "labels");
    d.changed = device.Alloc<uint32_t>(1, sim::MemKind::kDevice, "changed");
  } catch (const sim::OomError& e) {
    report.oom = true;
    report.oom_request_bytes = e.requested_bytes;
    return report;
  }
  report.device_bytes_peak = device.Mem().DeviceBytesUsed();

  // Preprocessing (untimed, as in the paper) runs only once the G-Shards
  // fit: the allocation sizes depend on n, m and the algorithm alone.
  const Shards shards = BuildShards(csr, options_.window_vertices);
  device.CopyToDevice(d.shard_src, std::span<const VertexId>(shards.src));
  device.CopyToDevice(d.shard_dst, std::span<const VertexId>(shards.dst));
  if (weighted) device.CopyToDevice(d.shard_w, std::span<const Weight>(shards.weight));
  device.CopyToDevice(d.cw_map, std::span<const VertexId>(shards.src));  // CW order

  UploadInitLabels(device, d.labels, algo, source);

  std::span<Weight> labels_host = d.labels.HostSpan();
  double kernel_ms = 0;
  uint64_t activated_cum = 1;
  uint32_t changed = 1;
  const uint32_t zero[1] = {0};

  for (uint32_t iter = 1; changed > 0 && iter <= options_.max_iterations; ++iter) {
    device.CopyToDevice(d.changed, std::span<const uint32_t>(zero, 1), false);

    // ---- CW refresh: snapshot source values into the shards --------------
    // The concatenated-windows layout makes both the read of the vertex
    // values and the write into the shard-local array coalesced.
    auto refresh = device.Launch(
        "cusha_refresh", {m, options_.block_size}, [&](WarpCtx& w) {
          uint32_t mask = w.ActiveMask();
          if (!mask) return;
          uint64_t base = w.WarpId() * kWarpSize;
          LaneArray<Weight> vals{};
          // Coalesced read through the CW window (modeled as a contiguous
          // stream over the remapped value array).
          w.GatherContiguous(d.cw_map, base, mask, vals);
          w.ChargeAlu(1, mask);
          LaneArray<uint64_t> slot{};
          WarpCtx::ForActive(mask, [&](uint32_t lane) {
            slot[lane] = base + lane;
            vals[lane] = labels_host[shards.src[base + lane]];  // functional
          });
          w.Scatter(d.src_val, slot, vals, mask);
        });
    kernel_ms += refresh.compute_ms;

    // ---- Shard relaxation: stream every edge ------------------------------
    uint64_t improvements = 0;
    auto relax = core::WithSemiring(algo, [&]<class S>(S) {
      return device.Launch("cusha_relax", {m, options_.block_size}, [&](WarpCtx& w) {
        ShardRelaxKernel<S>(w, d, labels_host, improvements);
      });
    });
    kernel_ms += relax.compute_ms;

    // ---- Window apply: write reduced windows back to global values -------
    // Labels were already updated functionally through the shared-memory
    // model above, so this kernel only charges the read-window /
    // write-back traffic (one contiguous pass each way over the vertex
    // values) against a staging buffer.
    auto apply = device.Launch(
        "cusha_apply", {n, options_.block_size}, [&](WarpCtx& w) {
          uint32_t mask = w.ActiveMask();
          if (!mask) return;
          uint64_t base = w.WarpId() * kWarpSize;
          LaneArray<Weight> vals{};
          w.GatherContiguous(d.labels, base, mask, vals);
          LaneArray<uint64_t> slot{};
          WarpCtx::ForActive(mask, [&](uint32_t lane) { slot[lane] = base + lane; });
          w.Scatter(d.dst_val, slot, vals, mask);
        });
    kernel_ms += apply.compute_ms;

    device.CopyToHost(std::span<uint32_t>(&changed, 1), d.changed, false);
    activated_cum += improvements;
    report.iteration_stats.push_back(
        {iter, improvements, 0, device.NowMs(), activated_cum});
  }

  FinishReport(device, d.labels, kernel_ms, report);
  return report;
}

}  // namespace eta::baselines
