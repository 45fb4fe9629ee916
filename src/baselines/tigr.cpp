#include "baselines/tigr.hpp"

#include <algorithm>

#include "baselines/run_common.hpp"
#include "core/relax_step.hpp"
#include "graph/space_model.hpp"
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
  Buffer<EdgeId> virt_offsets;   // N+1
  Buffer<VertexId> virt_owner;   // N
  Buffer<VertexId> col;          // |E| (a transformed copy, Section III-A)
  Buffer<Weight> wts;
  Buffer<Weight> labels;
  Buffer<uint32_t> stamp;        // activity stamps (== iter means active)
  Buffer<uint32_t> act_counter;
};

/// One thread per virtual node, every iteration. Inactive virtual nodes
/// cost two loads (owner + activity check) and retire. S is the label
/// semiring, fixed per launch.
template <class S>
void TigrKernel(WarpCtx& w, DeviceState& d, uint32_t iter) {
  uint32_t mask = w.ActiveMask();
  if (!mask) return;
  uint64_t base = w.WarpId() * kWarpSize;

  LaneArray<VertexId> owner{};
  w.GatherContiguous(d.virt_owner, base, mask, owner);
  LaneArray<uint64_t> owner_idx{};
  WarpCtx::ForActive(mask, [&](uint32_t lane) { owner_idx[lane] = owner[lane]; });

  LaneArray<uint32_t> flag{};
  w.Gather(d.stamp, owner_idx, mask, flag);
  w.ChargeAlu(1, mask);

  uint32_t amask = 0;
  WarpCtx::ForActive(mask, [&](uint32_t lane) {
    if (flag[lane] == iter) amask |= 1u << lane;
  });
  if (!amask) return;

  LaneArray<EdgeId> start{}, end{};
  w.GatherContiguous(d.virt_offsets, base, amask, start);
  w.GatherContiguous(d.virt_offsets, base + 1, amask, end);

  LaneArray<Weight> src_label{};
  w.Gather(d.labels, owner_idx, amask, src_label);

  LaneArray<uint32_t> deg{};
  uint32_t max_deg = 0;
  WarpCtx::ForActive(amask, [&](uint32_t lane) {
    deg[lane] = end[lane] - start[lane];
    max_deg = std::max(max_deg, deg[lane]);
  });

  LaneArray<uint32_t> one{};
  one.fill(1);
  LaneArray<uint64_t> zero_idx{};
  LaneArray<uint32_t> next_iter{};
  next_iter.fill(iter + 1);

  for (uint32_t j = 0; j < max_deg; ++j) {
    uint32_t jmask = 0;
    WarpCtx::ForActive(amask, [&](uint32_t lane) {
      if (j < deg[lane]) jmask |= 1u << lane;
    });
    if (!jmask) break;

    LaneArray<uint64_t> eidx{};
    WarpCtx::ForActive(jmask, [&](uint32_t lane) { eidx[lane] = start[lane] + j; });
    LaneArray<VertexId> u{};
    LaneArray<Weight> ew{};
    w.Gather(d.col, eidx, jmask, u);
    if (S::kWeighted) w.Gather(d.wts, eidx, jmask, ew);

    LaneArray<uint64_t> u_idx{};
    LaneArray<Weight> cand{};
    WarpCtx::ForActive(jmask, [&](uint32_t lane) {
      u_idx[lane] = u[lane];
      cand[lane] = S::Propagate(src_label[lane], ew[lane]);
    });
    const uint32_t cmask = core::RelaxStep<S>(w, d.labels, u_idx, cand, jmask);
    if (!cmask) continue;

    LaneArray<uint32_t> prev{};
    w.AtomicMax(d.stamp, u_idx, next_iter, cmask, prev);
    uint32_t nmask = 0;
    WarpCtx::ForActive(cmask, [&](uint32_t lane) {
      if (prev[lane] < iter + 1) nmask |= 1u << lane;
    });
    if (!nmask) continue;
    LaneArray<uint32_t> dummy{};
    w.AtomicAdd(d.act_counter, zero_idx, one, nmask, dummy);
  }
}

}  // namespace

Tigr::Vst Tigr::BuildVst(const graph::Csr& csr, uint32_t split_degree) {
  ETA_CHECK(split_degree >= 1);
  Vst vst;
  // Out-of-core transform: a full pass over the graph in host memory,
  // emitting one (offset, owner) pair per virtual node.
  for (VertexId v = 0; v < csr.NumVertices(); ++v) {
    EdgeId start = csr.RowStart(v), end = csr.RowEnd(v);
    for (EdgeId s = start; s < end; s += split_degree) {
      vst.offsets.push_back(s);
      vst.owner.push_back(v);
    }
  }
  vst.offsets.push_back(csr.NumEdges());
  return vst;
}

core::RunReport Tigr::Run(const graph::Csr& csr, Algo algo, VertexId source) const {
  ETA_CHECK(source < csr.NumVertices());
  ETA_CHECK(!core::IsWeighted(algo) || csr.HasWeights());

  core::RunReport report;
  report.framework = "Tigr";
  report.algo = algo;

  const VertexId n = csr.NumVertices();
  const EdgeId m = csr.NumEdges();
  const bool weighted = core::IsWeighted(algo);

  // The VST's size is known from the degrees alone (O(n)), so the
  // allocations are made before any transform work.
  const uint64_t num_virtual = graph::CountShadowVertices(csr, options_.split_degree);

  sim::Device device(options_.spec);
  DeviceState d;
  try {
    d.virt_offsets = device.Alloc<EdgeId>(num_virtual + 1, sim::MemKind::kDevice, "vst_off");
    d.virt_owner = device.Alloc<VertexId>(num_virtual, sim::MemKind::kDevice, "vst_owner");
    d.col = device.Alloc<VertexId>(m, sim::MemKind::kDevice, "col");
    if (weighted) d.wts = device.Alloc<Weight>(m, sim::MemKind::kDevice, "weights");
    d.labels = device.Alloc<Weight>(n, sim::MemKind::kDevice, "labels");
    d.stamp = device.Alloc<uint32_t>(n, sim::MemKind::kDevice, "stamp");
    d.act_counter = device.Alloc<uint32_t>(1, sim::MemKind::kDevice, "act_counter");
    // Tigr keeps a second copy of the raw destination array inside its
    // transformed representation (Section III-A: it "need[s] to generate a
    // copy of raw data"); model that staging allocation too.
    auto staging = device.Alloc<VertexId>(m, sim::MemKind::kDevice, "vst_staging");
    device.Free(staging);
  } catch (const sim::OomError& e) {
    report.oom = true;
    report.oom_request_bytes = e.requested_bytes;
    return report;
  }
  report.device_bytes_peak = device.Mem().DeviceBytesUsed() + m * sizeof(VertexId);

  // Preprocessing (excluded from the measured time, as in the paper's
  // methodology: datasets are "transformed into their required data format
  // in advance").
  const Vst vst = BuildVst(csr, options_.split_degree);
  ETA_CHECK(vst.NumVirtual() == num_virtual);
  device.CopyToDevice(d.virt_offsets, std::span<const EdgeId>(vst.offsets));
  device.CopyToDevice(d.virt_owner, std::span<const VertexId>(vst.owner));
  device.CopyToDevice(d.col, csr.ColIndices());
  if (weighted) device.CopyToDevice(d.wts, csr.Weights());

  UploadInitLabels(device, d.labels, algo, source);
  const uint32_t one_val[1] = {1};
  device.CopyToDeviceRange(d.stamp, source, std::span<const uint32_t>(one_val), false);

  double kernel_ms = 0;
  uint32_t active = 1;
  uint64_t activated_cum = 1;
  const uint32_t zero[1] = {0};
  for (uint32_t iter = 1; active > 0 && iter <= options_.max_iterations; ++iter) {
    device.CopyToDevice(d.act_counter, std::span<const uint32_t>(zero, 1), false);
    auto r = core::WithSemiring(algo, [&]<class S>(S) {
      return device.Launch("tigr", {num_virtual, options_.block_size},
                           [&](WarpCtx& w) { TigrKernel<S>(w, d, iter); });
    });
    kernel_ms += r.compute_ms;
    uint64_t prev_active = active;
    device.CopyToHost(std::span<uint32_t>(&active, 1), d.act_counter, false);
    activated_cum += active;
    report.iteration_stats.push_back(
        {iter, prev_active, 0, device.NowMs(), activated_cum});
  }

  FinishReport(device, d.labels, kernel_ms, report);
  return report;
}

}  // namespace eta::baselines
