#include "core/udc.hpp"

#include <algorithm>
#include <map>

#include "core/warp_append.hpp"
#include "graph/space_model.hpp"
#include "util/check.hpp"

namespace eta::core {

uint64_t ShadowCapacity(const graph::Csr& csr, uint32_t degree_limit) {
  return graph::CountShadowVertices(csr, degree_limit);
}

std::vector<ShadowVertex> TransformActiveSet(const graph::Csr& csr,
                                             std::span<const graph::VertexId> active_set,
                                             uint32_t degree_limit) {
  ETA_CHECK(degree_limit >= 1);
  std::vector<ShadowVertex> shadows;
  for (graph::VertexId v : active_set) {
    graph::EdgeId start = csr.RowStart(v);
    graph::EdgeId end = csr.RowEnd(v);
    for (graph::EdgeId s = start; s < end; s += degree_limit) {
      shadows.push_back({v, s, std::min<graph::EdgeId>(s + degree_limit, end)});
    }
  }
  return shadows;
}

void UdcKernel(sim::WarpCtx& w, const sim::Buffer<graph::EdgeId>& row, uint64_t num_edges,
               const sim::Buffer<graph::VertexId>& act_set, sim::Buffer<uint32_t>& cursors,
               VirtualActiveSet& out, uint32_t k) {
  using sim::LaneArray;
  using sim::WarpCtx;
  const uint32_t mask = w.ActiveMask();
  if (!mask) return;

  LaneArray<graph::VertexId> v{};
  w.GatherContiguous(act_set, w.WarpId() * sim::kWarpSize, mask, v);
  LaneArray<uint64_t> vidx{}, vidx1{};
  WarpCtx::ForActive(mask, [&](uint32_t lane) {
    vidx[lane] = v[lane];
    vidx1[lane] = v[lane] + 1;
  });
  LaneArray<graph::EdgeId> start{}, end{};
  w.Gather(row, vidx, mask, start);
  w.Gather(row, vidx1, mask, end);

  // Row offsets can be corrupt after an ECC fault; an inverted or oversized
  // pair must not inflate the shadow loop past the graph.
  const uint32_t max_edges = static_cast<uint32_t>(std::min<uint64_t>(num_edges, UINT32_MAX));
  LaneArray<uint32_t> nfull{};
  uint32_t fullmask = 0, partmask = 0, max_full = 0;
  WarpCtx::ForActive(mask, [&](uint32_t lane) {
    const uint32_t degree =
        end[lane] > start[lane] ? std::min(end[lane] - start[lane], max_edges) : 0;
    end[lane] = start[lane] + degree;
    nfull[lane] = degree / k;
    if (nfull[lane] > 0) fullmask |= 1u << lane;
    if (degree % k != 0) partmask |= 1u << lane;
    max_full = std::max(max_full, nfull[lane]);
  });
  w.ChargeAlu(4, mask);

  LaneArray<uint32_t> full_slot{}, part_slot{};
  WarpAppend(w, cursors, kFullCursor, nfull, fullmask, full_slot);
  WarpAppend(w, cursors, kPartCursor, partmask, part_slot);

  for (uint32_t s = 0; s < max_full; ++s) {
    uint32_t submask = 0;
    LaneArray<uint64_t> slot_idx{};
    LaneArray<graph::EdgeId> sstart{};
    WarpCtx::ForActive(fullmask, [&](uint32_t lane) {
      if (s >= nfull[lane]) return;
      submask |= 1u << lane;
      slot_idx[lane] = uint64_t{full_slot[lane]} + s;
      sstart[lane] = start[lane] + s * k;
    });
    w.ChargeAlu(2, submask);
    w.Scatter(out.full_id, slot_idx, v, submask);
    w.Scatter(out.full_start, slot_idx, sstart, submask);
  }
  if (partmask) {
    LaneArray<uint64_t> slot_idx{};
    LaneArray<graph::EdgeId> sstart{};
    WarpCtx::ForActive(partmask, [&](uint32_t lane) {
      slot_idx[lane] = part_slot[lane];
      sstart[lane] = start[lane] + nfull[lane] * k;
    });
    w.ChargeAlu(2, partmask);
    w.Scatter(out.part_id, slot_idx, v, partmask);
    w.Scatter(out.part_start, slot_idx, sstart, partmask);
    w.Scatter(out.part_end, slot_idx, end, partmask);
  }
}

bool ValidateShadows(const graph::Csr& csr,
                     std::span<const graph::VertexId> active_set,
                     std::span<const ShadowVertex> shadows, uint32_t degree_limit) {
  // Collect per-vertex edge-range coverage.
  std::map<graph::VertexId, std::vector<std::pair<graph::EdgeId, graph::EdgeId>>> cover;
  for (const ShadowVertex& s : shadows) {
    if (s.Degree() == 0 || s.Degree() > degree_limit) return false;
    if (s.start < csr.RowStart(s.id) || s.end > csr.RowEnd(s.id)) return false;
    cover[s.id].push_back({s.start, s.end});
  }
  for (graph::VertexId v : active_set) {
    auto it = cover.find(v);
    graph::EdgeId deg = csr.OutDegree(v);
    if (deg == 0) {
      if (it != cover.end()) return false;  // zero-degree vertices drop out
      continue;
    }
    if (it == cover.end()) return false;
    auto& ranges = it->second;
    std::sort(ranges.begin(), ranges.end());
    // Disjoint union covering exactly [RowStart, RowEnd).
    graph::EdgeId cursor = csr.RowStart(v);
    for (auto [s, e] : ranges) {
      if (s != cursor) return false;
      cursor = e;
    }
    if (cursor != csr.RowEnd(v)) return false;
    cover.erase(it);
  }
  return cover.empty();  // no shadows for inactive vertices
}

}  // namespace eta::core
