#include "graph/builder.hpp"

#include <algorithm>
#include <span>

#include "util/check.hpp"

namespace eta::graph {

namespace {

/// A counting sort by source, then an in-place pass per row: O(|E| + |V|)
/// plus the row sorts. `owned`, if set, is the vector behind `edges`; it is
/// freed once its destinations are bucketed, so the list and the CSR's one
/// |E| array are the peak.
Csr Build(std::span<const Edge> edges, const BuildOptions& options, std::vector<Edge>* owned) {
  auto kept = [&options](const Edge& e) { return !options.remove_self_loops || e.src != e.dst; };
  VertexId n = options.min_vertices;
  for (const Edge& e : edges) {
    if (kept(e)) n = std::max({n, e.src + 1, e.dst + 1});
  }
  std::vector<EdgeId> offsets(static_cast<size_t>(n) + 1, 0);
  for (const Edge& e : edges) {
    if (kept(e)) ++offsets[e.src + 1];
  }
  for (VertexId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];

  // offsets[v] is row v's cursor during the stable scatter and ends at row
  // v's end, so shifting the array right by one restores the row starts.
  std::vector<VertexId> targets(offsets[n]);
  for (const Edge& e : edges) {
    if (kept(e)) targets[offsets[e.src]++] = e.dst;
  }
  std::copy_backward(offsets.begin(), offsets.end() - 1, offsets.end());
  offsets[0] = 0;
  if (owned) std::vector<Edge>().swap(*owned);

  if (options.sort_neighbors || options.remove_duplicates) {
    // Rows only move down as duplicates drop out, never over unread ones.
    EdgeId begin = 0, out = 0;
    for (VertexId v = 0; v < n; ++v) {
      VertexId* first = targets.data() + begin;
      VertexId* last = targets.data() + offsets[v + 1];
      begin = offsets[v + 1];
      std::sort(first, last);
      if (options.remove_duplicates) last = std::unique(first, last);
      if (first != targets.data() + out) std::copy(first, last, targets.data() + out);
      out += static_cast<EdgeId>(last - first);
      offsets[v + 1] = out;
    }
    targets.resize(out);
    targets.shrink_to_fit();
  }
  return Csr(std::move(offsets), std::move(targets));
}

}  // namespace

Csr BuildCsr(std::vector<Edge>&& edges, const BuildOptions& options) {
  return Build(edges, options, &edges);
}

Csr BuildCsr(const std::vector<Edge>& edges, const BuildOptions& options) {
  return Build(edges, options, nullptr);
}

std::vector<Edge> ToEdgeList(const Csr& csr) {
  std::vector<Edge> edges;
  edges.reserve(csr.NumEdges());
  for (VertexId v = 0; v < csr.NumVertices(); ++v) {
    for (VertexId dst : csr.Neighbors(v)) edges.push_back({v, dst});
  }
  return edges;
}

}  // namespace eta::graph
