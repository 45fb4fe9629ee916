// Edge-list -> CSR construction with the canonicalization every framework
// in this repo assumes: neighbor lists sorted by destination, optional
// self-loop removal and duplicate-edge removal (the paper's correctness
// argument for UDC assumes no duplicate edges, Section III-B).
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace eta::graph {

struct BuildOptions {
  bool remove_self_loops = true;
  bool remove_duplicates = true;
  bool sort_neighbors = true;
  /// If nonzero, the CSR is forced to have at least this many vertices even
  /// if the edge list never mentions the tail IDs.
  VertexId min_vertices = 0;
};

/// Builds a CSR from a directed edge list in linear time plus per-row sorts.
/// The edge list is consumed: it is freed as soon as its edges are bucketed
/// by source, since it can be the largest allocation in the process.
Csr BuildCsr(std::vector<Edge>&& edges, const BuildOptions& options = {});

/// Same, leaving the caller's list as it is (and not copying it).
Csr BuildCsr(const std::vector<Edge>& edges, const BuildOptions& options = {});

/// Flattens a CSR back to an edge list (in row order).
std::vector<Edge> ToEdgeList(const Csr& csr);

}  // namespace eta::graph
