// Direction-optimizing BFS (Beamer, Asanovic, Patterson — SC'12, the
// paper's reference [34]) on the simulated GPU — an extension showing the
// substrate supports algorithm-level optimizations beyond the paper's
// push-only traversals.
//
// Top-down steps expand the frontier through out-edges (push, as in
// EtaGraph). When the frontier grows past a fraction of the graph, the
// traversal flips to bottom-up: every *unvisited* vertex scans its
// in-neighbors (the transposed CSR) and claims the first visited parent —
// turning |frontier| * degree work into early-exit scans and eliminating
// the atomic contention of the hot middle iterations on social graphs.
//
// It runs on a resident graph (ResidentGraph::RunHybridBfs, or the one-shot
// EtaGraph::RunHybridBfs), whose EtaGraphOptions supply the degree limit,
// SMP, memory mode, device and instrumentation. The levels come back as
// RunReport::labels, and RunReport::bottom_up_iterations counts the
// iterations that ran in pull mode.
#pragma once

#include <cstdint>

#include "graph/csr.hpp"
#include "sim/device.hpp"

namespace eta::core {

struct HybridBfsOptions {
  /// Switch to bottom-up when the frontier exceeds |V| / alpha (Beamer's
  /// alpha heuristic).
  double alpha = 14.0;
  /// Switch back to top-down when the frontier shrinks below |V| / beta.
  double beta = 24.0;
};

// The three kernels append to cursors[0], the frontier counter.

/// Top-down step `iter`: one thread per vertex of `frontier_in`; push through
/// the out-edges of `row`/`col` and append each newly claimed vertex to
/// `frontier_out`. The degree is not cut at `k`: SMP stages the first `k`
/// neighbours and longer lists fall back to direct loads.
void TopDownKernel(sim::WarpCtx& w, const sim::Buffer<graph::EdgeId>& row,
                   const sim::Buffer<graph::VertexId>& col, sim::Buffer<graph::Weight>& levels,
                   const sim::Buffer<graph::VertexId>& frontier_in,
                   sim::Buffer<graph::VertexId>& frontier_out, sim::Buffer<uint32_t>& cursors,
                   uint32_t iter, bool use_smp, uint32_t k);

/// Bottom-up step `iter`: one thread per vertex; an unvisited vertex scans
/// its in-edges (`trow`/`tcol`, the transpose) and takes level `iter` at the
/// first parent of level iter - 1, counting itself in cursors[0].
void BottomUpKernel(sim::WarpCtx& w, const sim::Buffer<graph::EdgeId>& trow,
                    const sim::Buffer<graph::VertexId>& tcol, sim::Buffer<graph::Weight>& levels,
                    sim::Buffer<uint32_t>& cursors, uint32_t iter);

/// Frontier rebuild after pull mode: one thread per vertex; compacts the
/// vertices at level `iter` into `frontier` for the next top-down step.
void CompactKernel(sim::WarpCtx& w, const sim::Buffer<graph::Weight>& levels,
                   sim::Buffer<graph::VertexId>& frontier, sim::Buffer<uint32_t>& cursors,
                   uint32_t iter);

}  // namespace eta::core
