// Unified Degree Cut (Section III, Definition 3).
//
// UDC maps a vertex v with edge set E_v to a set of *shadow vertices* that
// share v's ID and partition E_v into runs of at most K edges. Unlike
// Tigr's VST it is performed *on the fly*, per iteration, on the device:
// the active set is expanded into a virtual active set of (ID, start, end)
// 3-tuples directly from the unmodified CSR, with no preprocessing pass and
// no second copy of the raw data.
//
// UdcKernel is the device-side transform (the actSet2virtActSet kernel of
// Procedure 1); TransformActiveSet is its host-side reference, used by tests
// and capacity sizing.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "sim/device.hpp"

namespace eta::core {

struct ShadowVertex {
  graph::VertexId id = 0;   // original vertex ID (shared by all shadows)
  graph::EdgeId start = 0;  // first out-edge index in the CSR column array
  graph::EdgeId end = 0;    // one past the last

  graph::EdgeId Degree() const { return end - start; }
  friend bool operator==(const ShadowVertex&, const ShadowVertex&) = default;
};

/// Upper bound on shadow vertices any active set can produce: the shadow
/// count of the full vertex set, sum of ceil(deg/K). Sizes the virtual
/// active set allocation.
uint64_t ShadowCapacity(const graph::Csr& csr, uint32_t degree_limit);

/// Host reference of the transform: shadows of every vertex in
/// `active_set`, in order. Zero-degree vertices produce no shadows
/// (Section IV-A: they cannot propagate).
std::vector<ShadowVertex> TransformActiveSet(const graph::Csr& csr,
                                             std::span<const graph::VertexId> active_set,
                                             uint32_t degree_limit);

/// Validates Definition 3 for `shadows` against `csr`: every shadow has
/// degree in (0, K]; shadows of one vertex are disjoint and their union is
/// exactly the vertex's edge set. Returns false on any violation.
bool ValidateShadows(const graph::Csr& csr,
                     std::span<const graph::VertexId> active_set,
                     std::span<const ShadowVertex> shadows, uint32_t degree_limit);

/// The dual virtual active set of Section V-B: shadows with degree == K
/// (the end is start + K) and shadows with degree < K, so the K-degree
/// traversal kernel can unroll exactly K.
struct VirtualActiveSet {
  sim::Buffer<graph::VertexId> full_id;
  sim::Buffer<graph::EdgeId> full_start;
  sim::Buffer<graph::VertexId> part_id;
  sim::Buffer<graph::EdgeId> part_start;
  sim::Buffer<graph::EdgeId> part_end;
};

/// The append cursors UdcKernel advances: the full and the partial set's
/// shadow counts.
inline constexpr uint64_t kFullCursor = 0;
inline constexpr uint64_t kPartCursor = 1;

/// actSet2virtActSet: one thread per vertex of `act_set`. Each lane cuts its
/// vertex's row of `row` into deg / K full shadows and, when K does not
/// divide deg, one partial shadow; the warp reserves each set's slots with
/// at most one WarpAppend per cursor and every lane writes its shadows into
/// its own contiguous slots. Warps run in order, so both sets come out as
/// TransformActiveSet's shadows split by degree == K, in order.
/// `num_edges` bounds a row whose offsets a fault corrupted.
void UdcKernel(sim::WarpCtx& w, const sim::Buffer<graph::EdgeId>& row, uint64_t num_edges,
               const sim::Buffer<graph::VertexId>& act_set, sim::Buffer<uint32_t>& cursors,
               VirtualActiveSet& out, uint32_t k);

}  // namespace eta::core
