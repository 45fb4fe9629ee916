// CuSha baseline (Khorasani et al., HPDC'14) — edge-centric GPU framework
// built on G-Shards and Concatenated Windows (CW).
//
// Modeled fidelity:
//   - edges are preprocessed (host side, excluded from timing, and only once
//     the device allocations have succeeded) into shards: sorted by
//     destination window, then by source — so the kernel's reads of shard
//     entries and its writes into the destination window are fully
//     coalesced, CuSha's core contribution;
//   - every iteration streams *all* shards (no frontier): per-edge work is
//     cheap but total work is |E| x iterations, which loses badly on
//     high-diameter graphs;
//   - source values are shard-local snapshots refreshed once per iteration
//     through the CW mapping (coalesced), giving level-synchronous
//     semantics;
//   - the shard representation costs ~6 words/edge of cudaMalloc memory
//     (2|E| topology words of Table I plus value snapshots, update slots
//     and the CW map), which is why CuSha is the first framework to go
//     out of memory in Table III (from RMAT25 and uk-2005 up).
#pragma once

#include "core/run_report.hpp"
#include "core/traversal.hpp"
#include "graph/csr.hpp"
#include "sim/spec.hpp"

namespace eta::baselines {

struct CushaOptions {
  /// Destination-window width in vertices (a shard's dst range must fit the
  /// block's shared memory).
  uint32_t window_vertices = 2048;
  sim::DeviceSpec spec{};
  uint32_t block_size = 256;
  uint32_t max_iterations = 100000;
};

class Cusha {
 public:
  explicit Cusha(CushaOptions options = {}) : options_(options) {}

  core::RunReport Run(const graph::Csr& csr, core::Algo algo,
                      graph::VertexId source) const;

  /// Host-side shard construction, exposed for tests and benches: the edges
  /// ordered by (dst window, src, dst), ties kept in CSR order.
  struct Shards {
    std::vector<graph::VertexId> src;
    std::vector<graph::VertexId> dst;
    std::vector<graph::Weight> weight;       // empty if unweighted
    std::vector<graph::EdgeId> shard_start;  // per-window offsets, size W+1
  };
  static Shards BuildShards(const graph::Csr& csr, uint32_t window_vertices);

 private:
  CushaOptions options_;
};

}  // namespace eta::baselines
