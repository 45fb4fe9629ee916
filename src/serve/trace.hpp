// Deterministic synthetic request traces for the serving engine.
//
// Arrivals follow a Poisson process (exponential inter-arrival times drawn
// from util::SplitMix64), sources are uniform over the vertex set, and the
// algorithm/priority mix is sampled per request — all from independent,
// seeded streams, so a (seed, options) pair names one exact trace forever.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/types.hpp"
#include "serve/types.hpp"

namespace eta::serve {

struct TraceOptions {
  uint32_t num_requests = 64;
  /// Mean of the exponential inter-arrival distribution (Poisson process).
  double mean_interarrival_ms = 1.5;
  /// Algorithm mix: fraction of BFS and SSSP requests; the remainder are
  /// SSWP. Set sssp_fraction = 1 - bfs_fraction for no SSWP.
  double bfs_fraction = 0.5;
  double sssp_fraction = 0.35;
  /// Fraction of requests marked priority 1 ("interactive"); the rest are
  /// priority 0.
  double priority_fraction = 0.125;
  /// Queueing deadline applied to every request (kNoDeadline disables).
  double deadline_ms = kNoDeadline;
  uint64_t seed = 1;
};

/// Generates `options.num_requests` requests over sources in
/// [0, num_vertices), sorted by arrival time, ids 0..n-1 in arrival order.
std::vector<Request> GenerateTrace(graph::VertexId num_vertices,
                                   const TraceOptions& options);

}  // namespace eta::serve
