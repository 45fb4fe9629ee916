// PageRank on the simulated GPU — an extension beyond the paper's three
// traversals that demonstrates two of its claims:
//   1. Section II-C's contrast: PageRank-like algorithms update *all*
//      vertices every iteration, so there is no frontier to exploit — the
//      static virtual active set is built once by a single UDC pass and
//      reused every iteration;
//   2. Section VIII's claim that "SMP can be easily applied to other
//      vertex-centric frameworks": the push kernel runs the same shadow
//      loader and SMP edge loop (core::ForEachShadowEdge) as the traversal
//      kernel, toggled by EtaGraphOptions::use_smp for ablation.
// It runs on a resident graph (ResidentGraph::RunPageRank, or the one-shot
// EtaGraph::RunPageRank), whose EtaGraphOptions supply the degree limit,
// SMP, memory mode, device and instrumentation. Ranks are device-side f32
// (RunReport::ranks); verify against cpu::PageRankReference with a small
// tolerance, or compare the two CountAboveUniform answers.
#pragma once

#include <cstdint>
#include <vector>

namespace eta::core {

struct PageRankOptions {
  double damping = 0.85;
  /// Convergence threshold on the max per-vertex rank delta.
  double epsilon = 1e-6;
  uint32_t max_iterations = 100;
};

/// Relative margin above 1/n that counts as "above uniform". Device ranks
/// are f32 (relative error ~2e-6 against the double cpu::PageRankReference),
/// and a vertex ranked exactly 1/n (e.g. on an isolated cycle) lands on
/// either side of 1/n by rounding alone. On the slashdot, uk2005,
/// livejournal and orkut stand-ins (0.002-0.5 scale) every other vertex lies
/// at least 2.5e-5 (relative) from 1/n.
inline constexpr double kAboveUniformMargin = 1e-5;

/// PageRank's scalar answer: the number of vertices whose rank exceeds the
/// uniform 1/n by more than kAboveUniformMargin, so device (float) and CPU
/// (double) ranks give the same count. The serving layer reports it as a
/// request's reached_vertices.
template <class Rank>
uint64_t CountAboveUniform(const std::vector<Rank>& ranks) {
  const double threshold = (1 + kAboveUniformMargin) / static_cast<double>(ranks.size());
  uint64_t above = 0;
  for (Rank rank : ranks) {
    if (rank > threshold) ++above;
  }
  return above;
}

}  // namespace eta::core
