// Shared traversal-algorithm abstractions (Section II-C).
//
// All three problems are label-propagation traversals: a source label
// propagates along out-edges, each edge transforming it (Propagate) and
// each vertex keeping the best value seen (Improves + the matching atomic).
// BFS and SSSP minimize; SSWP maximizes a min-width; CC (min-label
// propagation) copies the label unchanged and minimizes.
//
// Each traversal is a compile-time semiring policy — BfsLevel, MinPlus,
// MaxMin, CopyMin — so the relax loops carry no per-lane switch over Algo.
// WithSemiring is the one runtime switch: callers make it once per launch
// and instantiate their kernel for the policy it picks. core::RelaxStep
// (core/relax_step.hpp) is the one warp routine that applies a policy's
// compare and label atomic; the baselines, EtaGraph and the CPU references
// all read their label semantics from here.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "util/check.hpp"

namespace eta::core {

inline constexpr graph::Weight kInf = 0xffffffffu;

/// kBfs/kSssp/kSswp are the paper's per-source traversals. kCc (connected
/// components via min-label propagation) and kPr (PageRank) are whole-graph
/// analytics served through the same request plumbing (DESIGN.md section
/// 15): their answer depends only on (algo, graph), never on the request
/// source — which is exactly what makes them memoizable.
enum class Algo { kBfs, kSssp, kSswp, kCc, kPr };

const char* AlgoName(Algo algo);

inline bool IsWeighted(Algo algo) { return algo == Algo::kSssp || algo == Algo::kSswp; }
inline bool IsWidest(Algo algo) { return algo == Algo::kSswp; }
/// True for algorithms whose answer is a whole-graph property (no per-source
/// attribution): identical requests inside a memo window can be answered
/// from a memo table at zero device cost.
inline bool IsWholeGraph(Algo algo) { return algo == Algo::kCc || algo == Algo::kPr; }

/// Initial label value.
inline graph::Weight InitLabel(Algo algo, bool is_source) {
  if (IsWidest(algo)) return is_source ? kInf : 0;
  return is_source ? 0 : kInf;
}

/// The atomic a semiring resolves concurrent relaxes of one label with.
enum class LabelAtomic { kMin, kMax };

// A semiring policy gives kWeighted (whether Propagate reads the edge
// weight), kAtomic, Propagate (candidate label for an edge's destination
// from the source label and edge weight), Improves (true if `cand` is
// strictly better than `cur`) and Reached.

/// Smaller is better and kInf marks an unreached vertex: the common half of
/// the three minimizing semirings.
struct MinLabel {
  static constexpr LabelAtomic kAtomic = LabelAtomic::kMin;
  static bool Improves(graph::Weight cand, graph::Weight cur) { return cand < cur; }
  static bool Reached(graph::Weight label) { return label != kInf; }
};

/// BFS: hop count.
struct BfsLevel : MinLabel {
  static constexpr bool kWeighted = false;
  static graph::Weight Propagate(graph::Weight label, graph::Weight /*w*/) { return label + 1; }
};

/// SSSP: path length.
struct MinPlus : MinLabel {
  static constexpr bool kWeighted = true;
  static graph::Weight Propagate(graph::Weight label, graph::Weight w) { return label + w; }
};

/// CC: the label travels unchanged; the smallest reachable label wins.
struct CopyMin : MinLabel {
  static constexpr bool kWeighted = false;
  static graph::Weight Propagate(graph::Weight label, graph::Weight /*w*/) { return label; }
};

/// SSWP: the widest path's bottleneck — min along a path, max over paths;
/// width 0 marks an unreached vertex.
struct MaxMin {
  static constexpr bool kWeighted = true;
  static constexpr LabelAtomic kAtomic = LabelAtomic::kMax;
  static graph::Weight Propagate(graph::Weight label, graph::Weight w) {
    return std::min(label, w);
  }
  static bool Improves(graph::Weight cand, graph::Weight cur) { return cand > cur; }
  static bool Reached(graph::Weight label) { return label > 0; }
};

/// Returns fn(S{}) for the semiring policy S of `algo`: the one runtime
/// switch over Algo on the traversal path. kPr has no label semiring: it
/// runs ResidentGraph::RunPageRank's float push.
template <class Fn>
decltype(auto) WithSemiring(Algo algo, Fn&& fn) {
  switch (algo) {
    case Algo::kBfs: return fn(BfsLevel{});
    case Algo::kSssp: return fn(MinPlus{});
    case Algo::kSswp: return fn(MaxMin{});
    case Algo::kCc: return fn(CopyMin{});
    case Algo::kPr: break;
  }
  util::CheckFailed("algo has a label semiring", __FILE__, __LINE__);
}

/// CPU ground truth for `algo` (dispatches to cpu::reference).
std::vector<graph::Weight> CpuReference(const graph::Csr& csr, Algo algo,
                                        graph::VertexId source);

}  // namespace eta::core
