// GraphSession — a standing device deployment of one graph.
//
// The serving layer's unit of graph residency: construction stages the CSR
// onto a persistent simulated device (core::ResidentGraph) and the session
// then serves any number of queries, each charged only its incremental
// transfer and kernel time. Unified-memory residency and cache state stay
// warm between queries, which is precisely the amortization the serving
// engine sells over the naive run-per-query path. Every query kind —
// traversals, CC and PageRank — runs on the resident graph, under the
// session's faults, checks and profiler.
#pragma once

#include <span>

#include "core/framework.hpp"
#include "core/pagerank.hpp"
#include "cpu/reference.hpp"
#include "graph/csr.hpp"

namespace eta::serve {

/// Scalar answer of a whole-graph CC run: the number of components (label
/// fixpoint roots, labels[v] == v). The serving layer reports this as the
/// request's reached_vertices.
inline uint64_t CountComponents(const std::vector<graph::Weight>& labels) {
  uint64_t components = 0;
  for (size_t v = 0; v < labels.size(); ++v) {
    if (labels[v] == static_cast<graph::Weight>(v)) ++components;
  }
  return components;
}

/// The CPU fallback's scalar answer for one request: reached count for the
/// per-source traversals, component count for CC, above-uniform-rank count
/// for PageRank. Exact for traversals and CC (same labels the device
/// converges to); PageRank counts the double-precision host reference's
/// ranks, which core::CountAboveUniform's margin makes agree with the
/// device's f32 count.
inline uint64_t CpuAnswer(const graph::Csr& csr, core::Algo algo,
                          graph::VertexId source) {
  if (algo == core::Algo::kCc) {
    return CountComponents(cpu::MinLabelPropagation(csr));
  }
  if (algo == core::Algo::kPr) {
    const core::PageRankOptions pr;
    return core::CountAboveUniform(
        cpu::PageRankReference(csr, pr.damping, pr.epsilon, pr.max_iterations));
  }
  return cpu::CountReached(core::CpuReference(csr, algo, source),
                           core::IsWidest(algo));
}

class GraphSession {
 public:
  /// Stages `csr` (weights included iff the CSR has them, so weighted
  /// queries are servable). The CSR must outlive the session.
  explicit GraphSession(const graph::Csr& csr, core::EtaGraphOptions options = {})
      : resident_(csr, options) {}

  /// False if device allocation failed; no queries can be served then.
  bool Loaded() const { return !resident_.Oom(); }
  /// True once the session's simulated device has been lost to an injected
  /// fault; the session must be torn down and rebuilt.
  bool DeviceLost() const { return resident_.DeviceLost(); }
  /// Loaded and not lost — the engine dispatches only to healthy sessions.
  bool Healthy() const { return Loaded() && !DeviceLost(); }
  /// Simulated time spent staging the graph (the session's startup cost).
  double LoadMs() const { return resident_.LoadMs(); }
  /// Absolute session clock.
  double NowMs() const { return resident_.NowMs(); }
  uint64_t QueriesServed() const { return resident_.QueriesServed(); }
  /// Exact kDevice footprint staged by this session — what the sharded
  /// fleet's eviction accounting charges once the build has happened.
  uint64_t DeviceBytesPeak() const { return resident_.DeviceBytesPeak(); }
  const graph::Csr& Graph() const { return resident_.Graph(); }

  /// Async staging hook (ResidentGraph::PrefetchTopology): hoists the
  /// first-query topology prefetch into the staging phase so an async
  /// dispatcher can charge load + prefetch as one copy-stream op. Returns
  /// the incremental simulated ms; 0 when there is nothing to hoist.
  double PrefetchTopology() { return resident_.PrefetchTopology(); }

  /// One query against the resident topology; report.query_ms is its
  /// incremental simulated cost. Whole-graph algorithms ignore `source`:
  /// CC runs the resident min-label propagation and PageRank the resident
  /// push, both under the full fault/retry machinery. Their answers surface
  /// through report.activated (component count / above-uniform-rank
  /// count).
  core::RunReport RunQuery(core::Algo algo, graph::VertexId source) {
    if (algo == core::Algo::kCc) {
      core::RunReport report = resident_.RunConnectedComponents();
      if (!report.DeviceFailed()) report.activated = CountComponents(report.labels);
      return report;
    }
    if (algo == core::Algo::kPr) {
      core::RunReport report = resident_.RunPageRank({});
      if (!report.DeviceFailed()) report.activated = core::CountAboveUniform(report.ranks);
      return report;
    }
    return resident_.Run(algo, source);
  }

  /// One attributed multi-source launch for a folded batch; the report's
  /// per_source_reached lets the batcher demultiplex exact per-request
  /// reachability.
  core::RunReport RunBatch(core::Algo algo, std::span<const graph::VertexId> sources) {
    return resident_.RunMultiSource(algo, sources, /*attribute_sources=*/true);
  }

  /// The session's etacheck report (covers every query served so far), or
  /// nullptr when the session's options.check is off.
  const sanitizer::SanitizerReport* CheckReport() const {
    return resident_.CheckReport();
  }

  /// The session's etaprof launch records (covers every launch so far), or
  /// nullptr when the session's options.profile is off.
  const sim::LaunchProfiler* Profiler() const { return resident_.Profiler(); }

  /// The session device's full timeline on its private session clock; the
  /// engine's trace export maps slices of it onto the serve clock.
  const sim::Timeline& DeviceTimeline() const { return resident_.SessionTimeline(); }

  /// Tears the session down (frees resident buffers, runs the leakcheck
  /// sweep). CheckReport() stays readable afterwards; queries do not.
  void Shutdown() { resident_.Shutdown(); }

 private:
  core::ResidentGraph resident_;
};

}  // namespace eta::serve
