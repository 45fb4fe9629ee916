// EtaGraph — the paper's framework (Procedure 1), on the simulated GPU.
//
// One Run() executes the full pipeline on a fresh device:
//   load CSR into Unified Memory -> init labels on device -> optional
//   cudaMemPrefetchAsync -> iterate { actSet2virtActSet (UDC, on the fly);
//   traversal kernel over shadow vertices with SMP } until the active set
//   empties -> copy labels back.
// Every stage is charged on the simulated clock, so RunReport::total_ms is
// the transfer+execution total Table III reports and kernel_ms is the
// kernel-only column.
//
// ResidentGraph factors the same pipeline into a *persistent device
// session*: the CSR is staged once, then any number of queries execute
// against it on one continuous simulated clock, each charged only its
// incremental label-init transfers, kernels, and result readback. EtaGraph's
// one-shot entry points are thin wrappers over a single-query session. The
// serving layer (src/serve) builds its GraphSession on top of ResidentGraph.
// Traversals, CC, PageRank and hybrid BFS all run through the session's one
// attempt and retry loop, so faults, etacheck and etaprof see every query
// kind.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/hybrid_bfs.hpp"
#include "core/options.hpp"
#include "core/pagerank.hpp"
#include "core/run_report.hpp"
#include "core/traversal.hpp"
#include "core/udc.hpp"
#include "graph/csr.hpp"

namespace eta::sim {
struct LaunchResult;
}  // namespace eta::sim

namespace eta::core {

/// A graph held resident on a persistent simulated device.
///
/// The constructor allocates the device, stages the topology (charging the
/// transfers that a one-shot Run() would), and leaves the device warm. Each
/// query entry point then reuses the resident topology: only label
/// initialization, frontier seeding, kernels, and label readback are
/// charged. Unified-memory residency, cache state, and (in chunked mode)
/// the streamed-chunk window persist across queries, so later queries are
/// cheaper than the first — exactly the amortization a serving deployment
/// gets from keeping the graph loaded.
///
/// The CSR is held by reference and must outlive the session. Reports carry
/// total_ms = absolute session clock at completion and query_ms = this
/// query's incremental cost (see run_report.hpp).
class ResidentGraph {
 public:
  /// Maximum sources an attributed multi-source run supports (one bit per
  /// source in the per-vertex reach mask).
  static constexpr uint32_t kMaxAttributedSources = 32;

  /// Stages `csr` onto a fresh device. `stage_weights` controls whether the
  /// weight array is shipped (defaults to whether the CSR has weights);
  /// weighted queries require it. On allocation failure the session is
  /// marked OOM and every query returns an oom report.
  ResidentGraph(const graph::Csr& csr, EtaGraphOptions options,
                bool stage_weights);
  ResidentGraph(const graph::Csr& csr, EtaGraphOptions options = {});
  ~ResidentGraph();

  ResidentGraph(const ResidentGraph&) = delete;
  ResidentGraph& operator=(const ResidentGraph&) = delete;

  /// Upper-bound estimate of the kDevice-resident bytes a session staging
  /// `csr` under `options` would hold, mirroring the constructor's
  /// allocation sequence (page-rounded per allocation, and including the
  /// lazily-allocated per-vertex reach mask an attributed batch adds).
  /// The serving fleet's eviction policy uses this to decide what must be
  /// evicted *before* paying for a build; after the build, the exact
  /// footprint is DeviceBytesPeak().
  static uint64_t EstimateDeviceBytes(const graph::Csr& csr,
                                      const EtaGraphOptions& options,
                                      bool stage_weights);
  static uint64_t EstimateDeviceBytes(const graph::Csr& csr,
                                      const EtaGraphOptions& options = {});

  bool Oom() const { return oom_; }
  /// True once the simulated device has been lost to an injected fault;
  /// every further query fails immediately (the session must be rebuilt).
  bool DeviceLost() const { return device_lost_; }
  /// Simulated clock when topology staging finished (graph-load latency).
  double LoadMs() const { return load_ms_; }
  /// Current absolute session clock.
  double NowMs() const;
  uint64_t QueriesServed() const { return queries_served_; }
  uint64_t DeviceBytesPeak() const { return device_bytes_peak_; }
  const graph::Csr& Graph() const { return csr_; }
  const EtaGraphOptions& Options() const { return options_; }

  /// The session's etacheck report, or nullptr when options.check is off.
  /// Covers everything the session's device has executed so far.
  const sanitizer::SanitizerReport* CheckReport() const;

  /// The session's etaprof launch records, or nullptr when options.profile
  /// is off. Covers every launch the session's device has executed so far
  /// (each query's own slice also lands in RunReport::kernel_profiles).
  const sim::LaunchProfiler* Profiler() const;

  /// The session device's full timeline (transfers, kernels, stalls) on the
  /// absolute session clock — the trace exporter's input for resident runs.
  const sim::Timeline& SessionTimeline() const;

  /// Single-source traversal against the resident topology.
  RunReport Run(Algo algo, graph::VertexId source);

  /// Multi-source traversal (iBFS-style): labels converge to the best value
  /// over all sources. With `attribute_sources` (<= kMaxAttributedSources
  /// sources) the run additionally propagates a per-vertex source bitmask
  /// and fills RunReport::per_source_reached with each source's individual
  /// reachable count — what the serving layer's batch demultiplexer needs.
  RunReport RunMultiSource(Algo algo, std::span<const graph::VertexId> sources,
                           bool attribute_sources = false);

  /// Min-label propagation (connected components on symmetric graphs).
  RunReport RunConnectedComponents();

  /// Push-style PageRank over the resident topology (see core/pagerank.hpp):
  /// the static virtual active set (every vertex, cut at K) is uploaded into
  /// the partial-shadow buffers, and rank/next/inv_deg/delta are allocated
  /// for this query only. RunReport::ranks holds the result. Not supported
  /// in kChunkedStream mode.
  RunReport RunPageRank(const PageRankOptions& pr = {});

  /// Direction-optimizing BFS from `source` (see core/hybrid_bfs.hpp). The
  /// levels are the session's labels and the top-down input frontier its
  /// active set; the transpose (built on the host, untimed, and staged in the
  /// topology's memory kind) and the top-down output frontier are allocated
  /// for this query only. RunReport::labels holds the levels. Not supported
  /// in kChunkedStream mode.
  RunReport RunHybridBfs(graph::VertexId source, const HybridBfsOptions& hybrid = {});

  /// The async staging path (DESIGN.md section 11): hoists the first-query
  /// topology prefetch out of the query so a stream-scheduling dispatcher
  /// can charge it on a copy stream while another session computes. In
  /// kUnifiedPrefetch mode this issues the same cudaMemPrefetchAsync
  /// sequence the first query would have issued, waits the pages in, and
  /// returns the incremental simulated milliseconds consumed; the first
  /// query then skips its own prefetch, so query answers are bit-identical
  /// either way. A no-op (returns 0) in every other memory mode, after the
  /// prefetch has already happened, and on an OOM/lost/shut-down session.
  double PrefetchTopology();

  /// Tears the session down: frees every resident device buffer, then runs
  /// the leakcheck sweep (Device::ReportLeaks) so an attached checker can
  /// report anything still allocated. Idempotent; the destructor calls it.
  /// No queries may run afterwards.
  void Shutdown();

 private:
  friend class EtaGraph;

  struct State;  // device + resident buffers; defined in framework.cpp

  /// Where a query's body stands, kept across its attempts by Execute
  /// (DESIGN.md section 8). A hang leaves it at the killed launch, so the
  /// next attempt relaunches that kernel and goes on; a UECC resets it, so
  /// the next attempt starts over on re-staged buffers.
  struct QueryCursor {
    uint32_t iter = 0;  // loop iteration; 0 = inputs not staged yet
    /// Steps of `iter` already done, numbered by each body. Every launch is
    /// a step of its own, so the next attempt issues the hung one first.
    uint32_t step = 0;
    /// Host-held counts of `iter`: its active vertices, then its full and
    /// partial shadows (read back after the UDC launch).
    uint32_t act_count = 0;
    uint32_t shadows[2] = {0, 0};
    uint64_t activated_cum = 0;
    bool bottom_up = false;  // hybrid BFS: `iter` runs in pull mode
    RunReport report;  // what the query's completed launches produced
  };

  /// How one execution attempt of a query failed (empty = it succeeded).
  struct AttemptFailure {
    bool failed = false;
    sim::LaunchStatus status = sim::LaunchStatus::kOk;

    /// Folds one launch into the attempt: its device time into the
    /// cursor's kernel_ms (a hang's watchdog window included), its
    /// correctable-ECC count into *faults, and a failure into *this. False
    /// means the attempt must stop.
    bool Launched(const sim::LaunchResult& r, QueryCursor* cursor, FaultStats* faults);
  };

  /// The attempt/retry loop every query runs through (DESIGN.md section 8).
  /// `alloc()` allocates the query's device buffers once, before the first
  /// attempt; an OomError from it ends the query as oom with nothing
  /// charged. `run_attempt(QueryCursor*, FaultStats*, AttemptFailure*)`
  /// runs the query body from the cursor to the end: on a failed launch it
  /// returns with the failure filled and the cursor at that launch.
  template <class Alloc, class Attempt>
  RunReport Execute(Algo algo, Alloc&& alloc, Attempt&& run_attempt);

  /// A label-propagation traversal (Procedure 1) from the cursor onwards.
  void TraversalAttempt(Algo algo, const std::vector<graph::Weight>& init_labels,
                        std::span<const graph::VertexId> initial_active, bool attribute_sources,
                        QueryCursor* cursor, FaultStats* faults, AttemptFailure* failure);

  /// PageRank over the query's buffers (State::pr) from the cursor onwards:
  /// pr_init, pr_push and pr_delta per iteration over the static virtual
  /// active set `shadows` (every vertex, cut at K).
  void PageRankAttempt(const PageRankOptions& pr, std::span<const ShadowVertex> shadows,
                       QueryCursor* cursor, FaultStats* faults, AttemptFailure* failure);

  /// Hybrid BFS over the session's labels, active set and cursors plus the
  /// query's buffers (State::hybrid) from the cursor onwards: per iteration
  /// the direction choice (with bfs_compact on a switch back to push), then
  /// bfs_top_down or bfs_bottom_up. The frontier size is the cursor's
  /// act_count and its slot cursors[0].
  void HybridBfsAttempt(graph::VertexId source, const HybridBfsOptions& hybrid,
                        QueryCursor* cursor, FaultStats* faults, AttemptFailure* failure);

  /// Issues the topology prefetch (kUnifiedPrefetch only) unless an earlier
  /// query or PrefetchTopology already did; true if it did.
  bool PrefetchOnce();

  /// Post-UECC recovery: verifies the resident topology (and a running
  /// hybrid BFS query's transpose) against the host CSR and re-stages
  /// (charged) whatever diverged; re-zeroes the stamp array, whose expected
  /// contents have no host shadow.
  void RestageCorrupted(FaultStats* faults);

  const graph::Csr& csr_;
  EtaGraphOptions options_;
  std::unique_ptr<State> state_;
  bool weights_staged_ = false;
  bool oom_ = false;
  uint64_t oom_request_bytes_ = 0;
  bool device_lost_ = false;
  bool shutdown_ = false;
  bool prefetched_ = false;
  /// Largest frontier stamp issued so far; each query's stamps start above
  /// it, so stale stamps from earlier queries never suppress appends and
  /// the stamp array needs no between-query reset.
  uint32_t stamp_base_ = 0;
  double load_ms_ = 0;
  uint64_t device_bytes_peak_ = 0;
  uint64_t queries_served_ = 0;
};

class EtaGraph {
 public:
  explicit EtaGraph(EtaGraphOptions options = {}) : options_(options) {}

  const EtaGraphOptions& Options() const { return options_; }

  /// Runs `algo` from `source`. Weighted algorithms require csr.HasWeights().
  /// Returns a report with oom=true (and nothing else meaningful) if a
  /// device allocation failed — which never happens in UM modes.
  RunReport Run(const graph::Csr& csr, Algo algo, graph::VertexId source) const;

  /// Extension (iBFS-style concurrent queries): one traversal seeded from
  /// several sources at once; labels converge to the best value over all
  /// sources. A multi-source BFS labels each vertex with its distance to
  /// the *nearest* source. See ResidentGraph::RunMultiSource for
  /// `attribute_sources`.
  RunReport RunMultiSource(const graph::Csr& csr, Algo algo,
                           std::span<const graph::VertexId> sources,
                           bool attribute_sources = false) const;

  /// Extension (beyond the paper's three traversals, using the same UDC +
  /// SMP machinery): min-label propagation. Every vertex starts active with
  /// its own ID; labels converge to the smallest ID that can reach each
  /// vertex. On a symmetrized graph this computes connected components.
  RunReport RunConnectedComponents(const graph::Csr& csr) const;

  /// Extension (Section II-C's whole-graph contrast, Section VIII's SMP
  /// portability claim): PageRank on a single-query session.
  RunReport RunPageRank(const graph::Csr& csr, const PageRankOptions& pr = {}) const;

  /// Extension (the paper's reference [34]): direction-optimizing BFS on a
  /// single-query session.
  RunReport RunHybridBfs(const graph::Csr& csr, graph::VertexId source,
                         const HybridBfsOptions& hybrid = {}) const;

 private:
  EtaGraphOptions options_;
};

}  // namespace eta::core
