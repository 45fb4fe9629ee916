// Fleet internals of ShardedEngine::ServeMany (DESIGN.md section 10, "Fleet
// stages"): the state one replay shares across its shards, and the stages
// that act on it. Policy (admission, routing, shedding, autoscaling) decides
// where a request goes; mechanism (residency, dispatch, recovery) carries it
// out. Internal to the serving layer and its tests: tools and benchmarks use
// serve/router.hpp.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "core/retry_budget.hpp"
#include "serve/overload.hpp"
#include "serve/router.hpp"
#include "serve/scheduler.hpp"
#include "serve/session.hpp"
#include "sim/stream.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/sink.hpp"
#include "trace/tracer.hpp"

namespace eta::serve::fleet {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Per-algo running aggregates behind the cost-model observations: the
/// estimator is the running mean of per-query device service time, so each
/// dispatch is predicted from history only (never from itself). Shared
/// fleet-wide, so routing on shard 3 learns from dispatches on shard 0.
struct CostAgg {
  uint64_t queries = 0;
  double service_sum = 0;
  double abs_err_sum = 0;
  double cycles_sum = 0;

  double EstimateMs() const {
    return queries > 0 ? service_sum / static_cast<double>(queries) : 0;
  }
};

/// One graph resident on one shard's device.
struct ResidentSession {
  uint32_t graph_id = 0;
  std::unique_ptr<GraphSession> session;
  uint64_t resident_bytes = 0;
  uint64_t last_used = 0;  // LRU ordinal (monotone dispatch tick)
  // Trace-export bookmarks into this session's device timeline/profiler.
  size_t spans_done = 0;
  size_t launches_done = 0;
  // Async-dispatch state (zero/invalid under the sync dispatcher). A
  // pre-staged session finishes its copy-stream staging at ready_ms;
  // consuming dispatches wait on ready_event. busy_until marks the session
  // un-evictable (mid-copy or mid-compute) until that serve-clock time.
  double ready_ms = 0;
  sim::Event ready_event{};
  double busy_until = 0;
  /// etaverify allocation handles for this staging epoch (kNoAlloc when
  /// the DAG log is off): the session's staged topology and its mutable
  /// per-query state. A re-staged graph gets fresh handles — accesses to
  /// distinct epochs never conflict.
  uint32_t topo_alloc = sim::DagAccess::kNoAlloc;
  uint32_t state_alloc = sim::DagAccess::kNoAlloc;
};

/// One memoized whole-graph answer (DESIGN.md section 15): CC/PageRank
/// results carry no per-source attribution, so an identical request inside
/// the memo window is answered from here at zero simulated device cost.
struct MemoEntry {
  double computed_at = 0;  // finish time of the computing dispatch
  uint64_t reached = 0;    // the memoized whole-graph answer
};

/// One shard: a simulated device, its queue and its resident sessions.
/// Its index and death live in `stat` (ShardStat::shard, ShardStat::dead).
struct Shard {
  Shard(size_t queue_capacity, bool edf) : queue(queue_capacity, edf) {}

  core::EtaGraphOptions graph_options{};
  QueryScheduler queue;
  std::vector<ResidentSession> sessions;
  uint64_t resident_bytes = 0;
  /// Serve-clock time when the shard can next dispatch.
  double free_at = 0;
  uint32_t rebuilds_left = 0;
  /// Graphs ever staged here — a second staging of the same graph is a
  /// reload (the eviction policy's cost signal).
  std::set<uint32_t> staged_graphs;
  /// Queued-request composition per algorithm, the routing estimate input.
  std::map<core::Algo, uint64_t> queued_by_algo;
  /// Overload control (DESIGN.md §13): a disabled breaker (the default)
  /// always allows routing.
  CircuitBreaker breaker{CircuitBreaker::Options{}};
  /// Backlog autoscaling (DESIGN.md section 15): an inactive shard is a
  /// warm standby — routed around, never dispatching, sessions resident.
  /// Always true on a fixed fleet (autoscaling off).
  bool active = true;
  /// Whole-graph memo table, keyed (graph_id, algo). Filled only when
  /// ServeOptions::memo_window_ms > 0; invalidated with the session (a
  /// re-staged graph is a new staging epoch).
  std::map<std::pair<uint32_t, core::Algo>, MemoEntry> memo;
  ShardStat stat{};
  /// Async dispatch only: the shard's stream scheduler (one compute engine
  /// + one copy engine per direction), a dense name counter for the
  /// per-dispatch streams, and a backoff mark after a failed pre-stage
  /// build (so a staging fault is not re-drawn at every event tick).
  std::unique_ptr<sim::StreamScheduler> streams;
  uint64_t dispatch_seq = 0;
  double no_prestage_until = 0;
  /// The previous dispatch's stream: the serve loop only dispatches once
  /// free_at is reached, i.e. the host observed that stream complete, so
  /// each new dispatch host-joins it in the DAG log.
  sim::Stream last_dispatch{};
  /// Dense staging-epoch counter for etaverify allocation names.
  uint64_t stage_epochs = 0;
};

/// A request drained out of a quarantined shard, to be re-routed once the
/// global clock reaches the fault time (routing earlier would let a peer
/// dispatch work caused by a failure that has not happened yet).
struct Deferred {
  double ready_ms = 0;
  uint64_t order = 0;  // drain order, the deterministic tiebreaker
  Request request;
};

/// Everything one replay shares across its shards. The constructor builds
/// the fleet at t = 0; the stages below advance it; Finalize turns it into
/// the report.
struct FleetState {
  FleetState(const ShardedOptions& options, std::span<const graph::Csr* const> graphs);
  FleetState(const FleetState&) = delete;
  FleetState& operator=(const FleetState&) = delete;

  const ShardedOptions& options;
  const ServeOptions& base;  // options.base
  std::span<const graph::Csr* const> graphs;
  const bool async;        // options.async_dispatch
  const bool profiling;    // base.graph.profile
  const bool autoscaling;  // options.AutoscaleEnabled()
  /// Shards active at t = 0 and the floor scale-down stops at.
  const uint32_t min_active;
  /// Simulated cost of answering one query of each graph on the host CPU
  /// instead of the device — a flat (n + m) / throughput bill,
  /// deterministic by design.
  std::vector<double> cpu_query_ms;

  ServeReport report;
  // etatrace (DESIGN.md section 14): the flight recorder runs always (a
  // bounded host-side ring); the per-request tracer only when
  // trace_requests armed it. Both feed off the same emission points.
  trace::RequestTracer tracer;
  trace::FlightRecorder recorder;
  trace::EventSink sink{&tracer, &recorder};

  std::map<core::Algo, CostAgg> cost;
  /// Overload control (DESIGN.md §13); everything defaults off: no budget
  /// object, disabled breakers, ladders with no thresholds.
  std::shared_ptr<core::RetryBudget> retry_budget;
  /// Hysteretic ladders over the router's backlog estimate: level 1 acts
  /// on bronze, level 2 on silver. Active only under slo_admission.
  HysteresisLadder brownout;
  HysteresisLadder shed_ladder;
  /// Autoscaling: one level per standby shard, thresholds at backlog_ms *
  /// 1, * 2, ...; scale_events records the active count it moves.
  HysteresisLadder scale_ladder;
  std::vector<LadderTransition> scale_events;

  std::vector<Shard> shards;
  uint64_t lru_tick = 0;     // the LRU clock every staging and hit advances
  uint64_t drain_order = 0;  // next Deferred::order
  std::vector<Deferred> deferred;
  double cpu_free_at = 0;  // serial timeline of the fleet-wide CPU fallback
  double max_finish = 0;
  bool load_recorded = false;  // report.load_ms holds the first staging
};

/// The running-mean service estimate for `algo` (0 before any observation).
double EstimateMs(const FleetState& f, core::Algo algo);

// Routing.
Shard* Route(FleetState& f, const Request& r, double now, bool* breaker_blocked = nullptr);

// Admission: brownout -> pressure shed -> predictive shed -> route -> fallback.
Shard* Admit(FleetState& f, const Request& r, double at, bool rerouted);
void AdmitDeferred(FleetState& f, double now);
void ExpireDeadlines(FleetState& f, double now);

// Residency: stage, evict, pre-stage.
void EvictFor(FleetState& f, Shard& s, uint64_t need, double t);
ResidentSession* EnsureSession(FleetState& f, Shard& s, uint32_t graph_id, double& t,
                               sim::Stream dstream = {});
void Prestage(FleetState& f, Shard& s, double now);

// Dispatch (memo, fold, execute) and recovery (rebuild, dead shard,
// breaker, drain).
void Dispatch(FleetState& f, Shard& s, double now);
bool DispatchReady(FleetState& f, double now);
void DrainQueue(FleetState& f, Shard& s, double t);

// Autoscale.
void UpdateAutoscale(FleetState& f, double t);

/// The earliest future time a deferred request or a shard needs the loop.
double NextWakeup(const FleetState& f, double now);

/// Finalize: tears the fleet down and renders metrics and the report.
ServeReport Finalize(FleetState& f, double now);

}  // namespace eta::serve::fleet
