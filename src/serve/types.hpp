// Request/result vocabulary of the query-serving engine.
//
// A Request is one client query (algorithm + source vertex) with an arrival
// time on the simulated clock, an optional queueing deadline, and a
// priority. The engine answers each request with a QueryResult carrying an
// explicit terminal status — admission rejection and deadline expiry are
// first-class outcomes, never crashes.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

#include "core/options.hpp"
#include "core/traversal.hpp"
#include "graph/types.hpp"
#include "trace/alerts.hpp"

namespace eta::serve {

inline constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

/// Service-level-objective class of a request. Classless (kNone) requests
/// bypass the admission controller: no shedding, no brownout, no per-class
/// accounting.
/// Classed requests carry a completion target (OverloadOptions) and are
/// subject to the admission controller: under pressure bronze is degraded or
/// shed first, then silver; gold is never shed while any shard is alive.
enum class SloClass : uint8_t {
  kNone = 0,
  kBronze,
  kSilver,
  kGold,
};
const char* SloClassName(SloClass slo);
/// Inverse of SloClassName; nullopt on an unknown name.
std::optional<SloClass> ParseSloClass(std::string_view name);
/// Canonical scheduler priority for a class (gold jumps the queue).
int32_t SloPriority(SloClass slo);

struct Request {
  uint64_t id = 0;
  core::Algo algo = core::Algo::kBfs;
  graph::VertexId source = 0;
  /// Which graph in the serving catalog this query targets. A single-graph
  /// catalog has one entry, so the default of 0 always resolves; the fleet
  /// uses it for residency (eviction/reload) decisions and to keep folded
  /// batches on one topology.
  uint32_t graph_id = 0;
  /// Arrival on the simulated clock (ms).
  double arrival_ms = 0;
  /// Maximum queueing delay before the query must be dispatched; requests
  /// still queued past arrival_ms + deadline_ms time out. kNoDeadline
  /// disables the limit.
  double deadline_ms = kNoDeadline;
  /// Higher values are dispatched first; FIFO within a priority level.
  int32_t priority = 0;
  /// SLO class; kNone means classless (see SloClass).
  SloClass slo = SloClass::kNone;
  /// Originating tenant (arrival-process bookkeeping only; the engine does
  /// not partition by tenant).
  uint32_t tenant = 0;

  double StartDeadline() const { return arrival_ms + deadline_ms; }

  /// The single boundary rule for deadline expiry, applied by the
  /// scheduler's sweep: a request expires only when the clock has passed
  /// *strictly beyond* its start deadline, so a request whose deadline
  /// equals `now_ms` is still dispatchable.
  bool ExpiredAt(double now_ms) const { return now_ms > StartDeadline(); }
};

enum class QueryStatus : uint8_t {
  kOk,        // served on the device; reached_vertices is valid
  kRejected,  // admission queue was full on arrival
  kTimedOut,  // still queued when the start deadline passed
  kDegraded,  // device path exhausted; served by the CPU fallback instead
  kShedded,   // admission controller predicted a hopeless SLO and shed it
};
const char* QueryStatusName(QueryStatus status);
/// Inverse of QueryStatusName (for replay-file round trips); nullopt on an
/// unknown name.
std::optional<QueryStatus> ParseQueryStatus(std::string_view name);

struct QueryResult {
  uint64_t id = 0;
  QueryStatus status = QueryStatus::kOk;
  core::Algo algo = core::Algo::kBfs;
  graph::VertexId source = 0;
  /// Vertices reachable from this request's source — bit-identical whether
  /// the query ran alone or folded into a multi-source batch (per-source
  /// attribution, see core::ResidentGraph::RunMultiSource).
  uint64_t reached_vertices = 0;
  /// Requests sharing this query's launch (1 = ran alone); 0 if no device
  /// launch produced the answer (not served, or served degraded on the CPU).
  uint32_t batch_size = 0;
  double arrival_ms = 0;
  double start_ms = 0;   // dispatch time on the simulated clock
  double finish_ms = 0;  // completion time on the simulated clock
  /// Copied from the request so per-class accounting survives into reports.
  SloClass slo = SloClass::kNone;

  double QueueMs() const { return start_ms - arrival_ms; }
  double LatencyMs() const { return finish_ms - arrival_ms; }
};

/// Overload-control knobs (DESIGN.md §13). All default-off: a
/// default-constructed OverloadOptions takes no overload branch and renders
/// no overload row, key or metric family.
struct OverloadOptions {
  /// Per-class completion targets (ms from arrival). A classed request meets
  /// its SLO when it finishes (ok or degraded) within the target; targets
  /// also feed the predictive shed decision at admission.
  double gold_slo_ms = 50.0;
  double silver_slo_ms = 200.0;
  double bronze_slo_ms = 1000.0;
  /// Master switch for SLO-aware admission on the sharded router: predictive
  /// shed-early (queue-wait + service estimate vs the class target) plus the
  /// class-ordered fallbacks when every queue is full. Classless requests are
  /// unaffected even when set.
  bool slo_admission = false;
  /// Backlog (ms of estimated queued work on the least-loaded live shard) at
  /// which pressure shedding engages, class-ordered: bronze sheds first,
  /// silver at the higher threshold, gold never. 0 disables a rung.
  double shed_bronze_backlog_ms = 0;
  double shed_silver_backlog_ms = 0;
  /// Brownout ladder thresholds on the same backlog estimate: at level 1
  /// bronze is served by the CPU fallback (kDegraded), at level 2 silver
  /// too. 0 disables a level.
  double brownout_bronze_backlog_ms = 0;
  double brownout_silver_backlog_ms = 0;
  /// Hysteresis for both ladders: a level entered at threshold T is left
  /// only when the backlog drops below T * hysteresis.
  double hysteresis = 0.5;
  /// Fleet-wide retry budget: token-bucket refill rate (tokens per simulated
  /// second) capping fault retries and session rebuilds across all shards.
  /// 0 leaves retries and rebuilds unbounded.
  double retry_tokens_per_s = 0;
  /// Bucket depth (burst allowance) for the retry budget.
  double retry_burst = 8.0;
  /// Circuit breaker: after a dispatch-level device failure a shard is held
  /// out of routing for this cooldown, then half-opened with a single probe
  /// dispatch; each consecutive failure multiplies the cooldown by
  /// breaker_backoff. 0 disables the breaker.
  double breaker_cooldown_ms = 0;
  double breaker_backoff = 2.0;
};
/// The completion target for a class (infinite for kNone).
double SloTargetMs(const OverloadOptions& options, SloClass slo);

struct ServeOptions {
  core::EtaGraphOptions graph{};
  /// Bounded admission queue; arrivals that find it full are rejected.
  size_t queue_capacity = 64;
  /// Already-queued compatible requests folded into one dispatch; 1 turns
  /// folding off (one query per dispatch). Folds past
  /// core::ResidentGraph::kMaxAttributedSources run as successive launch
  /// waves.
  uint32_t max_batch = 16;
  /// How many times the engine may tear down and re-stage an unhealthy
  /// session (device lost, or load failed) before giving up on the device
  /// path for good. Each rebuild charges a fresh graph-staging on the serve
  /// clock.
  uint32_t max_session_rebuilds = 2;
  /// Throughput of the CPU fallback that serves degraded queries, in
  /// traversed units (n + m) per millisecond of simulated time. The default
  /// models a ~0.1 GTEPS host — deliberately far below the simulated GPU,
  /// so degradation is visible in the latency histograms.
  double cpu_fallback_units_per_ms = 100000.0;
  /// EDF pop order (DESIGN.md section 15): within a priority class the
  /// scheduler pops earliest effective deadline first (start deadline minus
  /// the running-mean service estimate for the request's algorithm, frozen
  /// at admission). Priority-class precedence is preserved. Default-off:
  /// false keeps the (priority, seq) order.
  bool edf = false;
  /// Whole-graph memoization window (DESIGN.md section 15): identical
  /// whole-graph (CC/PageRank) requests against the same graph answered
  /// within this many simulated ms of the computed answer are served from a
  /// per-shard memo table at zero device cost (counted as memo hits,
  /// invalidated on session retirement/rebuild). 0 disables memoization.
  double memo_window_ms = 0;
  /// Overload control (arrivals/SLO/brownout/budget/breaker); default-off.
  OverloadOptions overload{};
  /// SLO burn-rate alerting (DESIGN.md section 14): multi-window
  /// error-budget burn evaluated per class over the completed replay, on
  /// the simulated clock. Default-off (enabled = false): no evaluation
  /// runs and no alert rows/keys/families are rendered.
  trace::AlertOptions slo_alerts{};
};

}  // namespace eta::serve
