// etatrace event model (DESIGN.md section 14).
//
// One fixed-size POD event per request-lifecycle edge. The same struct
// feeds both consumers: the per-request causal tracer (opt-in,
// EtaGraphOptions::trace_requests) and the always-on bounded flight
// recorder. Keeping the payload fixed (no strings, no heap) is what lets
// the flight recorder be a plain ring of structs with wrap-around and a
// deterministic dump.
//
// Every timestamp is on the simulated serve clock; a trace id is the
// request id (Request::id) — no wall clock anywhere, so double runs of
// the same replay produce byte-identical traces.
#pragma once

#include <cstdint>

namespace eta::trace {

/// One lifecycle edge of a request. The `a`/`b`/`c` payload fields are
/// kind-specific (documented per enumerator); `status` doubles as the
/// decision sub-reason or the terminal QueryStatus.
enum class EventKind : uint8_t {
  /// Request entered a queue. a = queue depth after admit,
  /// b = router backlog estimate at admit.
  kAdmit = 0,
  /// Rejected at admission (queue full / fleet unavailable).
  /// a = queue depth, b = queue capacity.
  kReject,
  /// Shed by the admission controller. status = shed reason
  /// (ShedReason), a = backlog estimate ms, b = service estimate ms,
  /// c = SLO target ms — the exact inputs the controller compared.
  kShed,
  /// Brownout ladder degraded this request to the CPU path.
  /// a = backlog estimate ms, b = ladder level, c = SLO target ms.
  kBrownout,
  /// One shard considered during routing. shard = candidate index,
  /// a = its backlog estimate ms, b = its queue depth,
  /// c = 1 if the breaker allowed it, 0 if it blocked.
  kRouteCandidate,
  /// Routing decision. shard = chosen index, a = chosen backlog ms,
  /// b = best (minimum) backlog among candidates.
  kRoute,
  /// Queueing deadline passed before dispatch. a = deadline ms.
  kTimeout,
  /// Request left the queue in a device dispatch. shard = executing
  /// shard, a = batch size, b = queue wait ms, c = service estimate ms.
  kDispatch,
  /// One attributed multi-source wave executed for this request.
  /// a = wave size, b = wave duration ms, c = 1 if the wave failed,
  /// op_id = stream-DAG op index of the launch (async dispatch; -1 sync).
  kWave,
  /// One failed device attempt inside the retry loop. status =
  /// FaultClass, a = attempt number (0-based), b = backoff charged ms,
  /// c = 1 if the retry budget denied the retry.
  kFault,
  /// Session torn down and re-staged. a = rebuilds remaining after,
  /// c = 1 if the rebuild budget denied it (teardown without rebuild).
  kRebuild,
  /// Re-routed off a quarantined/dead shard. shard = new shard.
  kReroute,
  /// Served by the host CPU reference (degraded answer).
  /// a = CPU service ms, b = 1 if the whole fleet was dead.
  kCpuFallback,
  /// Terminal edge. status = QueryStatus, a = end-to-end latency ms,
  /// b = reached vertices, c = batch size.
  kComplete,
  /// Served from the whole-graph memo table (DESIGN.md section 15), at
  /// zero device cost. shard = serving shard, a = memo entry age ms,
  /// b = memoized reached count.
  kMemo,
  /// Fleet scale event (backlog autoscaling). Not tied to a request:
  /// request_id = kFleetEventId. a = active shards before, b = active
  /// shards after, c = the backlog signal that drove the transition.
  kScale,
};

/// Sentinel request id for fleet-level events (kScale): the flight
/// recorder keeps them, the per-request tracer ignores them (they belong
/// to no request's span tree).
inline constexpr uint64_t kFleetEventId = UINT64_MAX;

/// kShed sub-reasons (TraceEvent::status).
enum class ShedReason : uint8_t {
  kPredictive = 0,  // backlog + estimate provably misses the SLO target
  kPressure,        // pressure ladder level shed this class
  kQueueFull,       // chosen shard's queue full, class below gold
};

/// kFault sub-classes (TraceEvent::status); mirrors the injected fault
/// taxonomy of DESIGN.md section 8.
enum class FaultClass : uint8_t {
  kOther = 0,
  kEccUncorrectable,
  kKernelTimeout,
  kDeviceLost,
};

/// Fixed-size POD trace event. 48 bytes; safe to memcpy into the flight
/// recorder ring.
struct TraceEvent {
  uint64_t request_id = 0;
  double at_ms = 0;        // simulated serve clock
  double a = 0, b = 0, c = 0;  // kind-specific payload, see EventKind
  int64_t op_id = -1;      // stream-DAG op index (kWave under async)
  int16_t shard = -1;      // shard index where meaningful, -1 otherwise
  EventKind kind = EventKind::kAdmit;
  uint8_t status = 0;      // kind-specific sub-code, see EventKind
};

/// Stable lower-case name used in JSON and flight-recorder dumps.
const char* EventKindName(EventKind kind);
/// Stable sub-code name for kinds that use one ("" otherwise).
const char* EventStatusName(EventKind kind, uint8_t status);

}  // namespace eta::trace
