// ShardedEngine — the serving engine: a fleet of GraphSessions behind one
// admission front.
//
// Every trace replay runs here: N shards (N = 1 is the plain single-device
// server), each owning one simulated device, replayed under one
// deterministic discrete-event loop. Three policies live here:
//
//   Load-aware routing.  An arriving request goes to the live shard with
//   the lowest estimated backlog: the time until the shard is next free
//   plus the sum of its queued requests costed by the same per-algorithm
//   running-mean service-time estimator the cost-model observations feed
//   (ServeReport::cost_observations). Ties break by queue depth, then to
//   the lowest shard index; if the chosen queue is full the next-best shard
//   is tried, and a request is rejected only when every live shard's queue
//   is full.
//
//   Fault-aware routing.  When a shard's device is lost (or staging
//   fails), the shard is quarantined: its queued requests are drained and
//   re-routed to healthy peers at the fault time instead of stalling
//   behind the rebuild, while the in-flight batch retries on the re-staged
//   device under the shard's rebuild budget. A shard whose budget runs dry
//   is dead — drained one last time and never routed to again. When every
//   shard is dead, admission falls through to the CPU reference path, so
//   an admitted request always completes (served or degraded, never lost).
//
//   LRU residency.  Each shard serves the whole graph catalog but keeps at
//   most `device_mem_budget_bytes` of graphs resident, evicting the
//   least-recently-used session to make room (estimated via
//   core::ResidentGraph::EstimateDeviceBytes before paying the build,
//   charged exactly via DeviceBytesPeak after). A single graph larger than
//   the budget may still be staged alone — the budget bounds concurrent
//   residency, it does not make graphs unservable.
//
// Determinism contract: the replay is a pure function of (graph catalog,
// trace, options) — shard count included. Routing, draining, eviction and
// the event order are all derived from the simulated clock and shard
// index, never from host time or iteration order of unordered containers;
// two identically-configured runs render byte-identical reports and
// replay files. A dispatch folds only already-queued compatible requests
// (no batch-window hold): the time a shard spends busy is the natural
// window in which its queue accumulates, and holding N independent windows
// open would couple the shards' clocks.
//
// Async dispatch (ShardedOptions::async_dispatch, DESIGN.md section 11):
// each shard owns a sim::StreamScheduler modelling one compute engine plus
// one copy engine per direction. A dispatch becomes a per-dispatch stream
// (cold staging as a copy op, launch waves as compute ops); while the
// compute engine is busy, the next queued graph pre-stages on its own copy
// stream and records an event the consuming dispatch waits on. The replay
// stays a pure function of its inputs — the stream schedule is derived
// from the same simulated clock, and double runs stay byte-identical. On a
// single-graph catalog the head graph is always resident, no pre-staging
// triggers, and the async replay is byte-identical to the sync one (the
// equivalence scripts/check.sh --async gates); multi-graph catalogs keep
// bit-identical per-request answers while timestamps shift earlier. A
// launch fault fails only its own stream: the dispatch's remaining waves
// cancel at the fault time, pre-stages on other streams keep running, and
// the quarantine/rebuild path proceeds exactly as in the sync dispatcher.
//
// ServeMany itself only validates, builds a fleet::FleetState, runs the
// event loop and finalizes; the stages (admission, routing, dispatch,
// recovery, residency, autoscale, finalize) are functions over that state in
// serve/fleet.hpp — DESIGN.md section 10, "Fleet stages", lists the state,
// the stages and the simulated clock each one advances.
//
// Per-shard fault injection: with ShardedOptions::shard_faults set, shard
// i uses shard_faults[i] verbatim (the way a test pins a device loss to
// one shard — scripted `*_at` one-shots ignore the seed, so without an
// override they would fire on every shard at once). Otherwise each shard
// derives its injector from the base config with seed + shard index, so a
// fleet under random fault rates does not fail in lockstep.
#pragma once

#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "serve/report.hpp"
#include "serve/types.hpp"
#include "sim/fault.hpp"

namespace eta::serve {

/// Most shards the tools and benches accept: each is a simulated device with its own graph.
inline constexpr uint32_t kMaxShards = 64;

struct ShardedOptions {
  /// Per-shard serving knobs (queue capacity, max_batch, rebuild budget,
  /// CPU fallback throughput, graph/device options).
  ServeOptions base{};
  uint32_t shards = 2;
  /// Per-shard resident-graph budget in bytes; 0 = unlimited (no eviction).
  uint64_t device_mem_budget_bytes = 0;
  /// Optional per-shard fault-config overrides: shard i uses
  /// shard_faults[i] when i < shard_faults.size(), else the derived base
  /// config (base.graph.faults with seed + i).
  std::vector<sim::FaultConfig> shard_faults;
  /// Stream-based async dispatch (DESIGN.md section 11): each shard runs a
  /// sim::StreamScheduler; dispatches become small event DAGs (stage op ->
  /// event -> launch waves on a compute stream), and while a shard's
  /// compute engine is busy the dispatcher pre-stages the next queued
  /// graph on the copy stream (build + hoisted topology prefetch), so
  /// staging overlaps compute instead of serializing behind it. Off by
  /// default; the sync path is untouched when false.
  bool async_dispatch = false;

  /// Backlog autoscaling (DESIGN.md section 15). Armed when backlog_ms > 0
  /// and min_shards < shards: the fleet starts with `min_shards` active
  /// shards and scales the active count up/down from the mean backlog
  /// estimate over active live shards — the same signal the brownout
  /// ladder watches — through a HysteresisLadder with thresholds
  /// backlog_ms * 1, * 2, ... (one level per standby shard) and
  /// OverloadOptions::hysteresis. Scale-up activates the lowest-index
  /// standby; scale-down deactivates the highest-index active shard once
  /// it is idle, draining its queue to peers. Sessions stay resident on a
  /// deactivated shard (warm standby). Scale events are recorded on the
  /// simulated clock in active-shard-count units
  /// (ServeReport::scale_events). Default-off: the fixed-fleet event loop
  /// and report bytes are unchanged.
  struct AutoscaleOptions {
    uint32_t min_shards = 1;
    double backlog_ms = 0;
  };
  AutoscaleOptions autoscale{};

  /// True when autoscaling is armed for this fleet configuration.
  bool AutoscaleEnabled() const {
    return autoscale.backlog_ms > 0 && autoscale.min_shards < shards;
  }
};

class ShardedEngine {
 public:
  explicit ShardedEngine(ShardedOptions options = {}) : options_(options) {}

  const ShardedOptions& Options() const { return options_; }

  /// Replays `trace` (sorted by arrival_ms; every Request::graph_id must
  /// index `graphs`) against the fleet and returns the fleet report with
  /// per-shard accounting in report.shard_stats. The per-request outcomes
  /// are in report.results, sorted by request id.
  ServeReport ServeMany(std::span<const graph::Csr* const> graphs,
                        const std::vector<Request>& trace) const;

  /// Single-graph convenience: the catalog is just `csr` (graph_id 0).
  ServeReport Serve(const graph::Csr& csr, const std::vector<Request>& trace) const;

 private:
  ShardedOptions options_;
};

}  // namespace eta::serve
