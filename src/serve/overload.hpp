// Overload-control building blocks (DESIGN.md §13): the hysteretic ladders
// behind pressure shedding and brownout, the per-shard circuit breaker, and
// the report finalizer that turns per-request outcomes into per-SLO-class
// accounting and Prometheus families.
//
// Everything here is plain deterministic state driven by the simulated
// clock — no wall time, no randomness — so double runs replay
// byte-identically. The router owns the integration (admission precedence,
// probe dispatches); these classes only hold the state machines.
#pragma once

#include <cstdint>
#include <vector>

#include "core/retry_budget.hpp"
#include "serve/report.hpp"
#include "serve/types.hpp"

namespace eta::serve {

/// A multi-level threshold ladder with hysteresis. Level L (1-based) is
/// entered when the observed value reaches enter_thresholds[L-1] and left
/// only when the value drops below enter_thresholds[L-1] * hysteresis —
/// so a value oscillating around a threshold cannot flap the level. A
/// non-positive threshold disables that level and all above it. Both the
/// brownout ladder and the class-ordered pressure-shed ladder are
/// instances; every level change is recorded with its simulated timestamp.
///
/// Multi-level jumps: a single observation that crosses two or more
/// thresholds records exactly ONE transition ({from, to} spanning the whole
/// jump), not one per level — a transition is "the level changed at this
/// observation", and consumers (report renderers, burn-rate/trace readers,
/// the autoscaler) count transitions, not levels crossed. Pinned by
/// OverloadTest.LadderMultiLevelJumpRecordsOneTransition.
class HysteresisLadder {
 public:
  HysteresisLadder(std::vector<double> enter_thresholds, double hysteresis);

  /// Observe `value` at `now_ms`; returns the (possibly new) level.
  uint32_t Update(double value, double now_ms);

  uint32_t level() const { return level_; }
  uint32_t max_level() const { return max_level_; }
  const std::vector<LadderTransition>& transitions() const { return transitions_; }

 private:
  std::vector<double> enter_;
  double hysteresis_;
  uint32_t level_ = 0;
  uint32_t max_level_ = 0;
  std::vector<LadderTransition> transitions_;
};

/// Per-shard circuit breaker. Closed shards route normally. A dispatch-level
/// device failure opens the breaker: the router drains the shard's queue and
/// routes around it for a cooldown that grows by `backoff` per consecutive
/// failure. When the cooldown expires the breaker half-opens: the router may
/// admit a single probe request (AllowRoute answers true only while the
/// shard's queue is empty); the probe dispatch's outcome closes the breaker
/// (full traffic returns) or re-opens it for a longer cooldown.
class CircuitBreaker {
 public:
  struct Options {
    double cooldown_ms = 0;  // 0 disables the breaker entirely
    double backoff = 2.0;
  };
  enum class State : uint8_t { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(Options options) : options_(options) {}

  bool Enabled() const { return options_.cooldown_ms > 0; }

  /// Routing gate, called per candidate shard at admission. May transition
  /// kOpen -> kHalfOpen when the cooldown has expired.
  bool AllowRoute(double now_ms, bool queue_empty);

  /// Side-effect-free preview of AllowRoute, for backlog estimation passes
  /// that must not consume the half-open transition or count probes.
  bool WouldAllow(double now_ms, bool queue_empty) const;

  /// Called by the router when a request is actually admitted into a shard
  /// whose breaker is half-open: that admission IS the probe dispatch, so
  /// this is the single place probes are counted (AllowRoute only gates).
  void OnProbeAdmitted();

  void OnDispatchSuccess();
  void OnDispatchFailure(double now_ms);

  State state() const { return state_; }
  uint64_t opens() const { return opens_; }
  uint64_t probes() const { return probes_; }
  uint64_t probe_failures() const { return probe_failures_; }

 private:
  Options options_;
  State state_ = State::kClosed;
  double open_until_ms_ = 0;
  uint32_t consecutive_failures_ = 0;
  uint64_t opens_ = 0;
  uint64_t probes_ = 0;
  uint64_t probe_failures_ = 0;
};

/// Fills the overload side of a finished report from its per-request
/// results: configured-feature flags, retry-budget counters (from `budget`,
/// may be null), per-class SloStat rows, report->shedded, and the
/// per-class / brownout / budget / breaker Prometheus families. Brownout and
/// breaker counters in report->overload must already be set by the engine.
/// With every overload feature off and a classless trace this appends
/// nothing: the report carries no overload row, key or family.
void FinalizeOverloadReport(const OverloadOptions& options, const core::RetryBudget* budget,
                            ServeReport* report);

}  // namespace eta::serve
