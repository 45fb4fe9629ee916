// etatrace serve-side finalizers (DESIGN.md section 14): fold the
// per-request tracer, the always-on flight recorder, and the burn-rate
// alert evaluation into a finished ServeReport (called by ShardedEngine at
// the end of every replay).
#pragma once

#include "serve/report.hpp"
#include "serve/types.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/tracer.hpp"

namespace eta::serve {

/// Finalizes the trace side of `report` after results are sorted:
/// - copies the tracer's per-request traces (traced runs);
/// - appends the end-of-replay flight-recorder snapshot to
///   report->blackbox (always — the black box is never empty);
/// - computes per-algo latency exemplars (the slowest completed request's
///   trace id; ties resolve to the lowest id) and registers the
///   serve_latency_exemplar_request family (traced runs only);
/// - registers the serve_latency_p999_ms gauge (always; identical on/off,
///   so the zero-cost contract is untouched);
/// - merges per-request Chrome-trace tracks onto the serve clock when the
///   replay was both traced and profiled.
/// Untraced output carries no trace vocabulary: every traced-only block
/// is gated on tracer.enabled().
void FinalizeTraceReport(const ServeOptions& options, const trace::RequestTracer& tracer,
                         const trace::FlightRecorder& recorder, double end_ms,
                         ServeReport* report);

/// Evaluates multi-window SLO burn-rate alerts per class over the
/// replay's completions and fills report->alerts plus the serve_alert_*
/// Prometheus families. No-op unless alert_options.enabled, so a run
/// without alerts never carries an alert row/key/family.
void EvaluateSloAlerts(const OverloadOptions& options,
                       const trace::AlertOptions& alert_options, ServeReport* report);

}  // namespace eta::serve
