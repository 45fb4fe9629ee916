// RequestTracer — deterministic per-request causal span trees.
//
// When EtaGraphOptions::trace_requests is on, every emission point in the
// serve path (admission, routing, batching, dispatch, the device retry
// loop, CPU fallback, completion) appends a typed TraceEvent to the
// request's trace. Off, Record() is one untaken branch and the replay is
// bit-identical to an untraced run (enforced by bench_trace_overhead).
//
// The trace id IS the request id; events within a request are in
// emission order, which on the deterministic serve clock is causal
// order. Traces() iterates requests in id order, so the serve report's
// request-trace document (ServeReport::RenderRequestTraceJson) renders
// byte-identical across double runs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/events.hpp"

namespace eta::trace {

class RequestTracer {
 public:
  explicit RequestTracer(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  void Record(const TraceEvent& event) {
    if (!enabled_) return;
    // Fleet-level events (kScale) belong to no request's span tree; the
    // flight recorder keeps them, the per-request tracer drops them.
    if (event.request_id == kFleetEventId) return;
    traces_[event.request_id].push_back(event);
  }

  /// Request id -> events in emission (causal) order. Ordered container:
  /// iteration order is the render order.
  const std::map<uint64_t, std::vector<TraceEvent>>& Traces() const { return traces_; }

 private:
  bool enabled_ = false;
  std::map<uint64_t, std::vector<TraceEvent>> traces_;
};

/// One rendered per-request trace (for embedding in ServeReport without
/// making report.hpp depend on the tracer internals).
std::string RenderTraceEventJson(const TraceEvent& event);

}  // namespace eta::trace
