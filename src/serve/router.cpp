#include "serve/router.hpp"

#include <algorithm>

#include "serve/fleet.hpp"
#include "util/check.hpp"

namespace eta::serve {

ServeReport ShardedEngine::Serve(const graph::Csr& csr,
                                 const std::vector<Request>& trace) const {
  const graph::Csr* catalog[] = {&csr};
  return ServeMany(catalog, trace);
}

/// The fleet's event loop. Each tick, in order: refill the retry budget,
/// autoscale, admit the arrivals due, re-route deferred requests, expire
/// deadlines, and dispatch every idle shard with work (then tick again at
/// the same instant). Only when nothing dispatched do busy shards pre-stage
/// and the clock advance to the next wake-up.
ServeReport ShardedEngine::ServeMany(std::span<const graph::Csr* const> graphs,
                                     const std::vector<Request>& trace) const {
  ETA_CHECK(!graphs.empty());
  ETA_CHECK(options_.shards >= 1);
  for (size_t i = 0; i < trace.size(); ++i) {
    if (i > 0) ETA_CHECK(trace[i - 1].arrival_ms <= trace[i].arrival_ms);
    ETA_CHECK(trace[i].graph_id < graphs.size());
  }

  fleet::FleetState f(options_, graphs);
  f.report.total_requests = trace.size();
  f.report.results.reserve(trace.size());
  size_t next = 0;  // first trace entry that has not yet arrived
  double now = 0;
  while (true) {
    if (f.retry_budget != nullptr) f.retry_budget->Advance(now);
    // Scale the active fleet off the backlog signal before admitting: an
    // arrival burst that pushed the estimate over threshold last tick is
    // routed across the grown fleet this tick.
    fleet::UpdateAutoscale(f, now);
    for (; next < trace.size() && trace[next].arrival_ms <= now; ++next) {
      fleet::Admit(f, trace[next], now, /*rerouted=*/false);
    }
    fleet::AdmitDeferred(f, now);
    fleet::ExpireDeadlines(f, now);
    if (fleet::DispatchReady(f, now)) continue;
    // Busy shards overlap staging with their in-flight compute.
    for (fleet::Shard& s : f.shards) fleet::Prestage(f, s, now);
    double next_t = fleet::NextWakeup(f, now);
    if (next < trace.size()) next_t = std::min(next_t, trace[next].arrival_ms);
    if (next_t == fleet::kInf) break;
    now = std::max(now, next_t);
  }
  ServeReport report = fleet::Finalize(f, now);
  ETA_CHECK(report.results.size() == trace.size());
  return report;
}

}  // namespace eta::serve
