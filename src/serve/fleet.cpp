#include "serve/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <tuple>

#include "prof/trace_export.hpp"
#include "serve/batcher.hpp"
#include "serve/metrics.hpp"
#include "serve/observe.hpp"
#include "util/check.hpp"
#include "verify/verify.hpp"

namespace eta::serve::fleet {
namespace {

uint64_t ToMicros(double ms) {
  return static_cast<uint64_t>(std::llround(std::max(0.0, ms) * 1000.0));
}

std::vector<double> QueueDepthBuckets() { return {0, 1, 2, 4, 8, 16, 32, 64}; }
std::vector<double> CycleBuckets() {
  return {1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9};
}

std::vector<double> ScaleThresholds(const ShardedOptions& options) {
  std::vector<double> thresholds;
  if (!options.AutoscaleEnabled()) return thresholds;
  for (uint32_t k = 1; k <= options.shards - options.autoscale.min_shards; ++k) {
    thresholds.push_back(options.autoscale.backlog_ms * k);
  }
  return thresholds;
}

std::string ShardName(const Shard& s) { return "shard" + std::to_string(s.stat.shard); }

trace::TraceEvent MakeEvent(uint64_t id, trace::EventKind kind, double at_ms, int shard = -1) {
  trace::TraceEvent e;
  e.request_id = id;
  e.kind = kind;
  e.at_ms = at_ms;
  e.shard = static_cast<int16_t>(shard);
  return e;
}

QueryResult MakeResult(const Request& r, QueryStatus status, double start_ms = 0,
                       double finish_ms = 0) {
  QueryResult q;
  q.id = r.id;
  q.status = status;
  q.algo = r.algo;
  q.source = r.source;
  q.arrival_ms = r.arrival_ms;
  q.start_ms = start_ms;
  q.finish_ms = finish_ms;
  q.slo = r.slo;
  return q;
}

/// Alive and not on warm standby: the shards that route and dispatch.
bool Serving(const Shard& s) { return s.active && !s.stat.dead; }

/// Shards still alive; with `active_only`, only those not on standby.
uint32_t LiveShards(const FleetState& f, bool active_only) {
  uint32_t n = 0;
  for (const Shard& s : f.shards) {
    if (!s.stat.dead && (s.active || !active_only)) ++n;
  }
  return n;
}

/// The routing estimate: time until the shard is next free plus its queued
/// work costed by the running-mean estimator.
double BacklogMs(const FleetState& f, const Shard& s, double now) {
  double b = std::max(0.0, s.free_at - now);
  for (const auto& [algo, n] : s.queued_by_algo) b += static_cast<double>(n) * EstimateMs(f, algo);
  return b;
}

void CountQuery(FleetState& f, core::Algo algo, QueryStatus status) {
  f.report.metrics
      .GetCounter("serve_queries_total", "Requests by algorithm and terminal status.",
                  {{"algo", core::AlgoName(algo)}, {"status", QueryStatusName(status)}})
      .Inc();
}

void ObserveMs(FleetState& f, const char* name, const char* help, core::Algo algo,
               double ms) {
  f.report.metrics.GetHistogram(name, help, LatencyBucketsMs(), {{"algo", core::AlgoName(algo)}})
      .Observe(ms);
}

void ObserveQueueWait(FleetState& f, core::Algo algo, double ms) {
  ObserveMs(f, "serve_queue_wait_ms", "Time from arrival to dispatch (or expiry) per request.",
            algo, ms);
}

/// Terminal edge shared by every outcome path.
void EmitComplete(FleetState& f, const QueryResult& q) {
  trace::TraceEvent e = MakeEvent(q.id, trace::EventKind::kComplete, q.finish_ms);
  e.status = static_cast<uint8_t>(q.status);
  e.a = q.LatencyMs();
  e.b = static_cast<double>(q.reached_vertices);
  e.c = static_cast<double>(q.batch_size);
  f.sink.Emit(e);
}

/// Flight-recorder trigger: snapshots the event ring into the report.
void DumpBlackbox(FleetState& f, const char* reason, double t, uint64_t victim) {
  f.report.blackbox.push_back({reason, t, victim, f.recorder.Dump(reason, t, victim)});
}

void Reject(FleetState& f, const Request& r) {
  const QueryResult q = MakeResult(r, QueryStatus::kRejected);
  f.report.results.push_back(q);
  ++f.report.rejected;
  CountQuery(f, r.algo, QueryStatus::kRejected);
  trace::TraceEvent e = MakeEvent(r.id, trace::EventKind::kReject, r.arrival_ms);
  double queued = 0;
  for (const Shard& s : f.shards) {
    if (!s.stat.dead) queued += static_cast<double>(s.queue.Depth());
  }
  e.a = queued;
  e.b = static_cast<double>(f.base.queue_capacity);
  f.sink.Emit(e);
  EmitComplete(f, q);
}

/// Shed at admission: a terminal answer stamped at the decision time — the
/// request never queues, so no device (or deadline-sweep) work is wasted on
/// it. report.shedded is tallied from results in FinalizeOverloadReport.
void Shed(FleetState& f, const Request& r, double when_ms, trace::ShedReason reason,
          double backlog, double target) {
  const QueryResult q = MakeResult(r, QueryStatus::kShedded, when_ms, when_ms);
  f.report.results.push_back(q);
  CountQuery(f, r.algo, QueryStatus::kShedded);
  trace::TraceEvent e = MakeEvent(r.id, trace::EventKind::kShed, when_ms);
  e.status = static_cast<uint8_t>(reason);
  // An unroutable fleet has an infinite backlog estimate; the rendered
  // JSON carries -1 (no Inf literals in JSON).
  e.a = backlog == kInf ? -1 : backlog;
  e.b = EstimateMs(f, r.algo);
  e.c = target;
  f.sink.Emit(e);
  EmitComplete(f, q);
}

void TimeOut(FleetState& f, const Request& r, double when_ms) {
  const QueryResult q = MakeResult(r, QueryStatus::kTimedOut, when_ms, when_ms);
  f.report.results.push_back(q);
  ++f.report.timed_out;
  CountQuery(f, r.algo, QueryStatus::kTimedOut);
  ObserveQueueWait(f, r.algo, q.QueueMs());
  trace::TraceEvent e = MakeEvent(r.id, trace::EventKind::kTimeout, when_ms);
  e.a = r.StartDeadline();
  f.sink.Emit(e);
  EmitComplete(f, q);
}

/// Answers `r` on the host CPU from `start`; the caller records it.
QueryResult ServeCpu(FleetState& f, const Request& r, double start, bool fleet_wide) {
  const double cpu_ms = f.cpu_query_ms[r.graph_id];
  QueryResult q = MakeResult(r, QueryStatus::kDegraded, start, start + cpu_ms);
  q.reached_vertices = CpuAnswer(*f.graphs[r.graph_id], r.algo, r.source);
  ++f.report.degraded;
  if (f.profiling) {
    prof::TraceSpan span{"serve/cpu-fallback", std::string(core::AlgoName(r.algo)),
                         q.start_ms, q.finish_ms, {}};
    span.args.push_back({"request", std::to_string(r.id), /*number=*/true});
    f.report.trace_spans.push_back(std::move(span));
  }
  trace::TraceEvent e = MakeEvent(r.id, trace::EventKind::kCpuFallback, start);
  e.a = cpu_ms;
  e.b = fleet_wide ? 1 : 0;
  f.sink.Emit(e);
  return q;
}

/// Records one completed result with the full metrics treatment (the cost
/// model sees `estimate_ms`, the prediction made before the dispatch that
/// produced the result).
void RecordResult(FleetState& f, const QueryResult& q, double estimate_ms,
                  double cycles_per_query) {
  ServeReport& report = f.report;
  ++report.completed;
  report.reached_total += q.reached_vertices;
  report.latency_us.Add(ToMicros(q.LatencyMs()));
  report.queue_wait_us.Add(ToMicros(q.QueueMs()));
  CountQuery(f, q.algo, q.status);
  ObserveQueueWait(f, q.algo, q.QueueMs());
  ObserveMs(f, "serve_service_ms", "Time from dispatch to completion per request.", q.algo,
            q.finish_ms - q.start_ms);
  ObserveMs(f, "serve_latency_ms", "End-to-end time from arrival to completion.", q.algo,
            q.LatencyMs());
  // batch_size == 0 means no device launch produced this answer (a memo
  // hit): feeding its zero latency into the running mean would drag the
  // estimator — and every routing/EDF/shed decision built on it — to 0.
  if (q.status == QueryStatus::kOk && q.batch_size > 0) {
    const double actual_ms = q.finish_ms - q.start_ms;
    CostAgg& agg = f.cost[q.algo];
    ++agg.queries;
    agg.service_sum += actual_ms;
    agg.abs_err_sum += std::abs(actual_ms - estimate_ms);
    agg.cycles_sum += cycles_per_query;
    report.metrics
        .GetHistogram("serve_cost_error_ms",
                      "Absolute error of the running-mean service-time estimator.",
                      LatencyBucketsMs(), {{"algo", core::AlgoName(q.algo)}})
        .Observe(std::abs(actual_ms - estimate_ms));
    report.metrics
        .GetHistogram("serve_query_cycles", "Device cycles attributed per device-served query.",
                      CycleBuckets(), {{"algo", core::AlgoName(q.algo)}})
        .Observe(cycles_per_query);
  }
  if (f.profiling && q.QueueMs() > 0) {
    prof::TraceSpan span{"serve/queue", std::string(core::AlgoName(q.algo)), q.arrival_ms,
                         q.start_ms, {}};
    span.args.push_back({"request", std::to_string(q.id), /*number=*/true});
    report.trace_spans.push_back(std::move(span));
  }
  f.max_finish = std::max(f.max_finish, q.finish_ms);
  EmitComplete(f, q);
  report.results.push_back(q);
}

/// Serves `r` on the fleet-wide serial CPU timeline — the terminal fallback
/// when no shard can take it (all dead, or every queue full on a re-route).
void ServeCpuGlobal(FleetState& f, const Request& r, double now) {
  f.cpu_free_at = std::max(f.cpu_free_at, now);
  const QueryResult q = ServeCpu(f, r, f.cpu_free_at, /*fleet_wide=*/true);
  f.cpu_free_at = q.finish_ms;
  RecordResult(f, q, EstimateMs(f, r.algo), 0);
}

/// The admission controller's fleet backlog estimate: the least estimated
/// backlog over shards a request could actually route to (kInf when none
/// is routable). Uses the breaker's side-effect-free preview so the
/// estimate never consumes a half-open probe slot.
double MinBacklogMs(const FleetState& f, double now) {
  double b = kInf;
  for (const Shard& s : f.shards) {
    if (!Serving(s) || !s.breaker.WouldAllow(now, s.queue.Empty())) continue;
    b = std::min(b, BacklogMs(f, s, now));
  }
  return b;
}

/// Slices the device spans and kernel profiles `rs` recorded since the last
/// capture onto the serve clock (device time `device_from` = `serve_start`).
void CaptureDeviceSlice(FleetState& f, const Shard& s, ResidentSession& rs,
                        double serve_start, double device_from) {
  if (!f.profiling || rs.session == nullptr) return;
  const double offset = serve_start - device_from;
  // Track "shardN" splits into per-engine threads (compute, copy-h2d,
  // copy-d2h, kernels) in the exporter — the per-stream view of DESIGN.md
  // section 11 rather than one merged device track.
  const std::string track = ShardName(s);
  const auto& spans = rs.session->DeviceTimeline().Spans();
  prof::AppendTimelineSpans(std::span<const sim::Span>(spans).subspan(rs.spans_done), track,
                            offset, &f.report.trace_spans);
  rs.spans_done = spans.size();
  if (const sim::LaunchProfiler* prof = rs.session->Profiler()) {
    prof::AppendKernelSpans(
        std::span<const sim::KernelProfile>(prof->Launches()).subspan(rs.launches_done),
        track, offset, &f.report.trace_spans);
    rs.launches_done = prof->Launches().size();
  }
}

/// etaverify: registers this staging epoch's allocations and annotates the
/// staging copy just enqueued as writing both (it materializes the topology
/// and the session's device state). No-op when the DAG log is off.
void RegisterStageAllocs(Shard& s, ResidentSession& rs) {
  if (s.streams == nullptr || !s.streams->DagLogEnabled()) return;
  const std::string name = ShardName(s) + "/g" + std::to_string(rs.graph_id) + "#" +
                           std::to_string(s.stage_epochs++);
  rs.topo_alloc = s.streams->RegisterAlloc(name + "/topo");
  rs.state_alloc = s.streams->RegisterAlloc(name + "/state");
  s.streams->AnnotateLastOp({{rs.topo_alloc, true}, {rs.state_alloc, true}});
}

/// Shuts a session down and folds its etacheck report into the fleet's.
void ShutdownSession(FleetState& f, GraphSession& session) {
  session.Shutdown();
  if (const sanitizer::SanitizerReport* c = session.CheckReport()) f.report.check.Merge(*c);
}

/// Tears one resident session down, releasing its residency accounting.
void RetireSession(FleetState& f, Shard& s, size_t idx) {
  ResidentSession& rs = s.sessions[idx];
  ShutdownSession(f, *rs.session);
  s.resident_bytes -= rs.resident_bytes;
  // The memoized whole-graph answers rode on this staging epoch; a
  // rebuilt/re-staged session must recompute them.
  for (auto it = s.memo.begin(); it != s.memo.end();) {
    it = it->first.first == rs.graph_id ? s.memo.erase(it) : std::next(it);
  }
  s.sessions.erase(s.sessions.begin() + static_cast<long>(idx));
}

void RetireAllSessions(FleetState& f, Shard& s) {
  while (!s.sessions.empty()) RetireSession(f, s, s.sessions.size() - 1);
}

/// Builds (stages) `graph_id` for `s`, not yet resident.
ResidentSession NewSession(FleetState& f, const Shard& s, uint32_t graph_id) {
  ResidentSession rs;
  rs.graph_id = graph_id;
  rs.session = std::make_unique<GraphSession>(*f.graphs[graph_id], s.graph_options);
  rs.last_used = ++f.lru_tick;
  return rs;
}

/// Makes a staged session resident, charging its bytes to the shard.
ResidentSession& AddResident(Shard& s, ResidentSession rs) {
  s.resident_bytes += rs.resident_bytes;
  s.stat.peak_resident_bytes = std::max(s.stat.peak_resident_bytes, s.resident_bytes);
  if (!s.staged_graphs.insert(rs.graph_id).second) ++s.stat.reloads;
  s.sessions.push_back(std::move(rs));
  return s.sessions.back();
}

/// One dispatch in flight: the folded batch, the requests the device has
/// not answered yet, what it did answer, and the shard-local clock `t` its
/// attempts advance.
struct DispatchRun {
  core::Algo algo = core::Algo::kBfs;
  uint32_t graph_id = 0;
  std::vector<Request> pending;
  std::vector<QueryResult> outcomes;
  double estimate_ms = 0;
  double t = 0;
  double cycles = 0;
};

/// Whole-graph memoization (DESIGN.md section 15): a CC/PageRank answer
/// carries no per-source attribution, so an identical request inside the
/// memo window replays the memoized answer at zero simulated device cost —
/// the shard clock is not charged and no batch forms, so the event loop
/// immediately dispatches the next queued request at the same instant. The
/// cost estimator never sees these (batch_size == 0).
bool AnswerFromMemo(FleetState& f, Shard& s, const Request& head, double now) {
  if (f.base.memo_window_ms <= 0 || !core::IsWholeGraph(head.algo)) return false;
  const auto it = s.memo.find({head.graph_id, head.algo});
  if (it == s.memo.end() || now - it->second.computed_at > f.base.memo_window_ms) return false;
  QueryResult q = MakeResult(head, QueryStatus::kOk, now, now);
  q.reached_vertices = it->second.reached;  // batch_size 0: no device launch
  ++f.report.memo_hits;
  trace::TraceEvent e = MakeEvent(head.id, trace::EventKind::kMemo, now, s.stat.shard);
  e.a = now - it->second.computed_at;
  e.b = static_cast<double>(it->second.reached);
  f.sink.Emit(e);
  RecordResult(f, q, EstimateMs(f, head.algo), 0);
  return true;
}

/// Folds already-queued compatible requests behind `head` into one batch
/// and accounts the dispatch. ExecuteBatch wave-splits past
/// kMaxAttributedSources, so the fold limit is max_batch alone.
DispatchRun FoldBatch(FleetState& f, Shard& s, const Request& head, double now) {
  DispatchRun run;
  run.algo = head.algo;
  run.graph_id = head.graph_id;
  run.pending.push_back(head);
  const uint32_t limit = std::max<uint32_t>(f.base.max_batch, 1);
  if (!core::IsWholeGraph(run.algo) && limit > 1) {
    std::vector<Request> more = s.queue.PopCompatible(run.algo, run.graph_id, limit - 1);
    for (const Request& r : more) --s.queued_by_algo[r.algo];
    run.pending.insert(run.pending.end(), more.begin(), more.end());
  }
  f.report.batch_occupancy.Add(run.pending.size());
  f.report.queue_depth.Add(s.queue.Depth());
  ++f.report.batches;
  ++s.stat.dispatches;
  f.report.metrics
      .GetHistogram("serve_batch_size", "Requests folded into one dispatch.", BatchSizeBuckets())
      .Observe(static_cast<double>(run.pending.size()));
  f.report.metrics
      .GetHistogram("serve_queue_depth", "Queue depth sampled at each dispatch.",
                    QueueDepthBuckets())
      .Observe(static_cast<double>(s.queue.Depth()));
  run.estimate_ms = EstimateMs(f, run.algo);
  run.t = now;
  return run;
}

/// Async dispatch: each ExecuteBatch attempt runs as a DAG on a fresh
/// stream — staging copy (or a wait on the pre-stage event), then the
/// launch waves as compute ops. Fresh per attempt, because a wave fault
/// fails its stream for good; the engine FIFOs carry the persistent
/// serialization across dispatches. Invalid under the sync dispatcher.
sim::Stream NewDispatchStream(FleetState& f, Shard& s) {
  if (!f.async) return {};
  // The host only reaches this point once it observed the previous
  // dispatch stream complete (free_at gating, or the quarantine loop
  // retrying after the attempt's fault time): record that knowledge as a
  // join, so cross-dispatch accesses are ordered in the DAG log.
  if (s.last_dispatch.valid) s.streams->HostJoin(s.last_dispatch);
  s.last_dispatch =
      s.streams->CreateStream(ShardName(s) + "-dispatch" + std::to_string(s.dispatch_seq++));
  return s.last_dispatch;
}

/// Runs the still-pending requests on `rs` once, appending what the device
/// answered and leaving in `run.pending` what a device failure left over.
void Execute(FleetState& f, Shard& s, DispatchRun& run, ResidentSession& rs,
             sim::Stream dstream) {
  const double dispatch_start = run.t;
  const double device_before = rs.session->NowMs();
  BatchStreamContext ctx;
  ctx.streams = s.streams.get();
  ctx.stream = dstream;
  ctx.topo_alloc = rs.topo_alloc;
  ctx.state_alloc = rs.state_alloc;
  // One kDispatch per request per attempt: a rebuild-then-retry shows up
  // as a second dispatch edge in the span tree.
  for (const Request& r : run.pending) {
    trace::TraceEvent e = MakeEvent(r.id, trace::EventKind::kDispatch, run.t, s.stat.shard);
    e.a = static_cast<double>(run.pending.size());
    e.b = run.t - r.arrival_ms;
    e.c = run.estimate_ms;
    f.sink.Emit(e);
  }
  const BatchTraceContext tctx{&f.sink, static_cast<int16_t>(s.stat.shard),
                               f.tracer.enabled()};
  BatchOutcome out = ExecuteBatch(*rs.session, Batch{run.algo, run.graph_id, run.pending},
                                  run.t, f.async ? &ctx : nullptr, &tctx);
  f.report.faults.Merge(out.faults);
  s.stat.launch_failures += out.faults.launch_failures;
  run.t += out.duration_ms;
  run.cycles += out.cycles;
  CaptureDeviceSlice(f, s, rs, dispatch_start, device_before);
  if (f.async) rs.busy_until = std::max(rs.busy_until, run.t);
  // The device fell off the bus mid-batch.
  if (out.faults.device_lost && !out.unserved.empty()) {
    DumpBlackbox(f, "device-lost", run.t, out.unserved.front().id);
  }
  run.pending = std::move(out.unserved);
  for (QueryResult& q : out.results) run.outcomes.push_back(std::move(q));
}

/// One device attempt: a fresh dispatch stream, the session (staged if
/// needed), one execution. Returns nullptr when staging itself failed.
ResidentSession* Attempt(FleetState& f, Shard& s, DispatchRun& run) {
  const sim::Stream dstream = NewDispatchStream(f, s);
  ResidentSession* rs = EnsureSession(f, s, run.graph_id, run.t, dstream);
  if (rs != nullptr) Execute(f, s, run, *rs, dstream);
  return rs;
}

bool Healthy(const ResidentSession* rs) { return rs != nullptr && rs->session->Healthy(); }

/// Recovery, rebuild: quarantines the shard — its queue drains to peers,
/// every resident session is torn down (device loss takes the whole
/// device) — so the in-flight remainder can retry on a re-staged device.
/// The fleet-wide retry budget gates it: a rebuild re-stages a whole graph,
/// the most load-amplifying recovery step, so a dry bucket defers recovery
/// (the shard keeps its fast-failing session and its rebuild budget, the
/// remainder degrades to the CPU, and a later dispatch rebuilds once tokens
/// refill). Returns false when the budget denied the rebuild.
bool Rebuild(FleetState& f, Shard& s, DispatchRun& run) {
  const bool denied = f.retry_budget != nullptr && !f.retry_budget->TryAcquireRebuild();
  if (!denied) {
    DrainQueue(f, s, run.t);
    --s.rebuilds_left;
    ++s.stat.rebuilds;
    ++f.report.session_rebuilds;
    RetireAllSessions(f, s);
  }
  trace::TraceEvent e =
      MakeEvent(run.pending.front().id, trace::EventKind::kRebuild, run.t, s.stat.shard);
  e.a = static_cast<double>(s.rebuilds_left);
  e.c = denied ? 1 : 0;  // 1: rebuild budget denied — recovery abandoned
  f.sink.Emit(e);
  return !denied;
}

/// Recovery after the first attempt: rebuild-and-retry while the shard has
/// rebuilds left, then the dead-shard and breaker transitions.
void Recover(FleetState& f, Shard& s, DispatchRun& run, ResidentSession* rs) {
  while (!run.pending.empty() && s.rebuilds_left > 0 && !Healthy(rs)) {
    if (!Rebuild(f, s, run)) break;
    rs = Attempt(f, s, run);
  }
  if (!run.pending.empty() && !Healthy(rs) && s.rebuilds_left == 0) {
    // Rebuild budget exhausted: the shard is dead. Drain whatever queued
    // after the last drain and route around it for good.
    s.stat.dead = true;
    DumpBlackbox(f, "shard-dead", run.t, run.pending.front().id);
    DrainQueue(f, s, run.t);
    RetireAllSessions(f, s);
  }
  // Circuit breaker: a dispatch whose device path ended unhealthy opens the
  // shard's breaker (quarantine with cooldown, then a half-open probe); a
  // healthy end closes it — including a successful probe. The open
  // transition drains the queue to peers, mirroring the dead-shard
  // quarantine. No-ops entirely when the breaker is unconfigured.
  if (!s.breaker.Enabled() || s.stat.dead) return;
  if (Healthy(rs)) {
    s.breaker.OnDispatchSuccess();
    return;
  }
  const uint64_t opens_before = s.breaker.opens();
  s.breaker.OnDispatchFailure(run.t);
  // Dump once per open transition (not on every failed dispatch while
  // already open).
  if (s.breaker.opens() > opens_before) {
    DumpBlackbox(f, "breaker-open", run.t, run.pending.empty() ? 0 : run.pending.front().id);
  }
  DrainQueue(f, s, run.t);
}

/// Serves what the device path could not answer on the CPU, on this shard's
/// timeline (it owned the requests), then records every outcome and fills
/// the memo.
void Complete(FleetState& f, Shard& s, DispatchRun& run, double now) {
  for (const Request& r : run.pending) {
    run.outcomes.push_back(ServeCpu(f, r, run.t, /*fleet_wide=*/false));
    run.t += f.cpu_query_ms[r.graph_id];
    ++s.stat.degraded;
  }
  uint64_t served_on_device = 0;
  for (const QueryResult& q : run.outcomes) {
    if (q.status == QueryStatus::kOk) ++served_on_device;
  }
  const double cycles_per_query =
      served_on_device > 0 ? run.cycles / static_cast<double>(served_on_device) : 0;
  s.stat.served += served_on_device;
  // Memo fill: a device-served whole-graph answer becomes this shard's
  // memoized answer for (graph, algo), stamped at its completion time.
  if (f.base.memo_window_ms > 0 && core::IsWholeGraph(run.algo)) {
    for (const QueryResult& q : run.outcomes) {
      if (q.status == QueryStatus::kOk) {
        s.memo[{run.graph_id, run.algo}] = {q.finish_ms, q.reached_vertices};
      }
    }
  }
  for (const QueryResult& q : run.outcomes) RecordResult(f, q, run.estimate_ms, cycles_per_query);
  s.free_at = run.t;
  s.stat.busy_ms += run.t - now;
}

void ShardMetrics(FleetState& f, const Shard& s) {
  MetricsRegistry& metrics = f.report.metrics;
  const MetricLabels labels = {{"shard", std::to_string(s.stat.shard)}};
  const struct {
    const char* name;
    const char* help;
    uint64_t value;
  } counters[] = {
      {"serve_shard_dispatches_total", "Batches dispatched per shard.", s.stat.dispatches},
      {"serve_shard_launch_failures_total", "Injected launch faults observed per shard.",
       s.stat.launch_failures},
      {"serve_shard_rerouted_total", "Requests drained to healthy peers per quarantined shard.",
       s.stat.rerouted_out},
      {"serve_shard_rebuilds_total", "Session rebuilds per shard.", s.stat.rebuilds},
      {"serve_shard_evictions_total",
       "Resident graphs evicted under the memory budget per shard.", s.stat.evictions},
      {"serve_shard_reloads_total", "Re-stagings of a previously staged graph per shard.",
       s.stat.reloads},
  };
  for (const auto& c : counters) {
    metrics.GetCounter(c.name, c.help, labels).Inc(static_cast<double>(c.value));
  }
  metrics.GetGauge("serve_shard_busy_ms", "Simulated busy time per shard.", labels)
      .Set(s.stat.busy_ms);
  if (!f.async) return;  // sync metrics carry no stream families
  metrics
      .GetCounter("serve_shard_prestages_total",
                  "Sessions pre-staged on the copy stream per shard.", labels)
      .Inc(static_cast<double>(s.stat.prestages));
  metrics
      .GetGauge("serve_shard_overlap_ms", "Copy/compute engine overlap achieved per shard.",
                labels)
      .Set(s.stat.overlap_ms);
}

}  // namespace

FleetState::FleetState(const ShardedOptions& options_in,
                       std::span<const graph::Csr* const> graphs_in)
    : options(options_in),
      base(options_in.base),
      graphs(graphs_in),
      async(options_in.async_dispatch),
      profiling(options_in.base.graph.profile),
      autoscaling(options_in.AutoscaleEnabled()),
      min_active(autoscaling ? options_in.autoscale.min_shards : options_in.shards),
      tracer(options_in.base.graph.trace_requests),
      brownout({base.overload.brownout_bronze_backlog_ms, base.overload.brownout_silver_backlog_ms},
               base.overload.hysteresis),
      shed_ladder({base.overload.shed_bronze_backlog_ms, base.overload.shed_silver_backlog_ms},
                  base.overload.hysteresis),
      scale_ladder(ScaleThresholds(options_in), base.overload.hysteresis) {
  report.mode = base.max_batch > 1 ? "session+batch" : "session";
  report.async_dispatch = async;
  for (const graph::Csr* g : graphs) {
    cpu_query_ms.push_back(static_cast<double>(g->NumVertices() + g->NumEdges()) /
                           std::max(1.0, base.cpu_fallback_units_per_ms));
  }
  const OverloadOptions& ov = base.overload;
  if (ov.retry_tokens_per_s > 0) {
    retry_budget = std::make_shared<core::RetryBudget>(
        core::RetryBudget::Config{ov.retry_tokens_per_s, ov.retry_burst});
  }
  shards.reserve(options.shards);
  for (uint32_t i = 0; i < options.shards; ++i) {
    Shard& s = shards.emplace_back(base.queue_capacity, base.edf);
    s.active = i < min_active;
    s.graph_options = base.graph;
    s.graph_options.recovery.budget = retry_budget;  // nullptr when unconfigured
    s.breaker = CircuitBreaker(CircuitBreaker::Options{ov.breaker_cooldown_ms, ov.breaker_backoff});
    if (i < options.shard_faults.size()) {
      s.graph_options.faults = options.shard_faults[i];
    } else if (base.graph.faults.Enabled()) {
      // De-correlate the shards: same rates, per-shard stream.
      s.graph_options.faults.seed = base.graph.faults.seed + i;
    }
    s.rebuilds_left = base.max_session_rebuilds;
    s.stat.shard = i;
    if (async) {
      s.streams = std::make_unique<sim::StreamScheduler>(base.graph.spec, s.graph_options.faults);
      if (base.graph.verify_dag) s.streams->EnableDagLog();
    }
  }
}

double EstimateMs(const FleetState& f, core::Algo algo) {
  const auto it = f.cost.find(algo);
  return it == f.cost.end() ? 0 : it->second.EstimateMs();
}

/// Load-aware admission. Tries serving shards in increasing estimated
/// backlog — ties broken by queue depth (so a cold estimator, whose mean is
/// still 0, spreads a burst instead of piling it on one shard), then by
/// shard index. A breaker-open shard is skipped (and reported via
/// `breaker_blocked`); a half-open one admits a single probe. Returns the
/// shard that admitted `r`, or nullptr when every serving queue is full (or
/// the fleet is dead).
Shard* Route(FleetState& f, const Request& r, double now, bool* breaker_blocked) {
  std::vector<std::tuple<double, size_t, uint32_t>> order;
  order.reserve(f.shards.size());
  for (Shard& s : f.shards) {
    if (!Serving(s)) continue;
    // A breaker-held shard is still a considered candidate (c=0), so the
    // span tree shows why the router looked past it.
    trace::TraceEvent e = MakeEvent(r.id, trace::EventKind::kRouteCandidate, now, s.stat.shard);
    e.b = static_cast<double>(s.queue.Depth());
    if (!s.breaker.AllowRoute(now, s.queue.Empty())) {
      if (breaker_blocked != nullptr) *breaker_blocked = true;
      f.sink.Emit(e);
      continue;
    }
    e.a = BacklogMs(f, s, now);
    e.c = 1;  // routable
    f.sink.Emit(e);
    order.emplace_back(e.a, s.queue.Depth(), s.stat.shard);
  }
  std::sort(order.begin(), order.end());
  for (const auto& [backlog, depth, index] : order) {
    Shard& s = f.shards[index];
    // The EDF key (when armed) freezes at admission off the same
    // running-mean estimate the routing decision just used.
    if (!s.queue.Admit(r, EstimateMs(f, r.algo))) continue;
    ++s.queued_by_algo[r.algo];
    // A request entering a half-open shard's queue IS the breaker probe;
    // this is where probes are counted (not in AllowRoute, which also
    // answers for candidates the request never routes to).
    s.breaker.OnProbeAdmitted();
    trace::TraceEvent e = MakeEvent(r.id, trace::EventKind::kRoute, now, s.stat.shard);
    e.a = backlog;
    e.b = std::get<0>(order.front());  // the fleet-wide minimum estimate
    f.sink.Emit(e);
    e = MakeEvent(r.id, trace::EventKind::kAdmit, now, s.stat.shard);
    e.a = static_cast<double>(s.queue.Depth());
    e.b = backlog;
    f.sink.Emit(e);
    return &s;
  }
  return nullptr;
}

/// Single admission point for fresh arrivals and quarantine re-routes;
/// returns the admitting shard, or nullptr when the request reached a
/// terminal state here. Classless requests (and every request without
/// slo_admission) route, else are rejected — or served on the CPU when
/// re-routed. Classed requests under slo_admission run the admission
/// controller, in precedence order: brownout degrade → pressure shed →
/// predictive shed → route → class-ordered full-queue fallback.
Shard* Admit(FleetState& f, const Request& r, double at, bool rerouted) {
  if (LiveShards(f, /*active_only=*/false) == 0) {
    ServeCpuGlobal(f, r, at);
    return nullptr;
  }
  const OverloadOptions& ov = f.base.overload;
  if (ov.slo_admission && r.slo != SloClass::kNone) {
    const double b = MinBacklogMs(f, at);
    const uint32_t brownout_level = f.brownout.Update(b, at);
    const uint32_t shed_level = f.shed_ladder.Update(b, at);
    const double target = SloTargetMs(ov, r.slo);
    // (1) Brownout: at level 1 bronze answers come from the CPU fallback,
    // at level 2 silver too — degraded beats shed, shed beats collapse.
    if ((brownout_level >= 1 && r.slo == SloClass::kBronze) ||
        (brownout_level >= 2 && r.slo == SloClass::kSilver)) {
      ++f.report.overload.brownout_degraded;
      trace::TraceEvent e = MakeEvent(r.id, trace::EventKind::kBrownout, at);
      e.a = b == kInf ? -1 : b;
      e.b = static_cast<double>(brownout_level);
      e.c = target;
      f.sink.Emit(e);
      ServeCpuGlobal(f, r, at);
      return nullptr;
    }
    if (r.slo != SloClass::kGold) {
      // (2) Pressure shed: class-ordered (bronze first), hysteretic.
      if ((shed_level >= 1 && r.slo == SloClass::kBronze) ||
          (shed_level >= 2 && r.slo == SloClass::kSilver)) {
        Shed(f, r, at, trace::ShedReason::kPressure, b, target);
        return nullptr;
      }
      // (3) Predictive shed: when even the least-loaded routable shard's
      // queue wait plus the running-mean service estimate lands past the
      // class target, the request provably cannot meet its SLO — shed now,
      // before it wastes a queue slot and device work, instead of timing
      // out later. Strict >: a request that lands exactly on its target is
      // still admitted (the ExpiredAt boundary rule).
      if (b == kInf || at + b + EstimateMs(f, r.algo) > r.arrival_ms + target) {
        Shed(f, r, at, trace::ShedReason::kPredictive, b, target);
        return nullptr;
      }
    }
    if (Shard* s = Route(f, r, at)) return s;
    // (4) Every routable queue is full. Gold is never shed while any shard
    // is alive — it gets a real (if slow) CPU answer; lower classes shed.
    // Shed-vs-reject precedence: a classed request never sees kRejected.
    if (r.slo == SloClass::kGold) {
      ServeCpuGlobal(f, r, at);
    } else {
      Shed(f, r, at, trace::ShedReason::kQueueFull, b, target);
    }
    return nullptr;
  }
  // If the breaker (when configured) held every serving shard out of
  // routing, degrade instead of rejecting: the queues were not full, the
  // fleet was cooling down.
  bool breaker_blocked = false;
  if (Shard* s = Route(f, r, at, &breaker_blocked)) return s;
  if (rerouted || breaker_blocked) {
    ServeCpuGlobal(f, r, at);
  } else {
    Reject(f, r);
  }
  return nullptr;
}

/// Re-routes requests drained out of quarantined shards whose fault time
/// the clock has reached, in (ready_ms, drain order).
void AdmitDeferred(FleetState& f, double now) {
  if (f.deferred.empty()) return;
  std::vector<Deferred> ready;
  std::vector<Deferred> later;
  for (Deferred& d : f.deferred) (d.ready_ms <= now ? ready : later).push_back(std::move(d));
  f.deferred = std::move(later);
  std::sort(ready.begin(), ready.end(), [](const Deferred& a, const Deferred& b) {
    return a.ready_ms != b.ready_ms ? a.ready_ms < b.ready_ms : a.order < b.order;
  });
  for (const Deferred& d : ready) {
    Shard* target = Admit(f, d.request, now, /*rerouted=*/true);
    if (target == nullptr) continue;
    ++target->stat.rerouted_in;
    f.sink.Emit(MakeEvent(d.request.id, trace::EventKind::kReroute, now, target->stat.shard));
  }
}

/// Sweeps expired deadlines out of every queue before dispatching.
void ExpireDeadlines(FleetState& f, double now) {
  for (Shard& s : f.shards) {
    for (const Request& r : s.queue.ExpireDeadlines(now)) {
      --s.queued_by_algo[r.algo];
      TimeOut(f, r, now);
    }
  }
}

/// Evicts idle least-recently-used residents until `need` more bytes fit
/// under the budget. A session still busy at time `t` (mid-copy of a
/// pre-stage, mid-compute of the in-flight dispatch — async only; sync
/// sessions are never busy at eviction time) is skipped: you cannot unmap a
/// graph an engine is reading. Stops when nothing evictable is left, so a
/// dispatch may transiently stage over budget rather than stall
/// (peak_resident_bytes records the honest high-water mark).
void EvictFor(FleetState& f, Shard& s, uint64_t need, double t) {
  const uint64_t budget = f.options.device_mem_budget_bytes;
  if (budget == 0) return;
  while (s.resident_bytes + need > budget && !s.sessions.empty()) {
    size_t victim = s.sessions.size();
    for (size_t i = 0; i < s.sessions.size(); ++i) {
      if (s.sessions[i].busy_until > t) continue;
      if (victim == s.sessions.size() ||
          s.sessions[i].last_used < s.sessions[victim].last_used) {
        victim = i;
      }
    }
    if (victim == s.sessions.size()) break;
    RetireSession(f, s, victim);
    ++s.stat.evictions;
  }
}

/// Returns the shard's resident session for `graph_id`, staging it (and
/// evicting LRU residents under the memory budget) if needed; `t` is the
/// shard-local clock and is charged the staging time. Under async dispatch
/// `dstream` is the dispatch's stream: cold staging is placed on it as a
/// copy-engine op (so the engine FIFO and the trace see it), and a hit on a
/// still-staging pre-staged session waits on its ready event. Returns
/// nullptr when staging itself failed (injected allocation fault) — the
/// caller's quarantine loop owns the retry budget.
ResidentSession* EnsureSession(FleetState& f, Shard& s, uint32_t graph_id, double& t,
                               sim::Stream dstream) {
  for (ResidentSession& rs : s.sessions) {
    if (rs.graph_id != graph_id) continue;
    rs.last_used = ++f.lru_tick;
    if (dstream.valid && rs.ready_event.valid) {
      // The serve clock honours ready_ms itself, so a dag plant
      // (sim::FaultConfig::dag) that loses this ordering edge leaves the
      // answers and timestamps as they were: only the DAG carries the bug.
      s.streams->Wait(dstream, rs.ready_event);
      t = std::max(t, rs.ready_ms);
    }
    return &rs;
  }
  EvictFor(f, s, core::ResidentGraph::EstimateDeviceBytes(*f.graphs[graph_id], s.graph_options),
           t);
  ResidentSession rs = NewSession(f, s, graph_id);
  const double load_ms = rs.session->LoadMs();
  if (dstream.valid) {
    // Mirror the staging charge as a copy-engine op on the dispatch
    // stream: with idle engines it lands exactly at [t, t + LoadMs] — the
    // sync charge — and when a pre-stage still occupies the copy engine the
    // two transfers serialize honestly.
    s.streams->CopyAsync(dstream, sim::StreamOpKind::kCopyH2D, load_ms,
                         "stage-g" + std::to_string(graph_id),
                         /*earliest_ms=*/t, rs.session->DeviceBytesPeak());
    RegisterStageAllocs(s, rs);
    t = s.streams->Ops().back().end_ms;
  } else {
    t += load_ms;
  }
  if (f.profiling) {
    const double start = t - load_ms;
    CaptureDeviceSlice(f, s, rs, start, 0.0);  // fresh device clock starts at 0
    prof::TraceSpan span{"serve/session", "session-load", start, t, {}};
    span.args.push_back({"shard", std::to_string(s.stat.shard), /*number=*/true});
    f.report.trace_spans.push_back(std::move(span));
  }
  if (!rs.session->Loaded()) {
    ShutdownSession(f, *rs.session);
    return nullptr;
  }
  if (!f.load_recorded) {
    f.report.load_ms = load_ms;
    f.load_recorded = true;
  }
  rs.resident_bytes = rs.session->DeviceBytesPeak();
  return &AddResident(s, std::move(rs));
}

/// Async dispatch: while a shard's compute engine is busy (free_at in the
/// future), stage the next queued graph on its own copy stream — the
/// session build plus the hoisted topology prefetch
/// (GraphSession::PrefetchTopology) run now, overlapping the in-flight
/// dispatch's compute, and the consuming dispatch waits on the recorded
/// ready event instead of paying the staging serially. At most one
/// pre-stage triggers per busy window (once inserted, the head graph is
/// resident and the trigger condition goes false). On a single-graph
/// catalog the head graph is always resident, so this never fires and the
/// async replay stays byte-identical to the sync one.
void Prestage(FleetState& f, Shard& s, double now) {
  if (!f.async || !Serving(s) || s.queue.Empty()) return;
  if (s.free_at <= now) return;           // idle shards just dispatch
  if (now < s.no_prestage_until) return;  // backing off a failed build
  const std::optional<Request> head = s.queue.PeekNext();
  if (!head.has_value()) return;
  const uint32_t graph_id = head->graph_id;
  for (const ResidentSession& rs : s.sessions) {
    if (rs.graph_id == graph_id) return;  // resident (or already staging)
  }
  const uint64_t budget = f.options.device_mem_budget_bytes;
  const uint64_t need =
      core::ResidentGraph::EstimateDeviceBytes(*f.graphs[graph_id], s.graph_options);
  if (budget > 0) {
    // Feasibility first: only idle sessions are evictable, and unlike a
    // dispatch (which must stage), a pre-stage that cannot fit next to the
    // busy ones simply does not happen — no point evicting graphs it cannot
    // use. With every session idle it stages like a dispatch would.
    uint64_t kept = 0;
    bool any_busy = false;
    for (const ResidentSession& rs : s.sessions) {
      if (rs.busy_until <= now) continue;
      any_busy = true;
      kept += rs.resident_bytes;
    }
    if (any_busy && kept + need > budget) return;
    EvictFor(f, s, need, now);
  }
  ResidentSession rs = NewSession(f, s, graph_id);
  // Hoist the first-query topology prefetch into the staging op, so the
  // whole load lands on the copy engine ahead of the dispatch (answers are
  // unaffected — the first query simply finds the pages resident).
  rs.session->PrefetchTopology();
  if (!rs.session->Loaded()) {
    // Injected staging fault: drop the build and sit out this busy window;
    // the consuming dispatch will stage (and retry) under its own
    // quarantine budget.
    ShutdownSession(f, *rs.session);
    s.no_prestage_until = s.free_at;
    return;
  }
  rs.resident_bytes = rs.session->DeviceBytesPeak();
  const double stage_ms = rs.session->NowMs();  // load + hoisted prefetch
  const std::string label = "prestage-g" + std::to_string(graph_id);
  const sim::Stream cstream = s.streams->CreateStream(ShardName(s) + "-" + label);
  s.streams->CopyAsync(cstream, sim::StreamOpKind::kCopyH2D, stage_ms, label,
                       /*earliest_ms=*/now, rs.resident_bytes);
  RegisterStageAllocs(s, rs);
  // Copy, not reference: Record() appends to the same ops vector and a
  // reallocation would invalidate a reference taken here.
  const sim::StreamOp op = s.streams->Ops().back();
  rs.ready_event = s.streams->CreateEvent();
  s.streams->Record(cstream, rs.ready_event);
  rs.ready_ms = op.end_ms;
  rs.busy_until = op.end_ms;  // mid-copy until then; not evictable
  ++s.stat.prestages;
  s.stat.prestage_ms += stage_ms;
  if (f.profiling) {
    CaptureDeviceSlice(f, s, rs, op.start_ms, 0.0);
    prof::TraceSpan span{"serve/session", "prestage", op.start_ms, op.end_ms, {}};
    span.args.push_back({"shard", std::to_string(s.stat.shard), /*number=*/true});
    span.args.push_back({"graph", std::to_string(graph_id), /*number=*/true});
    f.report.trace_spans.push_back(std::move(span));
  }
  AddResident(s, std::move(rs));
}

/// Dispatches the head of `s`'s queue: a memo answer, or a folded batch
/// run on the device with recovery, whatever the device cannot answer
/// degraded to the CPU.
void Dispatch(FleetState& f, Shard& s, double now) {
  std::optional<Request> head = s.queue.PopNext();
  ETA_CHECK(head.has_value());
  --s.queued_by_algo[head->algo];
  if (AnswerFromMemo(f, s, *head, now)) return;
  DispatchRun run = FoldBatch(f, s, *head, now);
  Recover(f, s, run, Attempt(f, s, run));
  Complete(f, s, run, now);
}

/// Dispatches every idle serving shard with queued work; true if any did.
bool DispatchReady(FleetState& f, double now) {
  bool dispatched = false;
  for (Shard& s : f.shards) {
    if (Serving(s) && s.free_at <= now && !s.queue.Empty()) {
      Dispatch(f, s, now);
      dispatched = true;
    }
  }
  return dispatched;
}

/// Fault-aware drain: empties a quarantined shard's queue into the deferred
/// set, to be re-routed to peers once the global clock reaches the fault
/// time `t`.
void DrainQueue(FleetState& f, Shard& s, double t) {
  while (std::optional<Request> r = s.queue.PopNext()) {
    --s.queued_by_algo[r->algo];
    ++s.stat.rerouted_out;
    f.deferred.push_back({t, f.drain_order++, *r});
  }
}

/// Backlog autoscaling (DESIGN.md section 15), evaluated at the top of
/// every event-loop tick. The signal is the mean backlog estimate over
/// serving shards (kInf when every active shard is dead — which forces the
/// ladder to its top level and activates the standbys). Scale-up activates
/// the lowest-index standby immediately; scale-down deactivates the
/// highest-index active shard only once it is idle, draining any queued
/// requests to peers — so no request is ever lost to a scale decision. One
/// scale event per tick that changes the active count, in active-shard-count
/// units on the simulated clock.
void UpdateAutoscale(FleetState& f, double t) {
  if (!f.autoscaling) return;
  double sum = 0;
  for (const Shard& s : f.shards) {
    if (Serving(s)) sum += BacklogMs(f, s, t);
  }
  const uint32_t before = LiveShards(f, /*active_only=*/true);
  const double signal = before == 0 ? kInf : sum / static_cast<double>(before);
  const uint32_t target = f.min_active + f.scale_ladder.Update(signal, t);
  uint32_t active_count = before;
  while (active_count < target) {
    auto standby = std::find_if(f.shards.begin(), f.shards.end(),
                                [](const Shard& s) { return !s.active && !s.stat.dead; });
    if (standby == f.shards.end()) break;  // no standby left to wake
    standby->active = true;
    ++active_count;
  }
  while (active_count > target && active_count > f.min_active) {
    auto victim = std::find_if(f.shards.rbegin(), f.shards.rend(), Serving);
    if (victim == f.shards.rend() || victim->free_at > t) break;  // busy: retry next tick
    DrainQueue(f, *victim, t);
    victim->active = false;
    --active_count;
  }
  if (active_count == before) return;
  f.scale_events.push_back({t, before, active_count});
  trace::TraceEvent e = MakeEvent(trace::kFleetEventId, trace::EventKind::kScale, t);
  e.a = static_cast<double>(before);
  e.b = static_cast<double>(active_count);
  e.c = signal == kInf ? -1 : signal;
  f.sink.Emit(e);
}

double NextWakeup(const FleetState& f, double now) {
  double next_t = kInf;
  for (const Deferred& d : f.deferred) next_t = std::min(next_t, d.ready_ms);
  // A busy shard with queued work wakes the loop when it frees up. Under
  // autoscaling an idle-queued busy one does too: a pending scale-down
  // (busy victim) or scale-up (ladder armed by the next arrival)
  // re-evaluates then.
  for (const Shard& s : f.shards) {
    if (Serving(s) && s.free_at > now && (f.autoscaling || !s.queue.Empty())) {
      next_t = std::min(next_t, s.free_at);
    }
  }
  return next_t;
}

ServeReport Finalize(FleetState& f, double now) {
  ServeReport& report = f.report;
  report.makespan_ms = std::max(f.max_finish, now);
  for (Shard& s : f.shards) {
    RetireAllSessions(f, s);
    if (!f.async) continue;
    s.stat.overlap_ms = s.streams->OverlapMs();
    if (s.streams->DagLogEnabled()) {
      // Returning the report is the host's device-wide synchronize: every
      // stream's tail is observed here, so none is an orphan.
      s.streams->HostJoinAll();
      report.verify.Merge(verify::VerifyDag(*s.streams));
    }
  }
  for (const auto& [algo, agg] : f.cost) {
    if (agg.queries == 0) continue;
    CostObservation obs;
    obs.algo = core::AlgoName(algo);
    obs.queries = agg.queries;
    obs.mean_service_ms = agg.service_sum / static_cast<double>(agg.queries);
    obs.mean_abs_error_ms = agg.abs_err_sum / static_cast<double>(agg.queries);
    obs.mean_cycles = agg.cycles_sum / static_cast<double>(agg.queries);
    report.cost_observations.push_back(std::move(obs));
  }
  MetricsRegistry& metrics = report.metrics;
  metrics
      .GetCounter("serve_session_rebuilds_total", "Unhealthy sessions torn down and re-staged.")
      .Inc(static_cast<double>(report.session_rebuilds));
  metrics
      .GetCounter("serve_fault_backoff_ms_total",
                  "Simulated time burned in fault-recovery backoff.")
      .Inc(report.faults.backoff_ms);
  metrics
      .GetGauge("serve_degradation_ratio",
                "Fraction of completed requests served by the CPU fallback.")
      .Set(report.completed > 0
               ? static_cast<double>(report.degraded) / static_cast<double>(report.completed)
               : 0);
  metrics.GetGauge("serve_makespan_ms", "Simulated time from t=0 to last completion.")
      .Set(report.makespan_ms);
  metrics.GetGauge("serve_load_ms", "Graph staging time of the first session.")
      .Set(report.load_ms);
  metrics.GetGauge("serve_shards", "Shards in the fleet.")
      .Set(static_cast<double>(f.options.shards));
  for (const Shard& s : f.shards) {
    ShardMetrics(f, s);
    report.shard_stats.push_back(s.stat);
    report.overload.breaker_opens += s.breaker.opens();
    report.overload.breaker_probes += s.breaker.probes();
    report.overload.breaker_probe_failures += s.breaker.probe_failures();
  }
  std::sort(report.results.begin(), report.results.end(),
            [](const QueryResult& a, const QueryResult& b) { return a.id < b.id; });
  report.edf = f.base.edf;
  if (f.base.memo_window_ms > 0) {
    report.memo_configured = true;
    metrics.GetCounter("serve_memo_hits", "Whole-graph requests answered from the memo table.")
        .Inc(static_cast<double>(report.memo_hits));
  }
  if (f.autoscaling) {
    report.autoscale_configured = true;
    report.shards_active = LiveShards(f, /*active_only=*/true);
    report.scale_events = f.scale_events;
    metrics
        .GetCounter("serve_scale_events_total",
                    "Autoscaler transitions of the active shard count.")
        .Inc(static_cast<double>(f.scale_events.size()));
    metrics.GetGauge("serve_shards_active", "Active (non-standby) shards at end of replay.")
        .Set(static_cast<double>(report.shards_active));
  }
  report.overload.brownout_level = f.brownout.level();
  report.overload.brownout_max_level = f.brownout.max_level();
  report.overload.brownout_transitions = f.brownout.transitions();
  FinalizeOverloadReport(f.base.overload, f.retry_budget.get(), &report);
  EvaluateSloAlerts(f.base.overload, f.base.slo_alerts, &report);
  FinalizeTraceReport(f.base, f.tracer, f.recorder, report.makespan_ms, &report);
  return std::move(report);
}

}  // namespace eta::serve::fleet
