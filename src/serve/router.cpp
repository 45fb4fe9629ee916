#include "serve/router.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "core/framework.hpp"
#include "core/retry_budget.hpp"
#include "cpu/reference.hpp"
#include "prof/trace_export.hpp"
#include "serve/batcher.hpp"
#include "serve/metrics.hpp"
#include "serve/observe.hpp"
#include "serve/overload.hpp"
#include "serve/scheduler.hpp"
#include "serve/session.hpp"
#include "sim/stream.hpp"
#include "trace/sink.hpp"
#include "util/check.hpp"
#include "verify/verify.hpp"

namespace eta::serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

uint64_t ToMicros(double ms) {
  return static_cast<uint64_t>(std::llround(std::max(0.0, ms) * 1000.0));
}

std::vector<double> QueueDepthBuckets() { return {0, 1, 2, 4, 8, 16, 32, 64}; }
std::vector<double> CycleBuckets() {
  return {1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9};
}

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
  /// The copy stream a pre-stage ran on (invalid for cold stages) — the
  /// kSwapRecordWait plant records the ready event here, too late.
  sim::Stream prestage_stream{};
};

/// One memoized whole-graph answer (DESIGN.md section 15): CC/PageRank
/// results carry no per-source attribution, so an identical request inside
/// the memo window is answered from here at zero simulated device cost.
struct MemoEntry {
  double computed_at = 0;  // finish time of the computing dispatch
  uint64_t reached = 0;    // the memoized whole-graph answer
};

struct Shard {
  Shard(size_t queue_capacity, bool edf) : queue(queue_capacity, edf) {}

  uint32_t index = 0;
  core::EtaGraphOptions graph_options{};
  QueryScheduler queue;
  std::vector<ResidentSession> sessions;
  uint64_t resident_bytes = 0;
  /// Serve-clock time when the shard can next dispatch.
  double free_at = 0;
  uint32_t rebuilds_left = 0;
  bool dead = false;
  /// Graphs ever staged here — a second staging of the same graph is a
  /// reload (the eviction policy's cost signal).
  std::set<uint32_t> staged_graphs;
  /// Queued-request composition per algorithm, the routing estimate input.
  std::map<core::Algo, uint64_t> queued_by_algo;
  /// Overload control (DESIGN.md §13): a disabled breaker (the default)
  /// always allows routing, keeping the legacy path byte-identical.
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

}  // namespace

ServeReport ShardedEngine::Serve(const graph::Csr& csr,
                                 const std::vector<Request>& trace) const {
  const graph::Csr* catalog[] = {&csr};
  return ServeMany(catalog, trace);
}

ServeReport ShardedEngine::ServeMany(std::span<const graph::Csr* const> graphs,
                                     const std::vector<Request>& trace) const {
  ETA_CHECK(!graphs.empty());
  ETA_CHECK(options_.shards >= 1);
  for (size_t i = 0; i < trace.size(); ++i) {
    if (i > 0) ETA_CHECK(trace[i - 1].arrival_ms <= trace[i].arrival_ms);
    ETA_CHECK(trace[i].graph_id < graphs.size());
  }

  const ServeOptions& base = options_.base;
  const bool async = options_.async_dispatch;
  using DagPlant = ShardedOptions::DagPlant;
  const DagPlant plant = options_.plant;
  ETA_CHECK(plant == DagPlant::kNone || async);
  ServeReport report;
  report.mode = base.max_batch > 1 ? "session+batch" : "session";
  report.async_dispatch = async;
  report.total_requests = trace.size();
  report.results.reserve(trace.size());

  // etatrace (DESIGN.md section 14): the flight recorder runs always (a
  // bounded host-side ring); the per-request tracer only when
  // trace_requests armed it. Both feed off the same emission points.
  trace::RequestTracer tracer(base.graph.trace_requests);
  trace::FlightRecorder recorder;
  trace::EventSink sink{&tracer, &recorder};
  auto make_event = [](uint64_t id, trace::EventKind kind, double at) {
    trace::TraceEvent e;
    e.request_id = id;
    e.kind = kind;
    e.at_ms = at;
    return e;
  };
  // Terminal edge shared by every outcome path.
  auto emit_complete = [&](const QueryResult& q) {
    trace::TraceEvent e = make_event(q.id, trace::EventKind::kComplete, q.finish_ms);
    e.status = static_cast<uint8_t>(q.status);
    e.a = q.LatencyMs();
    e.b = static_cast<double>(q.reached_vertices);
    e.c = static_cast<double>(q.batch_size);
    sink.Emit(e);
  };

  const bool profiling = base.graph.profile;
  MetricsRegistry& metrics = report.metrics;
  auto count_query = [&](core::Algo algo, QueryStatus status) {
    metrics
        .GetCounter("serve_queries_total", "Requests by algorithm and terminal status.",
                    {{"algo", core::AlgoName(algo)}, {"status", QueryStatusName(status)}})
        .Inc();
  };
  auto observe_ms = [&](const char* name, const char* help, core::Algo algo, double ms) {
    metrics.GetHistogram(name, help, LatencyBucketsMs(), {{"algo", core::AlgoName(algo)}})
        .Observe(ms);
  };

  std::map<core::Algo, CostAgg> cost;

  /// Simulated cost of answering one query of each graph on the host CPU
  /// instead of the device — a flat (n + m) / throughput bill,
  /// deterministic by design.
  std::vector<double> cpu_query_ms(graphs.size());
  for (size_t g = 0; g < graphs.size(); ++g) {
    cpu_query_ms[g] =
        static_cast<double>(graphs[g]->NumVertices() + graphs[g]->NumEdges()) /
        std::max(1.0, base.cpu_fallback_units_per_ms);
  }

  // Overload control (DESIGN.md §13). Everything defaults off: no budget
  // object, disabled breakers, empty ladders — the legacy event loop takes
  // the exact same branches and produces the exact same bytes.
  const OverloadOptions& ov = base.overload;
  std::shared_ptr<core::RetryBudget> retry_budget;
  if (ov.retry_tokens_per_s > 0) {
    retry_budget = std::make_shared<core::RetryBudget>(
        core::RetryBudget::Config{ov.retry_tokens_per_s, ov.retry_burst});
  }
  // Hysteretic ladders over the router's backlog estimate: level 1 acts on
  // bronze, level 2 on silver. Active only under slo_admission.
  HysteresisLadder brownout({ov.brownout_bronze_backlog_ms, ov.brownout_silver_backlog_ms},
                            ov.hysteresis);
  HysteresisLadder shed_ladder({ov.shed_bronze_backlog_ms, ov.shed_silver_backlog_ms},
                               ov.hysteresis);

  // Backlog autoscaling (DESIGN.md section 15): the fleet starts with
  // min_shards active and scales the active count through a hysteresis
  // ladder over the mean backlog of active live shards — one level per
  // standby shard, thresholds at backlog_ms * 1, * 2, ...
  const bool autoscaling = options_.AutoscaleEnabled();
  const uint32_t min_active = autoscaling ? options_.autoscale.min_shards : options_.shards;
  std::vector<double> scale_thresholds;
  if (autoscaling) {
    for (uint32_t k = 1; k <= options_.shards - min_active; ++k) {
      scale_thresholds.push_back(options_.autoscale.backlog_ms * k);
    }
  }
  HysteresisLadder scale_ladder(scale_thresholds, ov.hysteresis);
  std::vector<LadderTransition> scale_events;

  std::vector<Shard> shards;
  shards.reserve(options_.shards);
  for (uint32_t i = 0; i < options_.shards; ++i) {
    shards.emplace_back(base.queue_capacity, base.edf);
    Shard& s = shards.back();
    s.index = i;
    s.active = i < min_active;
    s.graph_options = base.graph;
    s.graph_options.recovery.budget = retry_budget;  // nullptr when unconfigured
    s.breaker = CircuitBreaker(
        CircuitBreaker::Options{ov.breaker_cooldown_ms, ov.breaker_backoff});
    if (i < options_.shard_faults.size()) {
      s.graph_options.faults = options_.shard_faults[i];
    } else if (base.graph.faults.Enabled()) {
      // De-correlate the shards: same rates, per-shard stream.
      s.graph_options.faults.seed = base.graph.faults.seed + i;
    }
    s.rebuilds_left = base.max_session_rebuilds;
    s.stat.shard = i;
    if (async) {
      s.streams = std::make_unique<sim::StreamScheduler>(base.graph.spec);
      if (base.graph.verify_dag) s.streams->EnableDagLog();
    }
  }

  /// etaverify: registers this staging epoch's allocations and annotates
  /// the staging copy just enqueued as writing both (it materializes the
  /// topology and the session's device state). No-op — one untaken branch
  /// — when the DAG log is off.
  auto register_stage_allocs = [&](Shard& s, ResidentSession& rs) {
    if (s.streams == nullptr || !s.streams->DagLogEnabled()) return;
    const std::string name = "shard" + std::to_string(s.index) + "/g" +
                             std::to_string(rs.graph_id) + "#" +
                             std::to_string(s.stage_epochs++);
    rs.topo_alloc = s.streams->RegisterAlloc(name + "/topo");
    rs.state_alloc = s.streams->RegisterAlloc(name + "/state");
    s.streams->AnnotateLastOp({{rs.topo_alloc, true}, {rs.state_alloc, true}});
  };

  uint64_t lru_tick = 0;
  uint64_t drain_order = 0;
  std::vector<Deferred> deferred;
  double cpu_free_at = 0;  // serial timeline of the all-shards-dead CPU path
  double max_finish = 0;
  bool load_recorded = false;

  auto capture_device_slice = [&](const Shard& s, ResidentSession& rs,
                                  double serve_start, double device_from) {
    if (!profiling || rs.session == nullptr) return;
    const double offset = serve_start - device_from;
    // Track "shardN" splits into per-engine threads (compute, copy-h2d,
    // copy-d2h, kernels) in the exporter — the per-stream view of
    // DESIGN.md section 11 rather than one merged device track.
    const std::string track = "shard" + std::to_string(s.index);
    const auto& spans = rs.session->DeviceTimeline().Spans();
    prof::AppendTimelineSpans(std::span<const sim::Span>(spans).subspan(rs.spans_done),
                              track, offset, &report.trace_spans);
    rs.spans_done = spans.size();
    if (const sim::LaunchProfiler* prof = rs.session->Profiler()) {
      prof::AppendKernelSpans(
          std::span<const sim::KernelProfile>(prof->Launches()).subspan(rs.launches_done),
          track, offset, &report.trace_spans);
      rs.launches_done = prof->Launches().size();
    }
  };

  /// Tears one resident session down, folding its etacheck report into the
  /// fleet report and releasing its residency accounting.
  auto retire_session = [&](Shard& s, size_t idx) {
    ResidentSession& rs = s.sessions[idx];
    rs.session->Shutdown();
    if (const sanitizer::SanitizerReport* c = rs.session->CheckReport()) {
      report.check.Merge(*c);
    }
    s.resident_bytes -= rs.resident_bytes;
    // The memoized whole-graph answers rode on this staging epoch; a
    // rebuilt/re-staged session must recompute them.
    for (auto it = s.memo.begin(); it != s.memo.end();) {
      it = it->first.first == rs.graph_id ? s.memo.erase(it) : std::next(it);
    }
    s.sessions.erase(s.sessions.begin() + static_cast<long>(idx));
  };

  auto retire_all_sessions = [&](Shard& s) {
    while (!s.sessions.empty()) retire_session(s, s.sessions.size() - 1);
  };

  /// Evicts idle least-recently-used residents until `need` more bytes fit
  /// under the budget. A session still busy at time `t` (mid-copy of a
  /// pre-stage, mid-compute of the in-flight dispatch — async only; sync
  /// sessions are never busy at eviction time) is skipped: you cannot
  /// unmap a graph an engine is reading. Stops when nothing evictable is
  /// left, so a dispatch may transiently stage over budget rather than
  /// stall (peak_resident_bytes records the honest high-water mark).
  auto evict_for = [&](Shard& s, uint64_t need, double t) {
    const uint64_t budget = options_.device_mem_budget_bytes;
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
      retire_session(s, victim);
      ++s.stat.evictions;
    }
  };

  /// Returns the shard's resident session for `graph_id`, staging it (and
  /// evicting LRU residents under the memory budget) if needed; `t` is the
  /// shard-local clock and is charged the staging time. Under async
  /// dispatch `dstream` is the dispatch's stream: cold staging is placed
  /// on it as a copy-engine op (so the engine FIFO and the trace see it),
  /// and a hit on a still-staging pre-staged session waits on its ready
  /// event. Returns nullptr when staging itself failed (injected
  /// allocation fault) — the caller's quarantine loop owns the retry
  /// budget.
  auto ensure_session = [&](Shard& s, uint32_t graph_id, double& t,
                            sim::Stream dstream = {}) -> ResidentSession* {
    for (ResidentSession& rs : s.sessions) {
      if (rs.graph_id == graph_id) {
        rs.last_used = ++lru_tick;
        if (dstream.valid && rs.ready_event.valid) {
          // Plants (test-only, see ShardedOptions::DagPlant): the serve
          // clock still honours ready_ms below, so the replay's answers
          // and timestamps stay green — only the recorded DAG loses the
          // ordering edge, which is exactly what etaverify must catch.
          if (plant != DagPlant::kDropReadyWait) {
            s.streams->Wait(dstream, rs.ready_event);
          }
          if (plant == DagPlant::kSwapRecordWait && rs.prestage_stream.valid &&
              !s.streams->Recorded(rs.ready_event)) {
            s.streams->Record(rs.prestage_stream, rs.ready_event);
          }
          t = std::max(t, rs.ready_ms);
        }
        return &rs;
      }
    }
    const graph::Csr& csr = *graphs[graph_id];
    evict_for(s, core::ResidentGraph::EstimateDeviceBytes(csr, s.graph_options), t);
    ResidentSession rs;
    rs.graph_id = graph_id;
    rs.session = std::make_unique<GraphSession>(csr, s.graph_options);
    rs.last_used = ++lru_tick;
    if (dstream.valid) {
      // Mirror the staging charge as a copy-engine op on the dispatch
      // stream: with idle engines it lands exactly at [t, t + LoadMs] —
      // the sync charge — and when a pre-stage still occupies the copy
      // engine the two transfers serialize honestly.
      s.streams->CopyAsync(dstream, sim::StreamOpKind::kCopyH2D,
                           rs.session->LoadMs(),
                           "stage-g" + std::to_string(graph_id),
                           /*earliest_ms=*/t, rs.session->DeviceBytesPeak());
      register_stage_allocs(s, rs);
      t = s.streams->Ops().back().end_ms;
    } else {
      t += rs.session->LoadMs();
    }
    if (profiling) {
      const double start = t - rs.session->LoadMs();
      capture_device_slice(s, rs, start, 0.0);  // fresh device clock starts at 0
      prof::TraceSpan span{"serve/session", "session-load", start, t, {}};
      span.args.push_back({"shard", std::to_string(s.index), /*number=*/true});
      report.trace_spans.push_back(std::move(span));
    }
    if (!rs.session->Loaded()) {
      rs.session->Shutdown();
      if (const sanitizer::SanitizerReport* c = rs.session->CheckReport()) {
        report.check.Merge(*c);
      }
      return nullptr;
    }
    if (!load_recorded) {
      report.load_ms = rs.session->LoadMs();
      load_recorded = true;
    }
    rs.resident_bytes = rs.session->DeviceBytesPeak();
    s.resident_bytes += rs.resident_bytes;
    s.stat.peak_resident_bytes = std::max(s.stat.peak_resident_bytes, s.resident_bytes);
    if (!s.staged_graphs.insert(graph_id).second) ++s.stat.reloads;
    s.sessions.push_back(std::move(rs));
    return &s.sessions.back();
  };

  auto reject = [&](const Request& r) {
    QueryResult q;
    q.id = r.id;
    q.status = QueryStatus::kRejected;
    q.algo = r.algo;
    q.source = r.source;
    q.arrival_ms = r.arrival_ms;
    q.slo = r.slo;
    report.results.push_back(q);
    ++report.rejected;
    count_query(r.algo, QueryStatus::kRejected);
    trace::TraceEvent e = make_event(r.id, trace::EventKind::kReject, r.arrival_ms);
    double queued = 0;
    for (const Shard& s : shards) {
      if (!s.dead) queued += static_cast<double>(s.queue.Depth());
    }
    e.a = queued;
    e.b = static_cast<double>(base.queue_capacity);
    sink.Emit(e);
    emit_complete(q);
  };
  /// Shed at admission: a terminal answer stamped at the decision time —
  /// the request never queues, so no device (or deadline-sweep) work is
  /// wasted on it. report.shedded is tallied from results in
  /// FinalizeOverloadReport.
  auto shed = [&](const Request& r, double when_ms, trace::ShedReason reason,
                  double backlog, double estimate, double target) {
    QueryResult q;
    q.id = r.id;
    q.status = QueryStatus::kShedded;
    q.algo = r.algo;
    q.source = r.source;
    q.arrival_ms = r.arrival_ms;
    q.start_ms = when_ms;
    q.finish_ms = when_ms;
    q.slo = r.slo;
    report.results.push_back(q);
    count_query(r.algo, QueryStatus::kShedded);
    trace::TraceEvent e = make_event(r.id, trace::EventKind::kShed, when_ms);
    e.status = static_cast<uint8_t>(reason);
    // An unroutable fleet has an infinite backlog estimate; the rendered
    // JSON carries -1 (no Inf literals in JSON).
    e.a = backlog == kInf ? -1 : backlog;
    e.b = estimate;
    e.c = target;
    sink.Emit(e);
    emit_complete(q);
  };
  auto time_out = [&](const Request& r, double when_ms) {
    QueryResult q;
    q.id = r.id;
    q.status = QueryStatus::kTimedOut;
    q.algo = r.algo;
    q.source = r.source;
    q.arrival_ms = r.arrival_ms;
    q.start_ms = when_ms;
    q.finish_ms = when_ms;
    q.slo = r.slo;
    report.results.push_back(q);
    ++report.timed_out;
    count_query(r.algo, QueryStatus::kTimedOut);
    observe_ms("serve_queue_wait_ms",
               "Time from arrival to dispatch (or expiry) per request.", r.algo,
               q.QueueMs());
    trace::TraceEvent e = make_event(r.id, trace::EventKind::kTimeout, when_ms);
    e.a = r.StartDeadline();
    sink.Emit(e);
    emit_complete(q);
  };
  auto serve_cpu = [&](const Request& r, double start, bool fleet_wide = false) {
    QueryResult q;
    q.id = r.id;
    q.status = QueryStatus::kDegraded;
    q.algo = r.algo;
    q.source = r.source;
    q.arrival_ms = r.arrival_ms;
    q.slo = r.slo;
    q.reached_vertices = CpuAnswer(*graphs[r.graph_id], r.algo, r.source);
    q.batch_size = 0;
    q.start_ms = start;
    q.finish_ms = start + cpu_query_ms[r.graph_id];
    ++report.degraded;
    if (profiling) {
      prof::TraceSpan span{"serve/cpu-fallback", std::string(core::AlgoName(r.algo)),
                           q.start_ms, q.finish_ms, {}};
      span.args.push_back({"request", std::to_string(r.id), /*number=*/true});
      report.trace_spans.push_back(std::move(span));
    }
    trace::TraceEvent e = make_event(r.id, trace::EventKind::kCpuFallback, start);
    e.a = cpu_query_ms[r.graph_id];
    e.b = fleet_wide ? 1 : 0;
    sink.Emit(e);
    return q;
  };

  /// Records one completed result with the full metrics treatment (the
  /// cost model sees `estimate_ms`, the prediction made before the
  /// dispatch that produced the result).
  auto record_result = [&](const QueryResult& q, double estimate_ms,
                           double cycles_per_query) {
    ++report.completed;
    report.reached_total += q.reached_vertices;
    report.latency_us.Add(ToMicros(q.LatencyMs()));
    report.queue_wait_us.Add(ToMicros(q.QueueMs()));
    count_query(q.algo, q.status);
    observe_ms("serve_queue_wait_ms",
               "Time from arrival to dispatch (or expiry) per request.", q.algo,
               q.QueueMs());
    observe_ms("serve_service_ms", "Time from dispatch to completion per request.",
               q.algo, q.finish_ms - q.start_ms);
    observe_ms("serve_latency_ms", "End-to-end time from arrival to completion.",
               q.algo, q.LatencyMs());
    // batch_size == 0 means no device launch produced this answer (a memo
    // hit): feeding its zero latency into the running mean would drag the
    // estimator — and every routing/EDF/shed decision built on it — to 0.
    if (q.status == QueryStatus::kOk && q.batch_size > 0) {
      const double actual_ms = q.finish_ms - q.start_ms;
      CostAgg& agg = cost[q.algo];
      ++agg.queries;
      agg.service_sum += actual_ms;
      agg.abs_err_sum += std::abs(actual_ms - estimate_ms);
      agg.cycles_sum += cycles_per_query;
      metrics
          .GetHistogram("serve_cost_error_ms",
                        "Absolute error of the running-mean service-time estimator.",
                        LatencyBucketsMs(), {{"algo", core::AlgoName(q.algo)}})
          .Observe(std::abs(actual_ms - estimate_ms));
      metrics
          .GetHistogram("serve_query_cycles",
                        "Device cycles attributed per device-served query.",
                        CycleBuckets(), {{"algo", core::AlgoName(q.algo)}})
          .Observe(cycles_per_query);
    }
    if (profiling && q.QueueMs() > 0) {
      prof::TraceSpan span{"serve/queue", std::string(core::AlgoName(q.algo)),
                           q.arrival_ms, q.start_ms, {}};
      span.args.push_back({"request", std::to_string(q.id), /*number=*/true});
      report.trace_spans.push_back(std::move(span));
    }
    max_finish = std::max(max_finish, q.finish_ms);
    emit_complete(q);
    report.results.push_back(q);
  };

  /// The routing estimate: time until the shard is next free plus its
  /// queued work costed by the running-mean estimator.
  auto backlog_ms = [&](const Shard& s, double now) {
    double b = std::max(0.0, s.free_at - now);
    for (const auto& [algo, n] : s.queued_by_algo) {
      b += static_cast<double>(n) * cost[algo].EstimateMs();
    }
    return b;
  };

  /// Serves `r` on the fleet-wide serial CPU timeline — the terminal
  /// fallback when no shard can take it (all dead, or every queue full on
  /// a re-route).
  auto serve_cpu_global = [&](const Request& r, double now) {
    cpu_free_at = std::max(cpu_free_at, now);
    QueryResult q = serve_cpu(r, cpu_free_at, /*fleet_wide=*/true);
    cpu_free_at = q.finish_ms;
    record_result(q, cost[r.algo].EstimateMs(), 0);
  };

  /// Load-aware admission. Tries live shards in increasing estimated
  /// backlog — ties broken by queue depth (so a cold estimator, whose mean
  /// is still 0, spreads a burst instead of piling it on one shard), then
  /// by shard index. A breaker-open shard is skipped (and reported via
  /// `breaker_blocked`); a half-open one admits a single probe. Returns the
  /// shard that admitted `r`, or nullptr when every live queue is full (or
  /// the fleet is dead).
  auto route = [&](const Request& r, double now, bool* breaker_blocked = nullptr) -> Shard* {
    std::vector<std::tuple<double, size_t, uint32_t>> order;
    order.reserve(shards.size());
    for (Shard& s : shards) {
      if (s.dead || !s.active) continue;
      if (!s.breaker.AllowRoute(now, s.queue.Empty())) {
        if (breaker_blocked != nullptr) *breaker_blocked = true;
        // A breaker-held shard is still a considered candidate (c=0), so
        // the span tree shows why the router looked past it.
        trace::TraceEvent e = make_event(r.id, trace::EventKind::kRouteCandidate, now);
        e.shard = static_cast<int16_t>(s.index);
        e.b = static_cast<double>(s.queue.Depth());
        sink.Emit(e);
        continue;
      }
      const double b = backlog_ms(s, now);
      trace::TraceEvent e = make_event(r.id, trace::EventKind::kRouteCandidate, now);
      e.shard = static_cast<int16_t>(s.index);
      e.a = b;
      e.b = static_cast<double>(s.queue.Depth());
      e.c = 1;  // routable
      sink.Emit(e);
      order.emplace_back(b, s.queue.Depth(), s.index);
    }
    std::sort(order.begin(), order.end());
    for (const auto& [backlog, depth, index] : order) {
      Shard& s = shards[index];
      // The EDF key (when armed) freezes at admission off the same
      // running-mean estimate the routing decision just used.
      if (!s.queue.Admit(r, cost[r.algo].EstimateMs())) continue;
      ++s.queued_by_algo[r.algo];
      // A request entering a half-open shard's queue IS the breaker probe;
      // this is where probes are counted (not in AllowRoute, which also
      // answers for candidates the request never routes to).
      s.breaker.OnProbeAdmitted();
      {
        trace::TraceEvent e = make_event(r.id, trace::EventKind::kRoute, now);
        e.shard = static_cast<int16_t>(s.index);
        e.a = backlog;
        e.b = std::get<0>(order.front());  // the fleet-wide minimum estimate
        sink.Emit(e);
      }
      {
        trace::TraceEvent e = make_event(r.id, trace::EventKind::kAdmit, now);
        e.shard = static_cast<int16_t>(s.index);
        e.a = static_cast<double>(s.queue.Depth());
        e.b = backlog;
        sink.Emit(e);
      }
      return &s;
    }
    return nullptr;
  };

  /// The admission controller's fleet backlog estimate: the least estimated
  /// backlog over shards a request could actually route to (kInf when none
  /// is routable). Uses the breaker's side-effect-free preview so the
  /// estimate never consumes a half-open probe slot.
  auto min_backlog_ms = [&](double now) {
    double b = kInf;
    for (Shard& s : shards) {
      if (s.dead || !s.active || !s.breaker.WouldAllow(now, s.queue.Empty())) continue;
      b = std::min(b, backlog_ms(s, now));
    }
    return b;
  };

  /// Fault-aware drain: empties a quarantined shard's queue into the
  /// deferred set, to be re-routed to peers once the global clock reaches
  /// the fault time `t`.
  auto drain_queue = [&](Shard& s, double t) {
    while (true) {
      std::optional<Request> r = s.queue.PopNext();
      if (!r.has_value()) break;
      --s.queued_by_algo[r->algo];
      ++s.stat.rerouted_out;
      deferred.push_back({t, drain_order++, *r});
    }
  };

  auto dispatch = [&](Shard& s, double now) {
    std::optional<Request> head = s.queue.PopNext();
    ETA_CHECK(head.has_value());
    --s.queued_by_algo[head->algo];
    // Whole-graph memoization (DESIGN.md section 15): a CC/PageRank answer
    // carries no per-source attribution, so an identical request inside the
    // memo window replays the memoized answer at zero simulated device cost
    // — the shard clock is not charged and no batch forms, so the outer
    // loop immediately dispatches the next queued request at the same
    // instant. The cost estimator never sees these (batch_size == 0).
    if (base.memo_window_ms > 0 && core::IsWholeGraph(head->algo)) {
      const auto it = s.memo.find({head->graph_id, head->algo});
      if (it != s.memo.end() && now - it->second.computed_at <= base.memo_window_ms) {
        QueryResult q;
        q.id = head->id;
        q.status = QueryStatus::kOk;
        q.algo = head->algo;
        q.source = head->source;
        q.reached_vertices = it->second.reached;
        q.batch_size = 0;  // no device launch produced this answer
        q.arrival_ms = head->arrival_ms;
        q.start_ms = now;
        q.finish_ms = now;
        q.slo = head->slo;
        ++report.memo_hits;
        trace::TraceEvent e = make_event(head->id, trace::EventKind::kMemo, now);
        e.shard = static_cast<int16_t>(s.index);
        e.a = now - it->second.computed_at;
        e.b = static_cast<double>(it->second.reached);
        sink.Emit(e);
        record_result(q, cost[head->algo].EstimateMs(), 0);
        return;
      }
    }
    Batch batch;
    batch.algo = head->algo;
    batch.graph_id = head->graph_id;
    batch.requests.push_back(*head);
    if (Batchable(batch.algo)) {
      // Fold already-queued compatible requests. ExecuteBatch wave-splits
      // past kMaxAttributedSources, so the fold limit is max_batch alone.
      const uint32_t limit = std::max<uint32_t>(base.max_batch, 1);
      if (batch.requests.size() < limit) {
        std::vector<Request> more = s.queue.PopCompatible(
            batch.algo, batch.graph_id,
            limit - static_cast<uint32_t>(batch.requests.size()));
        for (const Request& r : more) --s.queued_by_algo[r.algo];
        batch.requests.insert(batch.requests.end(), more.begin(), more.end());
      }
    }

    report.batch_occupancy.Add(batch.requests.size());
    report.queue_depth.Add(s.queue.Depth());
    ++report.batches;
    ++s.stat.dispatches;
    metrics
        .GetHistogram("serve_batch_size", "Requests folded into one dispatch.",
                      BatchSizeBuckets())
        .Observe(static_cast<double>(batch.requests.size()));
    metrics
        .GetHistogram("serve_queue_depth", "Queue depth sampled at each dispatch.",
                      QueueDepthBuckets())
        .Observe(static_cast<double>(s.queue.Depth()));

    const double estimate_ms = cost[batch.algo].EstimateMs();
    double dispatch_cycles = 0;
    double t = now;
    std::vector<QueryResult> outcomes;
    std::vector<Request> pending = std::move(batch.requests);

    // Async dispatch: each ExecuteBatch attempt runs as a DAG on a fresh
    // stream — staging copy (or a wait on the pre-stage event), then the
    // launch waves as compute ops. Fresh per attempt, because a wave fault
    // fails its stream for good; the engine FIFOs carry the persistent
    // serialization across dispatches.
    auto new_dispatch_stream = [&]() -> sim::Stream {
      if (!async) return {};
      // The host only reaches this point once it observed the previous
      // dispatch stream complete (free_at gating, or the quarantine loop
      // retrying after the attempt's fault time): record that knowledge
      // as a join, so cross-dispatch accesses are ordered in the DAG log.
      if (s.last_dispatch.valid) s.streams->HostJoin(s.last_dispatch);
      s.last_dispatch = s.streams->CreateStream(
          "shard" + std::to_string(s.index) + "-dispatch" +
          std::to_string(s.dispatch_seq++));
      return s.last_dispatch;
    };
    auto execute_ctx = [&](const ResidentSession& rs, sim::Stream dstream) {
      BatchStreamContext ctx;
      ctx.streams = s.streams.get();
      ctx.stream = dstream;
      ctx.topo_alloc = rs.topo_alloc;
      ctx.state_alloc = rs.state_alloc;
      return ctx;
    };
    auto execute = [&](ResidentSession& rs, sim::Stream dstream) {
      const double dispatch_start = t;
      const double device_before = rs.session->NowMs();
      const BatchStreamContext ctx = execute_ctx(rs, dstream);
      // One kDispatch per request per attempt: a rebuild-then-retry shows
      // up as a second dispatch edge in the span tree.
      for (const Request& r : pending) {
        trace::TraceEvent e = make_event(r.id, trace::EventKind::kDispatch, t);
        e.shard = static_cast<int16_t>(s.index);
        e.a = static_cast<double>(pending.size());
        e.b = t - r.arrival_ms;
        e.c = estimate_ms;
        sink.Emit(e);
      }
      const BatchTraceContext tctx{&sink, static_cast<int16_t>(s.index),
                                   tracer.enabled()};
      BatchOutcome out =
          ExecuteBatch(*rs.session, Batch{batch.algo, batch.graph_id, pending}, t,
                       async ? &ctx : nullptr, &tctx);
      report.faults.Merge(out.faults);
      s.stat.launch_failures += out.faults.launch_failures;
      t += out.duration_ms;
      dispatch_cycles += out.cycles;
      capture_device_slice(s, rs, dispatch_start, device_before);
      if (async) rs.busy_until = std::max(rs.busy_until, t);
      // Flight-recorder trigger: the device fell off the bus mid-batch.
      if (out.faults.device_lost && !out.unserved.empty()) {
        report.blackbox.push_back(
            {"device-lost", t, out.unserved.front().id,
             recorder.Dump("device-lost", t, out.unserved.front().id)});
      }
      pending = std::move(out.unserved);
      return out.results;
    };

    sim::Stream dstream = new_dispatch_stream();
    ResidentSession* rs = ensure_session(s, batch.graph_id, t, dstream);
    if (rs != nullptr) {
      outcomes = execute(*rs, dstream);
    }
    // Quarantine-and-rebuild, with the fault-aware drain: the moment the
    // shard's device is known lost (or staging failed), its queued work
    // re-routes to peers rather than stalling behind the rebuild; only the
    // in-flight remainder retries here. Device loss takes the whole device,
    // so every resident session is torn down, not just the dispatching one.
    while (!pending.empty() && s.rebuilds_left > 0 &&
           (rs == nullptr || !rs->session->Healthy())) {
      // Fleet-wide retry budget: a rebuild re-stages a whole graph, the
      // most load-amplifying recovery step. A dry bucket defers recovery —
      // the shard keeps its (fast-failing) session and its rebuild budget,
      // the remainder of this dispatch degrades to the CPU, and a later
      // dispatch rebuilds once tokens refill.
      if (retry_budget != nullptr && !retry_budget->TryAcquireRebuild()) {
        trace::TraceEvent e = make_event(pending.front().id, trace::EventKind::kRebuild, t);
        e.shard = static_cast<int16_t>(s.index);
        e.a = static_cast<double>(s.rebuilds_left);
        e.c = 1;  // rebuild budget denied — recovery abandoned
        sink.Emit(e);
        break;
      }
      drain_queue(s, t);
      --s.rebuilds_left;
      ++s.stat.rebuilds;
      ++report.session_rebuilds;
      retire_all_sessions(s);
      {
        trace::TraceEvent e = make_event(pending.front().id, trace::EventKind::kRebuild, t);
        e.shard = static_cast<int16_t>(s.index);
        e.a = static_cast<double>(s.rebuilds_left);
        sink.Emit(e);
      }
      dstream = new_dispatch_stream();
      rs = ensure_session(s, batch.graph_id, t, dstream);
      if (rs == nullptr) continue;
      for (QueryResult& q : execute(*rs, dstream)) outcomes.push_back(std::move(q));
    }
    if (!pending.empty() && (rs == nullptr || !rs->session->Healthy()) &&
        s.rebuilds_left == 0) {
      // Rebuild budget exhausted: the shard is dead. Drain whatever queued
      // after the last drain and route around it for good.
      s.dead = true;
      s.stat.dead = true;
      // Flight-recorder trigger: a shard just left the fleet for good.
      report.blackbox.push_back({"shard-dead", t, pending.front().id,
                                 recorder.Dump("shard-dead", t, pending.front().id)});
      drain_queue(s, t);
      retire_all_sessions(s);
    }
    // Circuit breaker: a dispatch whose device path ended unhealthy opens
    // the shard's breaker (quarantine with cooldown, then a half-open
    // probe); a healthy end closes it — including a successful probe. The
    // open transition drains the queue to peers, mirroring the dead-shard
    // quarantine. No-ops entirely when the breaker is unconfigured.
    if (s.breaker.Enabled() && !s.dead) {
      if (rs == nullptr || !rs->session->Healthy()) {
        const uint64_t opens_before = s.breaker.opens();
        s.breaker.OnDispatchFailure(t);
        // Flight-recorder trigger: dump once per open transition (not on
        // every failed dispatch while already open).
        if (s.breaker.opens() > opens_before) {
          const uint64_t victim = pending.empty() ? 0 : pending.front().id;
          report.blackbox.push_back(
              {"breaker-open", t, victim, recorder.Dump("breaker-open", t, victim)});
        }
        drain_queue(s, t);
      } else {
        s.breaker.OnDispatchSuccess();
      }
    }
    // Whatever the device path could not answer is served degraded, on
    // this shard's timeline (it owned the requests).
    for (const Request& r : pending) {
      outcomes.push_back(serve_cpu(r, t));
      t += cpu_query_ms[r.graph_id];
      ++s.stat.degraded;
    }

    uint64_t served_on_device = 0;
    for (const QueryResult& q : outcomes) {
      if (q.status == QueryStatus::kOk) ++served_on_device;
    }
    const double cycles_per_query =
        served_on_device > 0 ? dispatch_cycles / static_cast<double>(served_on_device)
                             : 0;
    s.stat.served += served_on_device;
    // Memo fill: a device-served whole-graph answer becomes this shard's
    // memoized answer for (graph, algo), stamped at its completion time.
    if (base.memo_window_ms > 0 && core::IsWholeGraph(batch.algo)) {
      for (const QueryResult& q : outcomes) {
        if (q.status == QueryStatus::kOk) {
          s.memo[{batch.graph_id, batch.algo}] = {q.finish_ms, q.reached_vertices};
        }
      }
    }
    for (const QueryResult& q : outcomes) {
      record_result(q, estimate_ms, cycles_per_query);
    }
    s.free_at = t;
    s.stat.busy_ms += t - now;
  };

  /// Async dispatch: while a shard's compute engine is busy (free_at in
  /// the future), stage the next queued graph on its own copy stream —
  /// the session build plus the hoisted topology prefetch
  /// (GraphSession::PrefetchTopology) run now, overlapping the in-flight
  /// dispatch's compute, and the consuming dispatch waits on the recorded
  /// ready event instead of paying the staging serially. At most one
  /// pre-stage triggers per busy window (once inserted, the head graph is
  /// resident and the trigger condition goes false). On a single-graph
  /// catalog the head graph is always resident, so this never fires and
  /// the async replay stays byte-identical to the sync one.
  auto maybe_prestage = [&](Shard& s, double now) {
    if (!async || s.dead || !s.active || s.queue.Empty()) return;
    if (s.free_at <= now) return;            // idle shards just dispatch
    if (now < s.no_prestage_until) return;   // backing off a failed build
    const std::optional<Request> head = s.queue.PeekNext();
    if (!head.has_value()) return;
    const uint32_t graph_id = head->graph_id;
    for (const ResidentSession& rs : s.sessions) {
      if (rs.graph_id == graph_id) return;   // resident (or already staging)
    }
    const graph::Csr& csr = *graphs[graph_id];
    const uint64_t budget = options_.device_mem_budget_bytes;
    const uint64_t need = core::ResidentGraph::EstimateDeviceBytes(csr, s.graph_options);
    if (budget > 0) {
      // Feasibility first: only idle sessions are evictable, and unlike a
      // dispatch (which must stage), a pre-stage that cannot fit simply
      // does not happen — no point evicting graphs it cannot use.
      uint64_t evictable = 0;
      bool all_evictable = true;
      for (const ResidentSession& rs : s.sessions) {
        if (rs.busy_until > now) {
          all_evictable = false;
        } else {
          evictable += rs.resident_bytes;
        }
      }
      const uint64_t kept = s.resident_bytes - evictable;
      if (kept + need > budget && !(all_evictable && kept == 0)) return;
      evict_for(s, need, now);
    }
    ResidentSession rs;
    rs.graph_id = graph_id;
    rs.session = std::make_unique<GraphSession>(csr, s.graph_options);
    rs.last_used = ++lru_tick;
    // Hoist the first-query topology prefetch into the staging op, so the
    // whole load lands on the copy engine ahead of the dispatch (answers
    // are unaffected — the first query simply finds the pages resident).
    rs.session->PrefetchTopology();
    if (!rs.session->Loaded()) {
      // Injected staging fault: drop the build and sit out this busy
      // window; the consuming dispatch will stage (and retry) under its
      // own quarantine budget.
      rs.session->Shutdown();
      if (const sanitizer::SanitizerReport* c = rs.session->CheckReport()) {
        report.check.Merge(*c);
      }
      s.no_prestage_until = s.free_at;
      return;
    }
    rs.resident_bytes = rs.session->DeviceBytesPeak();
    const double stage_ms = rs.session->NowMs();  // load + hoisted prefetch
    const sim::Stream cstream = s.streams->CreateStream(
        "shard" + std::to_string(s.index) + "-prestage-g" + std::to_string(graph_id));
    s.streams->CopyAsync(cstream, sim::StreamOpKind::kCopyH2D, stage_ms,
                         "prestage-g" + std::to_string(graph_id),
                         /*earliest_ms=*/now, rs.resident_bytes);
    register_stage_allocs(s, rs);
    rs.prestage_stream = cstream;
    // Copy, not reference: Record() appends to the same ops vector and a
    // reallocation would invalidate a reference taken here.
    const sim::StreamOp op = s.streams->Ops().back();
    rs.ready_event = s.streams->CreateEvent();
    if (plant != DagPlant::kSwapRecordWait) {
      // kSwapRecordWait (test-only): the record the consuming dispatch
      // needs is omitted here and issued — too late — by the consumer.
      s.streams->Record(cstream, rs.ready_event);
    }
    if (plant == DagPlant::kDoublePrestage) {
      // kDoublePrestage (test-only): a duplicate zero-duration staging
      // copy of the same buffer on its own stream, ordered by nothing —
      // timing is untouched (the copy engine tail cannot move backward),
      // but the DAG now carries an unordered write-write pair.
      const sim::Stream dup = s.streams->CreateStream(
          "shard" + std::to_string(s.index) + "-prestage-g" +
          std::to_string(graph_id) + "-dup");
      s.streams->CopyAsync(dup, sim::StreamOpKind::kCopyH2D, 0.0,
                           "prestage-g" + std::to_string(graph_id) + "-dup",
                           /*earliest_ms=*/now, 0);
      s.streams->AnnotateLastOp({{rs.topo_alloc, true}});
    }
    rs.ready_ms = op.end_ms;
    rs.busy_until = op.end_ms;  // mid-copy until then; not evictable
    ++s.stat.prestages;
    s.stat.prestage_ms += stage_ms;
    if (profiling) {
      capture_device_slice(s, rs, op.start_ms, 0.0);
      prof::TraceSpan span{"serve/session", "prestage", op.start_ms, op.end_ms, {}};
      span.args.push_back({"shard", std::to_string(s.index), /*number=*/true});
      span.args.push_back({"graph", std::to_string(graph_id), /*number=*/true});
      report.trace_spans.push_back(std::move(span));
    }
    s.resident_bytes += rs.resident_bytes;
    s.stat.peak_resident_bytes = std::max(s.stat.peak_resident_bytes, s.resident_bytes);
    if (!s.staged_graphs.insert(graph_id).second) ++s.stat.reloads;
    s.sessions.push_back(std::move(rs));
  };

  size_t next = 0;  // first trace entry that has not yet arrived
  double now = 0;

  auto fleet_dead = [&]() {
    for (const Shard& s : shards) {
      if (!s.dead) return false;
    }
    return true;
  };

  /// Backlog autoscaling (DESIGN.md section 15), evaluated at the top of
  /// every event-loop tick. The signal is the mean backlog estimate over
  /// active live shards (kInf when every active shard is dead — which
  /// forces the ladder to its top level and activates the standbys).
  /// Scale-up activates the lowest-index standby immediately; scale-down
  /// deactivates the highest-index active shard only once it is idle,
  /// draining any queued requests to peers — so no request is ever lost to
  /// a scale decision. One scale event per tick that changes the active
  /// count, in active-shard-count units on the simulated clock.
  auto update_autoscale = [&](double t) {
    if (!autoscaling) return;
    double sum = 0;
    uint32_t live_active = 0;
    for (Shard& s : shards) {
      if (!s.active || s.dead) continue;
      sum += backlog_ms(s, t);
      ++live_active;
    }
    const double signal = live_active == 0 ? kInf : sum / static_cast<double>(live_active);
    const uint32_t level = scale_ladder.Update(signal, t);
    const uint32_t target = min_active + level;
    uint32_t active_count = 0;
    for (const Shard& s : shards) {
      if (s.active && !s.dead) ++active_count;
    }
    const uint32_t before = active_count;
    while (active_count < target) {
      Shard* standby = nullptr;
      for (Shard& s : shards) {
        if (!s.active && !s.dead) { standby = &s; break; }
      }
      if (standby == nullptr) break;  // no standby left to wake
      standby->active = true;
      ++active_count;
    }
    while (active_count > target && active_count > min_active) {
      Shard* victim = nullptr;
      for (Shard& s : shards) {
        if (s.active && !s.dead) victim = &s;  // highest index wins
      }
      if (victim == nullptr || victim->free_at > t) break;  // busy: retry next tick
      drain_queue(*victim, t);
      victim->active = false;
      --active_count;
    }
    if (active_count != before) {
      scale_events.push_back({t, before, active_count});
      trace::TraceEvent e =
          make_event(trace::kFleetEventId, trace::EventKind::kScale, t);
      e.a = static_cast<double>(before);
      e.b = static_cast<double>(active_count);
      e.c = signal == kInf ? -1 : signal;
      sink.Emit(e);
    }
  };

  /// Single admission point for fresh arrivals and quarantine re-routes;
  /// returns the admitting shard, or nullptr when the request reached a
  /// terminal state here. Classless requests keep the legacy path
  /// bit-for-bit (route, else reject — or the CPU for re-routes). Classed
  /// requests under slo_admission run the admission controller, in
  /// precedence order: brownout degrade → pressure shed → predictive shed →
  /// route → class-ordered full-queue fallback.
  auto admit_one = [&](const Request& r, double at, bool rerouted) -> Shard* {
    if (fleet_dead()) {
      serve_cpu_global(r, at);
      return nullptr;
    }
    if (ov.slo_admission && r.slo != SloClass::kNone) {
      const double b = min_backlog_ms(at);
      const uint32_t brownout_level = brownout.Update(b, at);
      const uint32_t shed_level = shed_ladder.Update(b, at);
      // (1) Brownout: at level 1 bronze answers come from the CPU fallback,
      // at level 2 silver too — degraded beats shed, shed beats collapse.
      if ((brownout_level >= 1 && r.slo == SloClass::kBronze) ||
          (brownout_level >= 2 && r.slo == SloClass::kSilver)) {
        ++report.overload.brownout_degraded;
        trace::TraceEvent e = make_event(r.id, trace::EventKind::kBrownout, at);
        e.a = b == kInf ? -1 : b;
        e.b = static_cast<double>(brownout_level);
        e.c = SloTargetMs(ov, r.slo);
        sink.Emit(e);
        serve_cpu_global(r, at);
        return nullptr;
      }
      if (r.slo != SloClass::kGold) {
        // (2) Pressure shed: class-ordered (bronze first), hysteretic.
        if ((shed_level >= 1 && r.slo == SloClass::kBronze) ||
            (shed_level >= 2 && r.slo == SloClass::kSilver)) {
          shed(r, at, trace::ShedReason::kPressure, b, cost[r.algo].EstimateMs(),
               SloTargetMs(ov, r.slo));
          return nullptr;
        }
        // (3) Predictive shed: when even the least-loaded routable shard's
        // queue wait plus the running-mean service estimate lands past the
        // class target, the request provably cannot meet its SLO — shed
        // now, before it wastes a queue slot and device work, instead of
        // timing out later. Strict >: a request that lands exactly on its
        // target is still admitted (the ExpiredAt boundary rule).
        const double target = SloTargetMs(ov, r.slo);
        if (b == kInf || at + b + cost[r.algo].EstimateMs() > r.arrival_ms + target) {
          shed(r, at, trace::ShedReason::kPredictive, b, cost[r.algo].EstimateMs(),
               target);
          return nullptr;
        }
      }
      Shard* target = route(r, at);
      if (target != nullptr) return target;
      // (4) Every routable queue is full. Gold is never shed while any
      // shard is alive — it gets a real (if slow) CPU answer; lower
      // classes shed. Shed-vs-reject precedence: a classed request never
      // sees kRejected.
      if (r.slo == SloClass::kGold) {
        serve_cpu_global(r, at);
      } else {
        shed(r, at, trace::ShedReason::kQueueFull, b, cost[r.algo].EstimateMs(),
             SloTargetMs(ov, r.slo));
      }
      return nullptr;
    }
    // Legacy classless path. If the breaker (when configured) held every
    // live shard out of routing, degrade instead of rejecting: the queues
    // were not full, the fleet was cooling down.
    bool breaker_blocked = false;
    Shard* target = route(r, at, &breaker_blocked);
    if (target != nullptr) return target;
    if (rerouted || breaker_blocked) {
      serve_cpu_global(r, at);
    } else {
      reject(r);
    }
    return nullptr;
  };

  while (true) {
    if (retry_budget != nullptr) retry_budget->Advance(now);
    // Scale the active fleet off the backlog signal before admitting: an
    // arrival burst that pushed the estimate over threshold last tick is
    // routed across the grown fleet this tick.
    update_autoscale(now);
    // Admit trace arrivals due now.
    while (next < trace.size() && trace[next].arrival_ms <= now) {
      admit_one(trace[next], now, /*rerouted=*/false);
      ++next;
    }
    // Re-route requests drained out of quarantined shards whose fault time
    // the clock has reached, in drain order.
    if (!deferred.empty()) {
      std::vector<Deferred> ready;
      std::vector<Deferred> later;
      for (Deferred& d : deferred) {
        (d.ready_ms <= now ? ready : later).push_back(std::move(d));
      }
      deferred = std::move(later);
      std::sort(ready.begin(), ready.end(), [](const Deferred& a, const Deferred& b) {
        return a.ready_ms != b.ready_ms ? a.ready_ms < b.ready_ms : a.order < b.order;
      });
      for (const Deferred& d : ready) {
        Shard* target = admit_one(d.request, now, /*rerouted=*/true);
        if (target != nullptr) {
          ++target->stat.rerouted_in;
          trace::TraceEvent e =
              make_event(d.request.id, trace::EventKind::kReroute, now);
          e.shard = static_cast<int16_t>(target->index);
          sink.Emit(e);
        }
      }
    }
    // Sweep expired deadlines everywhere before dispatching.
    for (Shard& s : shards) {
      for (const Request& r : s.queue.ExpireDeadlines(now)) {
        --s.queued_by_algo[r.algo];
        time_out(r, now);
      }
    }
    bool dispatched = false;
    for (Shard& s : shards) {
      if (!s.dead && s.active && s.free_at <= now && !s.queue.Empty()) {
        dispatch(s, now);
        dispatched = true;
      }
    }
    if (dispatched) continue;

    // Busy shards overlap staging with their in-flight compute.
    for (Shard& s : shards) maybe_prestage(s, now);

    double next_t = kInf;
    if (next < trace.size()) next_t = std::min(next_t, trace[next].arrival_ms);
    for (const Deferred& d : deferred) next_t = std::min(next_t, d.ready_ms);
    for (const Shard& s : shards) {
      if (!s.dead && s.active && !s.queue.Empty() && s.free_at > now) {
        next_t = std::min(next_t, s.free_at);
      }
    }
    // A pending scale-down (busy victim) or scale-up (ladder armed by the
    // next arrival) re-evaluates when a shard frees up; the free_at wake-up
    // below already covers the busy-victim case because its queue drained.
    if (autoscaling) {
      for (const Shard& s : shards) {
        if (!s.dead && s.active && s.free_at > now) {
          next_t = std::min(next_t, s.free_at);
        }
      }
    }
    if (next_t == kInf) break;
    now = std::max(now, next_t);
  }

  report.makespan_ms = std::max(max_finish, now);
  for (Shard& s : shards) {
    retire_all_sessions(s);
    if (async) {
      s.stat.overlap_ms = s.streams->OverlapMs();
      if (s.streams->DagLogEnabled()) {
        // Returning the report is the host's device-wide synchronize:
        // every stream's tail is observed here, so none is an orphan.
        s.streams->HostJoinAll();
        report.verify.Merge(verify::VerifyDag(*s.streams));
      }
    }
  }

  for (const auto& [algo, agg] : cost) {
    if (agg.queries == 0) continue;
    CostObservation obs;
    obs.algo = core::AlgoName(algo);
    obs.queries = agg.queries;
    obs.mean_service_ms = agg.service_sum / static_cast<double>(agg.queries);
    obs.mean_abs_error_ms = agg.abs_err_sum / static_cast<double>(agg.queries);
    obs.mean_cycles = agg.cycles_sum / static_cast<double>(agg.queries);
    report.cost_observations.push_back(std::move(obs));
  }
  metrics
      .GetCounter("serve_session_rebuilds_total",
                  "Unhealthy sessions torn down and re-staged.")
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
      .Set(static_cast<double>(options_.shards));
  for (const Shard& s : shards) {
    const MetricLabels labels = {{"shard", std::to_string(s.index)}};
    metrics
        .GetCounter("serve_shard_dispatches_total", "Batches dispatched per shard.",
                    labels)
        .Inc(static_cast<double>(s.stat.dispatches));
    metrics
        .GetCounter("serve_shard_launch_failures_total",
                    "Injected launch faults observed per shard.", labels)
        .Inc(static_cast<double>(s.stat.launch_failures));
    metrics
        .GetCounter("serve_shard_rerouted_total",
                    "Requests drained to healthy peers per quarantined shard.", labels)
        .Inc(static_cast<double>(s.stat.rerouted_out));
    metrics
        .GetCounter("serve_shard_rebuilds_total", "Session rebuilds per shard.", labels)
        .Inc(static_cast<double>(s.stat.rebuilds));
    metrics
        .GetCounter("serve_shard_evictions_total",
                    "Resident graphs evicted under the memory budget per shard.", labels)
        .Inc(static_cast<double>(s.stat.evictions));
    metrics
        .GetCounter("serve_shard_reloads_total",
                    "Re-stagings of a previously staged graph per shard.", labels)
        .Inc(static_cast<double>(s.stat.reloads));
    metrics.GetGauge("serve_shard_busy_ms", "Simulated busy time per shard.", labels)
        .Set(s.stat.busy_ms);
    if (async) {
      // Emitted only on async replays, keeping sync metrics byte-identical.
      metrics
          .GetCounter("serve_shard_prestages_total",
                      "Sessions pre-staged on the copy stream per shard.", labels)
          .Inc(static_cast<double>(s.stat.prestages));
      metrics
          .GetGauge("serve_shard_overlap_ms",
                    "Copy/compute engine overlap achieved per shard.", labels)
          .Set(s.stat.overlap_ms);
    }
    report.shard_stats.push_back(s.stat);
  }
  std::sort(report.results.begin(), report.results.end(),
            [](const QueryResult& a, const QueryResult& b) { return a.id < b.id; });
  report.edf = base.edf;
  if (base.memo_window_ms > 0) {
    report.memo_configured = true;
    metrics
        .GetCounter("serve_memo_hits",
                    "Whole-graph requests answered from the memo table.")
        .Inc(static_cast<double>(report.memo_hits));
  }
  if (autoscaling) {
    report.autoscale_configured = true;
    uint32_t active_final = 0;
    for (const Shard& s : shards) {
      if (s.active && !s.dead) ++active_final;
    }
    report.shards_active = active_final;
    report.scale_events = scale_events;
    metrics
        .GetCounter("serve_scale_events_total",
                    "Autoscaler transitions of the active shard count.")
        .Inc(static_cast<double>(scale_events.size()));
    metrics
        .GetGauge("serve_shards_active",
                  "Active (non-standby) shards at end of replay.")
        .Set(static_cast<double>(active_final));
  }
  report.overload.brownout_level = brownout.level();
  report.overload.brownout_max_level = brownout.max_level();
  report.overload.brownout_transitions = brownout.transitions();
  for (const Shard& s : shards) {
    report.overload.breaker_opens += s.breaker.opens();
    report.overload.breaker_probes += s.breaker.probes();
    report.overload.breaker_probe_failures += s.breaker.probe_failures();
  }
  FinalizeOverloadReport(ov, retry_budget.get(), &report);
  EvaluateSloAlerts(ov, base.slo_alerts, &report);
  FinalizeTraceReport(base, tracer, recorder, report.makespan_ms, &report);
  ETA_CHECK(report.results.size() == trace.size());
  return report;
}

}  // namespace eta::serve
