#include "serve/batcher.hpp"

#include <algorithm>
#include <functional>
#include <string>
#include <utility>

#include "util/check.hpp"

namespace eta::serve {

BatchOutcome ExecuteBatch(GraphSession& session, const Batch& batch, double start_ms,
                          const BatchStreamContext* ctx, const BatchTraceContext* tctx) {
  ETA_CHECK(!batch.requests.empty());
  if (ctx != nullptr) {
    ETA_CHECK(ctx->streams != nullptr);
    ETA_CHECK(ctx->stream.valid);
  }
  BatchOutcome out;
  out.results.reserve(batch.requests.size());

  trace::EventSink* sink = tctx != nullptr ? tctx->sink : nullptr;
  const int16_t trace_shard = tctx != nullptr ? tctx->shard : int16_t{-1};
  // One kWave event per request the wave carried; the op id links the
  // span tree to the stream-DAG node etaverify reasons about.
  auto emit_wave = [&](size_t begin, size_t count, double wave_start, double wave_end,
                       bool failed, int64_t op_id) {
    if (sink == nullptr) return;
    for (size_t i = begin; i < begin + count; ++i) {
      trace::TraceEvent e;
      e.request_id = batch.requests[i].id;
      e.kind = trace::EventKind::kWave;
      e.at_ms = wave_start;
      e.a = static_cast<double>(count);
      e.b = wave_end - wave_start;
      e.c = failed ? 1 : 0;
      e.op_id = op_id;
      e.shard = trace_shard;
      sink->Emit(e);
    }
  };
  // Surfaces the retry loop's failures: per-attempt records when the core
  // layer collected them (trace_requests on), otherwise one aggregate
  // event so the always-on flight recorder still sees the fault.
  auto emit_faults = [&](const core::RunReport& report, uint64_t head_id, double at_ms) {
    if (sink == nullptr || report.faults.launch_failures == 0) return;
    if (!report.attempts.empty()) {
      for (const core::AttemptRecord& rec : report.attempts) {
        if (rec.succeeded) continue;
        trace::TraceEvent e;
        e.request_id = head_id;
        e.kind = trace::EventKind::kFault;
        e.status = rec.fault;
        e.at_ms = at_ms;
        e.a = static_cast<double>(rec.attempt);
        e.b = rec.backoff_ms;
        e.c = rec.budget_denied ? 1 : 0;
        e.shard = trace_shard;
        sink->Emit(e);
      }
      return;
    }
    trace::TraceEvent e;
    e.request_id = head_id;
    e.kind = trace::EventKind::kFault;
    e.status = report.faults.device_lost ? 3 : (report.faults.ecc_uncorrectable > 0 ? 1 : 2);
    e.at_ms = at_ms;
    e.a = static_cast<double>(report.faults.launch_failures);
    e.b = report.faults.backoff_ms;
    e.c = report.faults.exhausted ? 1 : 0;
    e.shard = trace_shard;
    sink->Emit(e);
  };

  auto base_result = [&](const Request& r) {
    QueryResult q;
    q.id = r.id;
    q.status = QueryStatus::kOk;
    q.algo = r.algo;
    q.source = r.source;
    q.arrival_ms = r.arrival_ms;
    q.slo = r.slo;
    return q;
  };

  double t = start_ms;
  // Executes one launch wave: on the running clock (sync), or as a compute
  // op on the caller's stream (async) — the functional run is the same
  // either way, only the timestamps come from the scheduled op. With a
  // fresh stream and idle engines the op starts exactly where the sync
  // clock would, so the two paths produce bit-identical outcomes. Returns
  // false when the stream had already failed and the wave was cancelled
  // without running.
  auto run_wave = [&](std::string label, const std::function<core::RunReport()>& run,
                      core::RunReport* report, double* wave_start) {
    if (ctx == nullptr) {
      *report = run();
      *wave_start = t;
      t += report->query_ms;
      return true;
    }
    const sim::StreamOpStatus status = ctx->streams->LaunchAsync(
        ctx->stream, std::move(label),
        [&](double) {
          *report = run();
          return sim::StreamScheduler::LaunchOutcome{report->query_ms,
                                                     report->DeviceFailed()};
        },
        /*earliest_ms=*/start_ms);
    if (status != sim::StreamOpStatus::kCancelled) {
      // Failed waves still ran (the fault struck mid-launch), so they
      // accessed the session's buffers like any other wave.
      ctx->streams->AnnotateLastOp(
          {{ctx->topo_alloc, false}, {ctx->state_alloc, true}});
    }
    const sim::StreamOp& op = ctx->streams->Ops().back();
    *wave_start = op.start_ms;
    // A cancelled op is stamped at the stream's fault time, which may
    // precede `t`; never move the batch clock backwards.
    t = std::max(t, op.end_ms);
    return status != sim::StreamOpStatus::kCancelled;
  };
  // Surfaces a wave that will never run as a cancelled op on the schedule
  // (zero duration at the fault time) instead of silently dropping it.
  auto cancel_wave = [&](std::string label) {
    if (ctx == nullptr) return;
    ctx->streams->LaunchAsync(
        ctx->stream, std::move(label),
        [](double) { return sim::StreamScheduler::LaunchOutcome{}; },
        /*earliest_ms=*/start_ms);
  };

  // Every per-source traversal folds: attribution demultiplexes BFS, SSSP
  // and SSWP alike. Whole-graph CC/PageRank answers have no per-source
  // dimension; they run sequentially, amortized by the memo table instead.
  if (batch.requests.size() > 1 && !core::IsWholeGraph(batch.algo)) {
    // Per-source attribution masks are kMaxAttributedSources bits wide, so
    // a batch beyond the cap executes as successive launch waves of at most
    // the cap. Each wave is a complete attributed launch; a device failure
    // leaves that wave and everything behind it unserved.
    constexpr size_t kWave = core::ResidentGraph::kMaxAttributedSources;
    const std::string wave_label = std::string(core::AlgoName(batch.algo)) + "-wave";
    for (size_t begin = 0; begin < batch.requests.size(); begin += kWave) {
      const size_t count = std::min(kWave, batch.requests.size() - begin);
      std::vector<graph::VertexId> sources;
      sources.reserve(count);
      for (size_t i = begin; i < begin + count; ++i) {
        ETA_CHECK(batch.requests[i].algo == batch.algo);
        sources.push_back(batch.requests[i].source);
      }
      core::RunReport report;
      double wave_start = t;
      const bool ran = run_wave(
          wave_label, [&] { return session.RunBatch(batch.algo, sources); }, &report,
          &wave_start);
      const int64_t op_id =
          ctx != nullptr ? static_cast<int64_t>(ctx->streams->Ops().size()) - 1 : -1;
      const uint64_t head_id = batch.requests[begin].id;
      if (ran) {
        out.faults.Merge(report.faults);
        out.cycles += report.query_counters.elapsed_cycles;
        if (tctx != nullptr && tctx->tag_ops && ctx != nullptr) {
          ctx->streams->TagLastOp(head_id);
        }
        emit_wave(begin, count, wave_start, t, report.DeviceFailed(), op_id);
        emit_faults(report, head_id, wave_start);
      }
      if (!ran || report.DeviceFailed()) {
        // All-or-nothing per wave: a folded launch that died answers
        // nobody, and later waves never dispatch on the failed session.
        out.unserved.assign(batch.requests.begin() + static_cast<long>(begin),
                            batch.requests.end());
        out.device_failed = true;
        for (size_t b = begin + kWave; b < batch.requests.size(); b += kWave) {
          cancel_wave(wave_label);
        }
        break;
      }
      ETA_CHECK(report.per_source_reached.size() == count);
      for (size_t i = 0; i < count; ++i) {
        QueryResult q = base_result(batch.requests[begin + i]);
        q.reached_vertices = report.per_source_reached[i];
        q.batch_size = static_cast<uint32_t>(count);
        q.start_ms = wave_start;
        q.finish_ms = t;
        out.results.push_back(q);
      }
    }
    out.duration_ms = t - start_ms;
    return out;
  }

  // Sequential path: run each request on its own, back to back.
  for (size_t i = 0; i < batch.requests.size(); ++i) {
    const Request& r = batch.requests[i];
    core::RunReport report;
    double wave_start = t;
    const bool ran = run_wave(
        std::string(core::AlgoName(r.algo)),
        [&] { return session.RunQuery(r.algo, r.source); }, &report, &wave_start);
    const int64_t op_id =
        ctx != nullptr ? static_cast<int64_t>(ctx->streams->Ops().size()) - 1 : -1;
    if (ran) {
      out.faults.Merge(report.faults);
      out.cycles += report.query_counters.elapsed_cycles;
      if (tctx != nullptr && tctx->tag_ops && ctx != nullptr) {
        ctx->streams->TagLastOp(r.id);
      }
      emit_wave(i, 1, wave_start, t, report.DeviceFailed(), op_id);
      emit_faults(report, r.id, wave_start);
    }
    if (!ran || report.DeviceFailed()) {
      // This request and everything behind it goes back to the engine; a
      // session that just exhausted its retry budget (or lost its device)
      // is not a place to keep dispatching.
      out.unserved.assign(batch.requests.begin() + static_cast<long>(i),
                          batch.requests.end());
      out.device_failed = true;
      for (size_t j = i + 1; j < batch.requests.size(); ++j) {
        cancel_wave(std::string(core::AlgoName(batch.requests[j].algo)));
      }
      break;
    }
    QueryResult q = base_result(r);
    q.reached_vertices = report.activated;
    q.batch_size = 1;
    q.start_ms = wave_start;
    q.finish_ms = t;
    out.results.push_back(q);
  }
  out.duration_ms = t - start_ms;
  return out;
}

}  // namespace eta::serve
