// Tests for the stream/event layer (sim::StreamScheduler, DESIGN.md
// section 11): within-stream serialization, cross-stream overlap under the
// per-engine FIFO rules, event ordering edges (wait-before-record,
// cross-stream chains, queries on incomplete events), stream-scoped fault
// cancellation, and sync-vs-async serving equivalence — the single-graph
// byte-identity and multi-graph answer-identity contracts the async
// dispatcher (serve::ShardedOptions::async_dispatch) is built on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/framework.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "serve/router.hpp"
#include "serve/trace.hpp"
#include "sim/stream.hpp"

namespace eta {
namespace {

using sim::DagAccess;
using sim::DagNode;
using sim::Event;
using sim::FaultConfig;
using sim::Stream;
using sim::StreamOp;
using sim::StreamOpKind;
using sim::StreamOpStatus;
using sim::StreamScheduler;

StreamScheduler::LaunchOutcome Ok(double ms) { return {ms, false}; }

// --- Scheduling rules ---------------------------------------------------------

TEST(StreamScheduler, SerializesOpsWithinAStream) {
  StreamScheduler sched;
  Stream s = sched.CreateStream("s");
  sched.CopyAsync(s, StreamOpKind::kCopyH2D, 2.0, "in");
  sched.LaunchAsync(s, "kernel", [](double) { return Ok(3.0); });
  sched.CopyAsync(s, StreamOpKind::kCopyD2H, 1.0, "out");

  const std::vector<StreamOp>& ops = sched.Ops();
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_DOUBLE_EQ(ops[0].start_ms, 0.0);
  EXPECT_DOUBLE_EQ(ops[0].end_ms, 2.0);
  EXPECT_DOUBLE_EQ(ops[1].start_ms, 2.0);  // waits for its stream, not just engine
  EXPECT_DOUBLE_EQ(ops[1].end_ms, 5.0);
  EXPECT_DOUBLE_EQ(ops[2].start_ms, 5.0);
  EXPECT_DOUBLE_EQ(ops[2].end_ms, 6.0);
  EXPECT_DOUBLE_EQ(sched.SynchronizeMs(), 6.0);
  EXPECT_DOUBLE_EQ(sched.StreamEndMs(s), 6.0);
  // One stream alone can never overlap engines.
  EXPECT_DOUBLE_EQ(sched.OverlapMs(), 0.0);
}

TEST(StreamScheduler, OverlapsStreamsButSerializesEachEngine) {
  StreamScheduler sched;
  Stream a = sched.CreateStream("a");
  Stream b = sched.CreateStream("b");
  sched.CopyAsync(a, StreamOpKind::kCopyH2D, 2.0, "a-in");
  sched.CopyAsync(b, StreamOpKind::kCopyH2D, 2.0, "b-in");
  sched.LaunchAsync(a, "a-kernel", [](double) { return Ok(4.0); });
  sched.LaunchAsync(b, "b-kernel", [](double) { return Ok(4.0); });

  const std::vector<StreamOp>& ops = sched.Ops();
  ASSERT_EQ(ops.size(), 4u);
  // One H2D engine: b's copy queues behind a's even though the streams are
  // independent.
  EXPECT_DOUBLE_EQ(ops[1].start_ms, 2.0);
  EXPECT_DOUBLE_EQ(ops[1].end_ms, 4.0);
  // a's kernel starts when a's copy lands; b's copy [2,4] overlaps it.
  EXPECT_DOUBLE_EQ(ops[2].start_ms, 2.0);
  EXPECT_DOUBLE_EQ(ops[2].end_ms, 6.0);
  // One compute engine: b's kernel queues behind a's (engine tail 6 beats
  // its stream tail 4).
  EXPECT_DOUBLE_EQ(ops[3].start_ms, 6.0);
  EXPECT_DOUBLE_EQ(ops[3].end_ms, 10.0);
  EXPECT_DOUBLE_EQ(sched.SynchronizeMs(), 10.0);
  EXPECT_DOUBLE_EQ(sched.EngineEndMs(StreamOpKind::kCopyH2D), 4.0);
  EXPECT_DOUBLE_EQ(sched.EngineEndMs(StreamOpKind::kCompute), 10.0);
  // b's copy [2,4] under a's kernel [2,6] is the only copy/compute overlap.
  EXPECT_DOUBLE_EQ(sched.OverlapMs(), 2.0);
}

// --- Event edges --------------------------------------------------------------

TEST(StreamScheduler, WaitBeforeRecordIsANoOp) {
  StreamScheduler sched;
  Stream a = sched.CreateStream("a");
  Event e = sched.CreateEvent();
  EXPECT_FALSE(sched.Recorded(e));
  sched.Wait(a, e);  // snapshot semantics: nothing recorded yet, no dependency
  sched.LaunchAsync(a, "kernel", [](double) { return Ok(1.0); });
  EXPECT_DOUBLE_EQ(sched.Ops().back().start_ms, 0.0);
  EXPECT_DOUBLE_EQ(sched.StreamEndMs(a), 1.0);
}

// --- dag plants (sim::FaultConfig::dag) ---------------------------------------

/// One DAG node as "kind stream [event] [bound|unbound] label accesses".
std::string Describe(const DagNode& node) {
  std::string text = std::string(sim::StreamOpKindName(node.kind)) + " s" +
                     std::to_string(node.stream);
  if (node.event != DagNode::kNoEvent) {
    text += " e" + std::to_string(node.event);
    if (node.kind == StreamOpKind::kWait) text += node.bound ? " bound" : " unbound";
  }
  text += " " + node.label;
  for (const DagAccess& a : node.accesses) {
    text += (a.write ? " w" : " r") + std::to_string(a.alloc);
  }
  return text;
}

/// Copy -> record -> wait -> launch, the shape of a staged dispatch, under
/// `plant`; returns the DAG log and the scheduler's ops.
std::vector<std::string> StagedLaunchDag(FaultConfig::Dag plant,
                                         std::vector<StreamOp>* ops) {
  FaultConfig faults;
  faults.dag = plant;
  StreamScheduler sched({}, faults);
  sched.EnableDagLog();
  const uint32_t topo = sched.RegisterAlloc("topo");
  const uint32_t state = sched.RegisterAlloc("state");
  Stream copy = sched.CreateStream("copy");
  Stream compute = sched.CreateStream("compute");
  Event staged = sched.CreateEvent();
  sched.CopyAsync(copy, StreamOpKind::kCopyH2D, 2.0, "stage");
  sched.AnnotateLastOp({{topo, true}, {state, true}});
  sched.Record(copy, staged);
  sched.Wait(compute, staged);
  sched.LaunchAsync(compute, "kernel", [](double) { return Ok(1.0); });
  sched.AnnotateLastOp({{topo, false}, {state, true}});
  *ops = sched.Ops();
  std::vector<std::string> nodes;
  for (const DagNode& node : sched.DagNodes()) nodes.push_back(Describe(node));
  if (plant == FaultConfig::Dag::kDupCopy) {
    EXPECT_EQ(sched.StreamName(Stream{2, true}), "copy-dup");
  }
  return nodes;
}

TEST(StreamPlants, NoPlantKeepsTheStagedLaunch) {
  std::vector<StreamOp> ops;
  EXPECT_EQ(StagedLaunchDag(FaultConfig::Dag::kNone, &ops),
            (std::vector<std::string>{"copy-h2d s0 stage w0 w1", "record s0 e0 record",
                                      "wait s1 e0 bound wait", "compute s1 kernel r0 w1"}));
  EXPECT_DOUBLE_EQ(ops.back().start_ms, 2.0);
}

TEST(StreamPlants, DropWaitDropsEachWait) {
  std::vector<StreamOp> ops;
  EXPECT_EQ(StagedLaunchDag(FaultConfig::Dag::kDropWait, &ops),
            (std::vector<std::string>{"copy-h2d s0 stage w0 w1", "record s0 e0 record",
                                      "compute s1 kernel r0 w1"}));
  EXPECT_DOUBLE_EQ(ops.back().start_ms, 0.0);  // the kernel races the copy
}

TEST(StreamPlants, LateRecordIssuesTheRecordJustAfterTheFirstWait) {
  std::vector<StreamOp> ops;
  EXPECT_EQ(StagedLaunchDag(FaultConfig::Dag::kLateRecord, &ops),
            (std::vector<std::string>{"copy-h2d s0 stage w0 w1", "wait s1 e0 unbound wait",
                                      "record s0 e0 record", "compute s1 kernel r0 w1"}));
  // The record still completes with the copy; the wait bound to nothing.
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[1].kind, StreamOpKind::kRecord);
  EXPECT_DOUBLE_EQ(ops[1].end_ms, 2.0);
  EXPECT_DOUBLE_EQ(ops.back().start_ms, 0.0);
}

TEST(StreamPlants, DupCopyDuplicatesTheRecordedCopyOnAnUnorderedStream) {
  std::vector<StreamOp> ops;
  EXPECT_EQ(StagedLaunchDag(FaultConfig::Dag::kDupCopy, &ops),
            (std::vector<std::string>{"copy-h2d s0 stage w0 w1", "record s0 e0 record",
                                      "copy-h2d s2 stage-dup w0 w1", "wait s1 e0 bound wait",
                                      "compute s1 kernel r0 w1"}));
  // Zero duration at the copy engine's tail: no other op moves.
  ASSERT_EQ(ops.size(), 5u);
  EXPECT_EQ(ops[2].label, "stage-dup");
  EXPECT_DOUBLE_EQ(ops[2].start_ms, 2.0);
  EXPECT_DOUBLE_EQ(ops[2].end_ms, 2.0);
  EXPECT_DOUBLE_EQ(ops.back().start_ms, 2.0);
}

TEST(StreamScheduler, CrossStreamEventChainOrdersDependentWork) {
  StreamScheduler sched;
  Stream a = sched.CreateStream("a");
  Stream b = sched.CreateStream("b");
  Stream c = sched.CreateStream("c");
  Event staged = sched.CreateEvent();
  Event done = sched.CreateEvent();

  sched.CopyAsync(a, StreamOpKind::kCopyH2D, 2.0, "stage");
  sched.Record(a, staged);
  sched.Wait(b, staged);
  sched.LaunchAsync(b, "kernel", [](double) { return Ok(1.5); });
  sched.Record(b, done);
  sched.Wait(c, done);
  sched.LaunchAsync(c, "downstream", [](double) { return Ok(1.0); });

  EXPECT_DOUBLE_EQ(sched.EventMs(staged), 2.0);
  EXPECT_DOUBLE_EQ(sched.EventMs(done), 3.5);
  // b's kernel could start at 0 by engine rules; the event chain holds it.
  const StreamOp& kernel = sched.Ops()[3];
  EXPECT_EQ(kernel.kind, StreamOpKind::kCompute);
  EXPECT_DOUBLE_EQ(kernel.start_ms, 2.0);
  EXPECT_DOUBLE_EQ(sched.StreamEndMs(c), 4.5);
}

TEST(StreamScheduler, LateRecordDoesNotRetroactivelyBindAnEarlierWait) {
  StreamScheduler sched;
  Stream a = sched.CreateStream("a");
  Stream b = sched.CreateStream("b");
  Event e = sched.CreateEvent();
  sched.Wait(b, e);  // enqueued before any record: binds to nothing, ever
  sched.CopyAsync(a, StreamOpKind::kCopyH2D, 5.0, "stage");
  sched.Record(a, e);  // too late for b's wait
  sched.LaunchAsync(b, "kernel", [](double) { return Ok(1.0); });
  // b's kernel is NOT held to the stage's completion at 5.0 — the record
  // landed after the wait was enqueued, and snapshot semantics never
  // retrofit the dependency.
  EXPECT_DOUBLE_EQ(sched.Ops().back().start_ms, 0.0);
  EXPECT_DOUBLE_EQ(sched.StreamEndMs(b), 1.0);
  // The wait op never materialized on the schedule (it was a no-op)...
  for (const StreamOp& op : sched.Ops()) EXPECT_NE(op.kind, StreamOpKind::kWait);
  EXPECT_TRUE(sched.Recorded(e));
}

TEST(StreamScheduler, EventHandleReuseAcrossDispatchesBindsToLatestRecord) {
  StreamScheduler sched;
  Stream copy = sched.CreateStream("copy");
  Stream d0 = sched.CreateStream("dispatch0");
  Stream d1 = sched.CreateStream("dispatch1");
  Event ready = sched.CreateEvent();

  // Dispatch 0 consumes the first staging epoch.
  sched.CopyAsync(copy, StreamOpKind::kCopyH2D, 2.0, "stage0");
  sched.Record(copy, ready);
  sched.Wait(d0, ready);
  sched.LaunchAsync(d0, "wave0", [](double) { return Ok(1.0); });
  EXPECT_DOUBLE_EQ(sched.Ops().back().start_ms, 2.0);

  // The same handle is re-recorded for a second epoch — the router's
  // ResidentSession keeps one ready_event across its whole life.
  sched.CopyAsync(copy, StreamOpKind::kCopyH2D, 4.0, "stage1");
  sched.Record(copy, ready);
  EXPECT_DOUBLE_EQ(sched.EventMs(ready), 6.0);  // re-record overwrites
  sched.Wait(d1, ready);
  sched.LaunchAsync(d1, "wave1", [](double) { return Ok(1.0); });
  // Dispatch 1 waits for the *latest* record (6.0), not the first (2.0).
  EXPECT_DOUBLE_EQ(sched.Ops().back().start_ms, 6.0);
  EXPECT_DOUBLE_EQ(sched.StreamEndMs(d1), 7.0);
  // Dispatch 0's schedule was sealed before the re-record and is unmoved.
  EXPECT_DOUBLE_EQ(sched.StreamEndMs(d0), 3.0);
}

TEST(StreamScheduler, CancelledWaveEventIsObservableByAnIndependentStream) {
  StreamScheduler sched;
  Stream a = sched.CreateStream("a");
  Stream watcher = sched.CreateStream("watcher");
  Stream bystander = sched.CreateStream("bystander");

  sched.LaunchAsync(a, "wave0", [](double) { return Ok(2.0); });
  sched.LaunchAsync(a, "dies",
                    [](double) { return StreamScheduler::LaunchOutcome{1.0, true}; });
  // The next wave cancels; the dispatcher still records the batch-done
  // event after it, as the real batcher does after cancelled waves.
  EXPECT_EQ(sched.LaunchAsync(a, "wave2", [](double) { return Ok(2.0); }),
            StreamOpStatus::kCancelled);
  Event done = sched.CreateEvent();
  sched.Record(a, done);

  // An independent healthy stream observes the event: complete at the
  // fault time (not the would-be end of the cancelled wave), failed flag
  // carried, and a wait on it poisons the waiter —
  EXPECT_TRUE(sched.Recorded(done));
  EXPECT_TRUE(sched.EventFailed(done));
  EXPECT_DOUBLE_EQ(sched.EventMs(done), 3.0);
  EXPECT_TRUE(sched.Complete(done, 3.0));
  sched.Wait(watcher, done);
  EXPECT_TRUE(sched.StreamFailed(watcher));
  // — while a stream that never touches the event stays healthy.
  EXPECT_EQ(sched.LaunchAsync(bystander, "independent",
                              [](double) { return Ok(1.0); }),
            StreamOpStatus::kDone);
  EXPECT_FALSE(sched.StreamFailed(bystander));
}

TEST(StreamScheduler, QueryOnAnIncompleteEventSaysNotYet) {
  StreamScheduler sched;
  Stream a = sched.CreateStream("a");
  Event e = sched.CreateEvent();
  // Never recorded: not complete at any instant, timestamp 0.
  EXPECT_FALSE(sched.Complete(e, 1e9));
  EXPECT_DOUBLE_EQ(sched.EventMs(e), 0.0);

  sched.CopyAsync(a, StreamOpKind::kCopyH2D, 3.0, "stage");
  sched.Record(a, e);
  EXPECT_TRUE(sched.Recorded(e));
  // Recorded but not reached: cudaEventQuery before the completion instant.
  EXPECT_FALSE(sched.Complete(e, 2.9));
  EXPECT_TRUE(sched.Complete(e, 3.0));
  EXPECT_FALSE(sched.EventFailed(e));
}

// --- Fault scoping ------------------------------------------------------------

TEST(StreamScheduler, FaultCancelsSuccessorsOnItsStreamOnly) {
  StreamScheduler sched;
  Stream a = sched.CreateStream("a");
  Stream b = sched.CreateStream("b");
  Stream c = sched.CreateStream("c");

  EXPECT_EQ(sched.LaunchAsync(a, "dies", [](double) {
              return StreamScheduler::LaunchOutcome{1.0, true};
            }),
            StreamOpStatus::kFailed);
  EXPECT_TRUE(sched.StreamFailed(a));

  // Later work on the failed stream cancels without running.
  bool ran = false;
  EXPECT_EQ(sched.LaunchAsync(a, "after",
                              [&](double) {
                                ran = true;
                                return Ok(1.0);
                              }),
            StreamOpStatus::kCancelled);
  EXPECT_FALSE(ran);
  const StreamOp& cancelled = sched.Ops().back();
  EXPECT_EQ(cancelled.status, StreamOpStatus::kCancelled);
  EXPECT_DOUBLE_EQ(cancelled.DurationMs(), 0.0);
  EXPECT_DOUBLE_EQ(cancelled.start_ms, 1.0);  // pinned at the failure time
  // The engine never saw the cancelled op.
  EXPECT_DOUBLE_EQ(sched.EngineEndMs(StreamOpKind::kCompute), 1.0);

  // Records on a failed stream still complete (no deadlock), carrying the
  // failed flag; a wait on that event fails the waiting stream.
  Event e = sched.CreateEvent();
  sched.Record(a, e);
  EXPECT_TRUE(sched.Recorded(e));
  EXPECT_TRUE(sched.EventFailed(e));
  EXPECT_DOUBLE_EQ(sched.EventMs(e), 1.0);
  sched.Wait(b, e);
  EXPECT_TRUE(sched.StreamFailed(b));
  EXPECT_EQ(sched.LaunchAsync(b, "dependent", [](double) { return Ok(1.0); }),
            StreamOpStatus::kCancelled);

  // A stream with no dependency on the fault keeps running.
  EXPECT_EQ(sched.LaunchAsync(c, "independent", [](double) { return Ok(2.0); }),
            StreamOpStatus::kDone);
  EXPECT_FALSE(sched.StreamFailed(c));
  EXPECT_DOUBLE_EQ(sched.StreamEndMs(c), 3.0);  // queued behind engine tail 1.0
}

// --- Sync vs async serving equivalence ----------------------------------------

graph::Csr RandomGraph(uint64_t seed) {
  graph::RmatParams params;
  params.scale = 9;
  params.num_edges = 4000;
  params.seed = seed;
  graph::Csr csr = graph::BuildCsr(graph::GenerateRmat(params));
  csr.DeriveWeights(seed * 3 + 1);
  return csr;
}

// Runs the same trace through the sync and the stream dispatcher and
// demands bit-identical per-request outcomes — including the simulated
// dispatch/finish timestamps when `timestamps` (the single-graph contract:
// prestaging never fires, so the schedules coincide exactly).
void ExpectEquivalent(const serve::ServeReport& sync, const serve::ServeReport& async_r,
                      bool timestamps) {
  ASSERT_EQ(sync.results.size(), async_r.results.size());
  for (size_t i = 0; i < sync.results.size(); ++i) {
    const serve::QueryResult& x = sync.results[i];
    const serve::QueryResult& y = async_r.results[i];
    ASSERT_EQ(x.id, y.id);
    EXPECT_EQ(x.status, y.status) << "request " << x.id;
    EXPECT_EQ(x.reached_vertices, y.reached_vertices) << "request " << x.id;
    EXPECT_EQ(x.batch_size, y.batch_size) << "request " << x.id;
    if (timestamps) {
      EXPECT_DOUBLE_EQ(x.start_ms, y.start_ms) << "request " << x.id;
      EXPECT_DOUBLE_EQ(x.finish_ms, y.finish_ms) << "request " << x.id;
    }
  }
  EXPECT_EQ(sync.completed, async_r.completed);
  EXPECT_EQ(sync.rejected, async_r.rejected);
  EXPECT_EQ(sync.timed_out, async_r.timed_out);
  EXPECT_EQ(sync.degraded, async_r.degraded);
  if (timestamps) {
    EXPECT_DOUBLE_EQ(sync.makespan_ms, async_r.makespan_ms);
  }
}

TEST(StreamServe, SingleGraphAsyncReplayIsByteIdentical) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    graph::Csr csr = RandomGraph(seed);
    serve::TraceOptions trace_options;
    trace_options.num_requests = 48;
    trace_options.mean_interarrival_ms = 0.05;
    trace_options.seed = seed;
    std::vector<serve::Request> trace =
        serve::GenerateTrace(csr.NumVertices(), trace_options);

    serve::ShardedOptions options;
    options.shards = 2;
    options.base.queue_capacity = trace.size();
    serve::ServeReport sync = serve::ShardedEngine(options).Serve(csr, trace);
    options.async_dispatch = true;
    serve::ServeReport async_r = serve::ShardedEngine(options).Serve(csr, trace);
    ExpectEquivalent(sync, async_r, /*timestamps=*/true);

    // And the async schedule itself replays byte-identically.
    serve::ServeReport again = serve::ShardedEngine(options).Serve(csr, trace);
    EXPECT_EQ(async_r.Render("fleet"), again.Render("fleet")) << "seed " << seed;
    EXPECT_EQ(async_r.Json(), again.Json()) << "seed " << seed;
  }
}

TEST(StreamServe, SingleGraphAsyncStaysByteIdenticalUnderFaults) {
  graph::Csr csr = RandomGraph(31);
  serve::TraceOptions trace_options;
  trace_options.num_requests = 64;
  trace_options.mean_interarrival_ms = 0.05;
  trace_options.seed = 4;
  std::vector<serve::Request> trace =
      serve::GenerateTrace(csr.NumVertices(), trace_options);

  serve::ShardedOptions options;
  options.shards = 2;
  options.base.queue_capacity = trace.size();
  options.base.graph.faults.seed = 7;
  options.base.graph.faults.ecc_uncorrectable_rate = 0.05;
  options.base.graph.faults.device_loss_rate = 0.01;
  serve::ServeReport sync = serve::ShardedEngine(options).Serve(csr, trace);
  options.async_dispatch = true;
  serve::ServeReport async_r = serve::ShardedEngine(options).Serve(csr, trace);

  // Fault decisions are drawn at functional execution (program order), so
  // the same launches fail in both schedules and the fault handling — wave
  // cancellation, rebuilds, degradation — lands identically.
  ExpectEquivalent(sync, async_r, /*timestamps=*/true);
  ASSERT_EQ(sync.shard_stats.size(), async_r.shard_stats.size());
  for (size_t i = 0; i < sync.shard_stats.size(); ++i) {
    EXPECT_EQ(sync.shard_stats[i].launch_failures,
              async_r.shard_stats[i].launch_failures);
    EXPECT_EQ(sync.shard_stats[i].rebuilds, async_r.shard_stats[i].rebuilds);
  }
}

TEST(StreamServe, MultiGraphAsyncPrestagesAndKeepsAnswers) {
  graph::Csr g0 = RandomGraph(41);
  graph::Csr g1 = RandomGraph(42);
  graph::Csr g2 = RandomGraph(43);
  const std::vector<const graph::Csr*> graphs = {&g0, &g1, &g2};
  uint32_t min_vertices = g0.NumVertices();
  for (const graph::Csr* g : graphs) {
    min_vertices = std::min(min_vertices, g->NumVertices());
  }

  serve::TraceOptions trace_options;
  trace_options.num_requests = 60;
  trace_options.mean_interarrival_ms = 0.01;  // saturating burst
  trace_options.seed = 2;
  std::vector<serve::Request> trace = serve::GenerateTrace(min_vertices, trace_options);
  for (size_t i = 0; i < trace.size(); ++i) {
    trace[i].graph_id = static_cast<uint32_t>(i % graphs.size());
  }

  serve::ShardedOptions options;
  options.shards = 1;
  options.base.queue_capacity = trace.size();
  serve::ServeReport sync = serve::ShardedEngine(options).ServeMany(graphs, trace);
  options.async_dispatch = true;
  serve::ServeReport async_r = serve::ShardedEngine(options).ServeMany(graphs, trace);

  // Multi-graph prestaging shifts timestamps (that is the win); the
  // answers and outcome counters must not move.
  ExpectEquivalent(sync, async_r, /*timestamps=*/false);
  ASSERT_EQ(async_r.shard_stats.size(), 1u);
  EXPECT_GT(async_r.shard_stats[0].prestages, 0u);
  EXPECT_GT(async_r.shard_stats[0].overlap_ms, 0.0);
  EXPECT_EQ(sync.shard_stats[0].prestages, 0u);  // sync never prestages
  EXPECT_LE(async_r.makespan_ms, sync.makespan_ms);
}

// Satellite: etacheck findings reported from LaunchAsync-scheduled waves
// must aggregate exactly as under the sync dispatcher — same
// (kind, kernel, buffer) keys, same counts — because the functional
// execution (and thus every observer event) is shared.
TEST(StreamServe, AsyncCheckReportMatchesSync) {
  graph::Csr csr = RandomGraph(51);
  serve::TraceOptions trace_options;
  trace_options.num_requests = 32;
  trace_options.seed = 6;
  // A bursty all-BFS trace: dispatches fold into multi-source attributed
  // waves, the workload shape the planted bugs need to fire.
  trace_options.mean_interarrival_ms = 0.01;
  trace_options.bfs_fraction = 1.0;
  trace_options.sssp_fraction = 0.0;
  std::vector<serve::Request> trace =
      serve::GenerateTrace(csr.NumVertices(), trace_options);

  serve::ShardedOptions options;
  options.shards = 2;
  options.base.queue_capacity = trace.size();
  options.base.graph.check = sanitizer::Config::All();
  options.base.graph.faults.short_buffer = "act_set";   // plant a memcheck hit
  options.base.graph.faults.rmw_buffer = "reach_mask";  // plant a racecheck hit
  serve::ServeReport sync = serve::ShardedEngine(options).Serve(csr, trace);
  options.async_dispatch = true;
  serve::ServeReport async_r = serve::ShardedEngine(options).Serve(csr, trace);

  EXPECT_GT(sync.check.launches_checked, 0u);
  ASSERT_FALSE(sync.check.findings.empty());
  EXPECT_EQ(sync.check.launches_checked, async_r.check.launches_checked);
  ASSERT_EQ(sync.check.findings.size(), async_r.check.findings.size());
  for (size_t i = 0; i < sync.check.findings.size(); ++i) {
    const sanitizer::Finding& x = sync.check.findings[i];
    const sanitizer::Finding& y = async_r.check.findings[i];
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.kernel, y.kernel);
    EXPECT_EQ(x.buffer, y.buffer);
  }
  EXPECT_EQ(sync.check.Render(true), async_r.check.Render(true));
}

}  // namespace
}  // namespace eta
