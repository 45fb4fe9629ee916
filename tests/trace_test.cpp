// Tests for etatrace (DESIGN.md §14): the always-on flight recorder (ring
// semantics, deterministic dumps, pinned device-loss triggers), the SLO
// burn-rate evaluator and its --slo-alerts spec parser, and the per-request
// causal tracer — including the acceptance bar: over a 2x-overload faulted
// sharded replay, every terminal QueryStatus must be re-derivable from the
// rendered span tree alone, with its causal decision event present.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "serve/arrivals.hpp"
#include "serve/router.hpp"
#include "serve/trace.hpp"
#include "trace/alerts.hpp"
#include "trace/events.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/tracer.hpp"
#include "util/json.hpp"

namespace eta {
namespace {

graph::Csr RandomGraph(uint64_t seed) {
  graph::RmatParams params;
  params.scale = 9;
  params.num_edges = 4000;
  params.seed = seed;
  graph::Csr csr = graph::BuildCsr(graph::GenerateRmat(params));
  csr.DeriveWeights(seed * 3 + 1);
  return csr;
}

trace::TraceEvent Event(uint64_t request, double at_ms, trace::EventKind kind) {
  trace::TraceEvent e;
  e.request_id = request;
  e.at_ms = at_ms;
  e.kind = kind;
  return e;
}

// ---------------------------------------------------------------------------
// Flight recorder: bounded ring semantics.

TEST(FlightRecorder, FillPastCapacityEvictsOldestInOrder) {
  trace::FlightRecorder recorder(8);
  for (uint64_t i = 0; i < 20; ++i) {
    recorder.Record(Event(i, static_cast<double>(i), trace::EventKind::kDispatch));
  }
  EXPECT_EQ(recorder.capacity(), 8u);
  EXPECT_EQ(recorder.Size(), 8u);
  EXPECT_EQ(recorder.total_recorded(), 20u);

  // The snapshot is the last 8 events, oldest first.
  const std::vector<trace::TraceEvent> window = recorder.Snapshot();
  ASSERT_EQ(window.size(), 8u);
  for (size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(window[i].request_id, 12 + i);
  }
}

TEST(FlightRecorder, DefaultCapacityHoldsExactlyFourThousandNinetySix) {
  trace::FlightRecorder recorder;
  for (uint64_t i = 0; i < 5000; ++i) {
    recorder.Record(Event(i, 0, trace::EventKind::kWave));
  }
  EXPECT_EQ(recorder.Size(), trace::FlightRecorder::kDefaultCapacity);
  EXPECT_EQ(recorder.Snapshot().front().request_id,
            5000 - trace::FlightRecorder::kDefaultCapacity);
  EXPECT_EQ(recorder.Snapshot().back().request_id, 4999u);
}

TEST(FlightRecorder, DumpIsByteIdenticalAcrossIdenticalSequences) {
  auto build = [] {
    trace::FlightRecorder recorder(16);
    for (uint64_t i = 0; i < 40; ++i) {
      trace::TraceEvent e = Event(i, 0.25 * static_cast<double>(i),
                                  i % 3 == 0 ? trace::EventKind::kFault
                                             : trace::EventKind::kDispatch);
      e.shard = static_cast<int16_t>(i % 2);
      e.a = static_cast<double>(i);
      recorder.Record(e);
    }
    return recorder;
  };
  const std::string first = build().Dump("device-lost", 10.0, 7);
  const std::string second = build().Dump("device-lost", 10.0, 7);
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("reason=device-lost"), std::string::npos);
  EXPECT_NE(first.find("victim=7"), std::string::npos);
  // Oldest-first: the evicted prefix (ids 0..23) must not appear.
  EXPECT_EQ(first.find("req=0 "), std::string::npos);
  EXPECT_LT(first.find("req=24"), first.find("req=39"));
}

TEST(FlightRecorder, DumpKeepsLongLinesWhole) {
  // A 600-byte reason and a 1e300 payload (a 301-digit %.4f) both overrun
  // any fixed line buffer; the dump must carry them in full.
  trace::FlightRecorder recorder(4);
  trace::TraceEvent huge = Event(5, 2.5, trace::EventKind::kFault);
  huge.a = 1e300;
  recorder.Record(huge);
  const std::string reason(600, 'r');
  const std::string dump = recorder.Dump(reason, 1.0, 5);
  EXPECT_NE(dump.find("reason=" + reason + " at=1.0000ms victim=5 events=1 recorded=1\n"),
            std::string::npos);
  std::vector<char> payload(400);
  std::snprintf(payload.data(), payload.size(), " a=%.4f b=0.0000 c=0.0000 op=-1", 1e300);
  EXPECT_GT(std::string(payload.data()).size(), 300u);
  EXPECT_NE(dump.find(payload.data()), std::string::npos);
  EXPECT_EQ(std::count(dump.begin(), dump.end(), '\n'), 2);
  EXPECT_EQ(dump.back(), '\n');
}

TEST(FlightRecorder, ShortLinesRenderAsBefore) {
  // Lines under 256 bytes are exactly what the fixed-buffer renderer
  // produced: the same formats through a 256-byte snprintf.
  trace::FlightRecorder recorder(8);
  for (uint64_t i = 0; i < 5; ++i) {
    trace::TraceEvent e = Event(100 + i, 1.5 * static_cast<double>(i),
                                i % 2 == 0 ? trace::EventKind::kFault
                                           : trace::EventKind::kDispatch);
    e.shard = static_cast<int16_t>(i);
    e.a = 0.125 * static_cast<double>(i);
    e.b = -3.0;
    e.c = 1e6;
    e.op_id = static_cast<int64_t>(i) - 2;
    e.status = static_cast<uint8_t>(i % 3);
    recorder.Record(e);
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "# flight-recorder dump: reason=%s at=%.4fms victim=%llu "
                "events=%zu recorded=%llu\n",
                "shard-dead", 12.25, 103ULL, size_t{5}, 5ULL);
  std::string expected = buf;
  for (const trace::TraceEvent& e : recorder.Snapshot()) {
    const char* status = trace::EventStatusName(e.kind, e.status);
    std::snprintf(buf, sizeof(buf),
                  "%12.4f req=%-8llu %-15s shard=%-3d a=%.4f b=%.4f c=%.4f op=%lld%s%s\n",
                  e.at_ms, static_cast<unsigned long long>(e.request_id),
                  trace::EventKindName(e.kind), static_cast<int>(e.shard), e.a, e.b, e.c,
                  static_cast<long long>(e.op_id), status[0] != '\0' ? " " : "", status);
    expected += buf;
  }
  EXPECT_EQ(recorder.Dump("shard-dead", 12.25, 103), expected);
}

// ---------------------------------------------------------------------------
// --slo-alerts spec parsing.

TEST(AlertSpec, EmptySpecEnablesDefaults) {
  trace::AlertOptions options;
  std::string error;
  ASSERT_TRUE(trace::ParseAlertSpec("", &options, &error)) << error;
  EXPECT_TRUE(options.enabled);
  EXPECT_DOUBLE_EQ(options.objective, 0.999);
  EXPECT_DOUBLE_EQ(options.fast_window_ms, 50);
  EXPECT_DOUBLE_EQ(options.slow_window_ms, 500);
  EXPECT_DOUBLE_EQ(options.burn_threshold, 2);
}

TEST(AlertSpec, FullSpecOverridesEveryField) {
  trace::AlertOptions options;
  std::string error;
  ASSERT_TRUE(trace::ParseAlertSpec("0.99,20,200,4", &options, &error)) << error;
  EXPECT_DOUBLE_EQ(options.objective, 0.99);
  EXPECT_DOUBLE_EQ(options.fast_window_ms, 20);
  EXPECT_DOUBLE_EQ(options.slow_window_ms, 200);
  EXPECT_DOUBLE_EQ(options.burn_threshold, 4);
}

TEST(AlertSpec, RejectsMalformedSpecs) {
  trace::AlertOptions options;
  std::string error;
  EXPECT_FALSE(trace::ParseAlertSpec("1.5", &options, &error));      // objective out of (0,1)
  EXPECT_FALSE(trace::ParseAlertSpec("0.99,0", &options, &error));   // zero window
  EXPECT_FALSE(trace::ParseAlertSpec("0.99,500,50", &options, &error));  // fast > slow
  EXPECT_FALSE(trace::ParseAlertSpec("0.99,10,100,0", &options, &error));  // burn <= 0
  EXPECT_FALSE(trace::ParseAlertSpec("0.99,10,100,2,9", &options, &error));  // extra field
  EXPECT_FALSE(trace::ParseAlertSpec("fast", &options, &error));     // not a number
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// Burn-rate evaluation.

std::vector<trace::AlertSample> Samples(
    const std::vector<std::pair<double, bool>>& points) {
  std::vector<trace::AlertSample> out;
  out.reserve(points.size());
  for (const auto& [at, good] : points) out.push_back({at, good});
  return out;
}

TEST(BurnRate, AllGoodNeverFires) {
  trace::AlertOptions options;
  options.objective = 0.9;
  std::vector<std::pair<double, bool>> points;
  for (int i = 0; i < 200; ++i) points.push_back({static_cast<double>(i), true});
  const trace::AlertSeries series =
      trace::EvaluateBurnRate("gold", Samples(points), options);
  EXPECT_EQ(series.fired, 0u);
  EXPECT_FALSE(series.firing_at_end);
  EXPECT_TRUE(series.transitions.empty());
  EXPECT_DOUBLE_EQ(series.max_fast_burn, 0);
}

TEST(BurnRate, SustainedBadBurstFiresBothWindowsThenResolves) {
  trace::AlertOptions options;
  options.objective = 0.9;  // budget 0.1; threshold 2 => fire at 20% bad
  options.fast_window_ms = 50;
  options.slow_window_ms = 500;
  std::vector<std::pair<double, bool>> points;
  for (int i = 0; i < 20; ++i) points.push_back({static_cast<double>(i), true});
  for (int i = 20; i < 40; ++i) points.push_back({static_cast<double>(i), false});
  for (int i = 40; i < 200; ++i) points.push_back({static_cast<double>(i), true});
  const trace::AlertSeries series =
      trace::EvaluateBurnRate("gold", Samples(points), options);
  EXPECT_EQ(series.samples, 200u);
  EXPECT_EQ(series.bad, 20u);
  EXPECT_GE(series.fired, 1u);
  EXPECT_FALSE(series.firing_at_end);       // the good tail resolves it
  EXPECT_GE(series.transitions.size(), 2u); // fired, then resolved
  EXPECT_TRUE(series.transitions.front().firing);
  EXPECT_FALSE(series.transitions.back().firing);
  EXPECT_GE(series.max_fast_burn, options.burn_threshold);
  // Transitions are on the sample clock, in order.
  for (size_t i = 1; i < series.transitions.size(); ++i) {
    EXPECT_LE(series.transitions[i - 1].at_ms, series.transitions[i].at_ms);
  }
}

TEST(BurnRate, FastBlipAloneDoesNotPage) {
  // One bad sample in a long good run: the fast window spikes but the slow
  // window never crosses the threshold, so nothing fires.
  trace::AlertOptions options;
  options.objective = 0.9;
  options.fast_window_ms = 2;
  options.slow_window_ms = 500;
  std::vector<std::pair<double, bool>> points;
  for (int i = 0; i < 100; ++i) points.push_back({static_cast<double>(i), i != 50});
  const trace::AlertSeries series =
      trace::EvaluateBurnRate("gold", Samples(points), options);
  EXPECT_GE(series.max_fast_burn, options.burn_threshold);
  EXPECT_EQ(series.fired, 0u);
}

// ---------------------------------------------------------------------------
// Serve-path integration.

serve::ShardedOptions OverloadedFleet(uint32_t shards) {
  serve::ShardedOptions fleet;
  fleet.shards = shards;
  fleet.base.queue_capacity = 32;
  fleet.base.overload.slo_admission = true;
  fleet.base.overload.brownout_bronze_backlog_ms = 10;
  fleet.base.overload.shed_bronze_backlog_ms = 20;
  fleet.base.overload.shed_silver_backlog_ms = 40;
  fleet.base.graph.faults.seed = 11;
  fleet.base.graph.faults.ecc_uncorrectable_rate = 0.02;
  fleet.base.graph.faults.hang_rate = 0.01;
  return fleet;
}

std::vector<serve::Request> OverloadArrivals(const graph::Csr& csr, uint32_t count) {
  serve::ArrivalOptions arrivals;
  arrivals.profile = serve::ArrivalProfile::kPoisson;
  arrivals.rate_qps = 4000;  // far above two simulated shards' capacity
  arrivals.num_requests = count;
  arrivals.seed = 5;
  return serve::GenerateArrivals(csr.NumVertices(), arrivals);
}

/// The acceptance bar: parse the rendered trace JSON (nothing else) and
/// re-derive every request's terminal status and its causal decision.
TEST(RequestTrace, EveryTerminalStatusIsRederivableFromItsSpanTree) {
  const graph::Csr csr = RandomGraph(3);
  serve::ShardedOptions fleet = OverloadedFleet(2);
  fleet.base.graph.trace_requests = true;
  const auto trace = OverloadArrivals(csr, 96);
  const serve::ServeReport report = serve::ShardedEngine(fleet).Serve(csr, trace);
  ASSERT_TRUE(report.traced);
  ASSERT_EQ(report.results.size(), trace.size());

  std::string error;
  const auto doc = util::JsonParse(report.RenderRequestTraceJson(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const util::JsonValue* traces = doc->Find("traces");
  ASSERT_NE(traces, nullptr);
  ASSERT_EQ(traces->array.size(), trace.size());

  std::map<uint64_t, const serve::QueryResult*> expected;
  for (const serve::QueryResult& q : report.results) expected[q.id] = &q;

  for (const util::JsonValue& request : traces->array) {
    const uint64_t id = static_cast<uint64_t>(request.Find("id")->number);
    ASSERT_TRUE(expected.count(id)) << "trace for unknown request " << id;
    const serve::QueryResult& want = *expected[id];
    const auto& events = request.Find("events")->array;
    ASSERT_FALSE(events.empty());

    // Exactly one terminal event, and it is the last one.
    size_t completes = 0;
    for (const util::JsonValue& e : events) {
      completes += e.Find("kind")->string == "complete" ? 1 : 0;
    }
    ASSERT_EQ(completes, 1u) << "request " << id;
    const util::JsonValue& last = events.back();
    ASSERT_EQ(last.Find("kind")->string, "complete");

    // The span tree alone names the terminal status...
    EXPECT_EQ(last.Find("status")->string, serve::QueryStatusName(want.status))
        << "request " << id;
    // ...and carries the outcome numbers the report carries.
    EXPECT_NEAR(last.Find("at_ms")->number, want.finish_ms, 1e-3);
    EXPECT_NEAR(last.Find("a")->number, want.LatencyMs(), 1e-3);
    EXPECT_NEAR(last.Find("b")->number, static_cast<double>(want.reached_vertices),
                1e-3);

    // The causal decision behind each terminal state must be in the tree.
    std::set<std::string> kinds;
    for (const util::JsonValue& e : events) kinds.insert(e.Find("kind")->string);
    switch (want.status) {
      case serve::QueryStatus::kRejected:
        EXPECT_TRUE(kinds.count("reject")) << "request " << id;
        break;
      case serve::QueryStatus::kShedded:
        EXPECT_TRUE(kinds.count("shed")) << "request " << id;
        break;
      case serve::QueryStatus::kTimedOut:
        EXPECT_TRUE(kinds.count("timeout")) << "request " << id;
        break;
      case serve::QueryStatus::kDegraded:
        // Served by the CPU: either the brownout ladder sent it there on
        // admission, or the device retry path exhausted and fell back.
        EXPECT_TRUE(kinds.count("cpu-fallback")) << "request " << id;
        break;
      case serve::QueryStatus::kOk:
        // A device answer implies the full admission -> routing -> dispatch
        // causal chain.
        EXPECT_TRUE(kinds.count("route")) << "request " << id;
        EXPECT_TRUE(kinds.count("admit")) << "request " << id;
        EXPECT_TRUE(kinds.count("dispatch")) << "request " << id;
        EXPECT_FALSE(kinds.count("cpu-fallback")) << "request " << id;
        break;
    }
  }
}

TEST(RequestTrace, TracedDoubleRunIsByteIdentical) {
  const graph::Csr csr = RandomGraph(4);
  serve::ShardedOptions fleet = OverloadedFleet(2);
  fleet.base.graph.trace_requests = true;
  const auto trace = OverloadArrivals(csr, 64);
  const serve::ServeReport first = serve::ShardedEngine(fleet).Serve(csr, trace);
  const serve::ServeReport second = serve::ShardedEngine(fleet).Serve(csr, trace);
  EXPECT_EQ(first.RenderRequestTraceJson(), second.RenderRequestTraceJson());
  EXPECT_EQ(first.RenderBlackbox(), second.RenderBlackbox());
  EXPECT_EQ(first.Render("r"), second.Render("r"));
  EXPECT_EQ(first.Json(), second.Json());
}

TEST(RequestTrace, TracingOffLeavesLegacyOutputsByteIdenticalAndUnpolluted) {
  const graph::Csr csr = RandomGraph(5);
  const serve::ShardedOptions fleet = OverloadedFleet(2);
  const auto trace = OverloadArrivals(csr, 64);
  const serve::ServeReport first = serve::ShardedEngine(fleet).Serve(csr, trace);
  const serve::ServeReport second = serve::ShardedEngine(fleet).Serve(csr, trace);
  EXPECT_FALSE(first.traced);
  EXPECT_TRUE(first.request_traces.empty());
  EXPECT_TRUE(first.RenderRequestTraceJson().empty());
  EXPECT_EQ(first.Render("r"), second.Render("r"));
  EXPECT_EQ(first.Json(), second.Json());
  EXPECT_EQ(first.metrics.RenderPrometheus(), second.metrics.RenderPrometheus());

  // No trace/alert/exemplar vocabulary may leak into legacy output with the
  // features off.
  for (const std::string& text :
       {first.Render("r"), first.Json(), first.metrics.RenderPrometheus()}) {
    EXPECT_EQ(text.find("exemplar"), std::string::npos);
    EXPECT_EQ(text.find("serve_alert"), std::string::npos);
    EXPECT_EQ(text.find("\"traced\""), std::string::npos);
    EXPECT_EQ(text.find("\"alerts\""), std::string::npos);
  }
}

TEST(RequestTrace, PinnedDeviceLossDumpNamesTheVictimRequest) {
  const graph::Csr csr = RandomGraph(6);
  serve::ShardedOptions fleet;
  fleet.shards = 1;
  fleet.base.queue_capacity = 64;
  fleet.base.graph.faults.seed = 9;
  fleet.base.graph.faults.lost_at = 3;  // the third launch kills the device

  serve::TraceOptions burst;
  burst.num_requests = 48;
  burst.mean_interarrival_ms = 0.05;
  burst.seed = 2;
  const auto trace = serve::GenerateTrace(csr.NumVertices(), burst);
  const serve::ServeReport report = serve::ShardedEngine(fleet).Serve(csr, trace);

  bool found = false;
  for (const trace::FlightDump& dump : report.blackbox) {
    if (dump.reason != "device-lost") continue;
    found = true;
    EXPECT_LT(dump.victim_request, trace.size());
    EXPECT_NE(dump.text.find("# flight-recorder dump: reason=device-lost"),
              std::string::npos);
    EXPECT_NE(dump.text.find("victim=" + std::to_string(dump.victim_request)),
              std::string::npos);
  }
  EXPECT_TRUE(found) << "pinned device loss produced no flight-recorder dump";
  // The recorder is always on: even this untraced run carries the
  // end-of-replay snapshot, so the dump list is never empty.
  ASSERT_FALSE(report.blackbox.empty());
  const serve::ServeReport again = serve::ShardedEngine(fleet).Serve(csr, trace);
  EXPECT_EQ(report.RenderBlackbox(), again.RenderBlackbox());
}

TEST(RequestTrace, AsyncWaveEventsLinkToStreamDagOps) {
  const graph::Csr csr = RandomGraph(7);
  serve::ShardedOptions fleet;
  fleet.shards = 2;
  fleet.async_dispatch = true;
  fleet.base.graph.trace_requests = true;

  serve::TraceOptions options;
  options.num_requests = 32;
  options.mean_interarrival_ms = 0.2;
  options.seed = 3;
  const auto trace = serve::GenerateTrace(csr.NumVertices(), options);
  const serve::ServeReport report = serve::ShardedEngine(fleet).Serve(csr, trace);
  ASSERT_TRUE(report.traced);

  size_t waves = 0, linked = 0;
  for (const auto& [id, events] : report.request_traces) {
    for (const trace::TraceEvent& e : events) {
      if (e.kind != trace::EventKind::kWave) continue;
      ++waves;
      linked += e.op_id >= 0 ? 1 : 0;
    }
  }
  ASSERT_GT(waves, 0u);
  EXPECT_EQ(linked, waves) << "async waves must carry their DAG op id";
}

TEST(RequestTrace, SloAlertsEvaluatePerClassAndRender) {
  const graph::Csr csr = RandomGraph(8);
  serve::ShardedOptions fleet = OverloadedFleet(2);
  std::string error;
  ASSERT_TRUE(trace::ParseAlertSpec("0.999,50,500,2", &fleet.base.slo_alerts, &error))
      << error;
  const auto trace = OverloadArrivals(csr, 96);
  const serve::ServeReport report = serve::ShardedEngine(fleet).Serve(csr, trace);

  ASSERT_FALSE(report.alerts.empty());
  for (const trace::AlertSeries& series : report.alerts) {
    EXPECT_FALSE(series.name.empty());
    EXPECT_EQ(series.fired > 0, !series.transitions.empty() &&
                                    series.transitions.front().firing);
  }
  EXPECT_NE(report.Json().find("\"alerts\""), std::string::npos);
  EXPECT_NE(report.metrics.RenderPrometheus().find("serve_alert_firing"),
            std::string::npos);
}

TEST(RequestTrace, ExemplarsStampTheSlowestCompletedRequestPerAlgo) {
  const graph::Csr csr = RandomGraph(9);
  serve::ShardedOptions fleet = OverloadedFleet(2);
  fleet.base.graph.trace_requests = true;
  const auto trace = OverloadArrivals(csr, 64);
  const serve::ServeReport report = serve::ShardedEngine(fleet).Serve(csr, trace);
  ASSERT_TRUE(report.traced);
  ASSERT_FALSE(report.latency_exemplars.empty());

  for (const auto& [algo, id] : report.latency_exemplars) {
    // The exemplar id must belong to a completed request whose latency is
    // the per-algo maximum, and its span tree must exist.
    EXPECT_TRUE(report.request_traces.count(id)) << algo;
    double best = -1, got = -1;
    for (const serve::QueryResult& q : report.results) {
      if (q.status != serve::QueryStatus::kOk &&
          q.status != serve::QueryStatus::kDegraded) {
        continue;
      }
      if (core::AlgoName(q.algo) != algo) continue;
      best = std::max(best, q.LatencyMs());
      if (q.id == id) got = q.LatencyMs();
    }
    EXPECT_DOUBLE_EQ(got, best) << algo;
  }
  EXPECT_NE(report.metrics.RenderPrometheus().find("serve_latency_exemplar_request"),
            std::string::npos);
}

// Huge payload doubles (~300 formatted characters each, ~900 together)
// must render untruncated through util::JsonWriter, and the event must
// still close as valid JSON.
TEST(RequestTrace, HugeEventPayloadRendersUntruncated) {
  trace::TraceEvent e = Event(1, 0.0, trace::EventKind::kAdmit);
  e.a = 1e300;
  e.b = 1e300;
  e.c = 1e300;
  const std::string json = trace::RenderTraceEventJson(e);

  std::vector<char> expected(512);
  const int n = std::snprintf(expected.data(), expected.size(), "\"a\":%.4f", e.a);
  ASSERT_GT(n, 256);  // a single value alone is longer than any small buffer
  EXPECT_NE(json.find(expected.data()), std::string::npos);
  EXPECT_NE(json.find("\"c\":"), std::string::npos);
  EXPECT_EQ(json.back(), '}');
  std::string error;
  auto doc = util::JsonParse(json, &error);
  EXPECT_TRUE(doc.has_value()) << error;
}

}  // namespace
}  // namespace eta
