// Tests for the serving-layer metrics registry (DESIGN.md section 9):
// FixedHistogram edge cases (empty / single-sample / all-in-one-bucket),
// exact nearest-rank percentiles, registry interning, Prometheus text
// exposition (label escaping, cumulative buckets), and the metrics +
// cost-model observations a serve replay populates.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "serve/router.hpp"
#include "serve/metrics.hpp"
#include "serve/trace.hpp"
#include "util/json.hpp"

namespace eta::serve {
namespace {

// --- FixedHistogram -----------------------------------------------------------

TEST(FixedHistogram, EmptyIsSafe) {
  FixedHistogram h({1, 2, 4});
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Min(), 0.0);
  EXPECT_DOUBLE_EQ(h.Max(), 0.0);
  // Percentile of nothing is 0, never NaN.
  for (double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(h.Percentile(p), 0.0);
    EXPECT_FALSE(std::isnan(h.Percentile(p)));
  }
  for (size_t i = 0; i <= 3; ++i) EXPECT_EQ(h.CumulativeCount(i), 0u);
}

TEST(FixedHistogram, SingleSampleIsEveryPercentile) {
  FixedHistogram h({1, 2, 4});
  h.Observe(1.5);
  EXPECT_EQ(h.Count(), 1u);
  for (double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(h.Percentile(p), 1.5);
  }
  EXPECT_DOUBLE_EQ(h.Min(), 1.5);
  EXPECT_DOUBLE_EQ(h.Max(), 1.5);
  EXPECT_EQ(h.CumulativeCount(0), 0u);  // le=1
  EXPECT_EQ(h.CumulativeCount(1), 1u);  // le=2
  EXPECT_EQ(h.CumulativeCount(3), 1u);  // +Inf
}

TEST(FixedHistogram, AllSamplesInOneBucket) {
  FixedHistogram h({10, 100, 1000});
  for (int i = 0; i < 50; ++i) h.Observe(42);
  EXPECT_EQ(h.CumulativeCount(0), 0u);   // le=10
  EXPECT_EQ(h.CumulativeCount(1), 50u);  // le=100
  EXPECT_EQ(h.CumulativeCount(2), 50u);  // le=1000
  EXPECT_EQ(h.CumulativeCount(3), 50u);  // +Inf
  EXPECT_DOUBLE_EQ(h.Percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 42.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 42.0);
}

TEST(FixedHistogram, ExactNearestRankPercentiles) {
  FixedHistogram h(LatencyBucketsMs());
  // 1..100 observed out of order: percentiles are exact, not interpolated
  // from bucket boundaries.
  for (int i = 100; i >= 1; --i) h.Observe(i);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(h.Percentile(95), 95.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 100.0);
}

TEST(FixedHistogram, ValuesAboveAllBoundsLandInInf) {
  FixedHistogram h({1, 2});
  h.Observe(1e9);
  EXPECT_EQ(h.CumulativeCount(0), 0u);
  EXPECT_EQ(h.CumulativeCount(1), 0u);
  EXPECT_EQ(h.CumulativeCount(2), 1u);  // +Inf
}

TEST(FixedHistogram, RawSampleRetentionIsBounded) {
  constexpr size_t kCap = FixedHistogram::kMaxRawSamples;
  FixedHistogram h({10, 100, 1000});
  for (size_t i = 0; i < kCap; ++i) h.Observe(5);
  EXPECT_EQ(h.RetainedSamples(), kCap);
  // At the cap every observation is still retained: percentiles are exact.
  EXPECT_DOUBLE_EQ(h.Percentile(99), 5.0);

  for (int i = 0; i < 50; ++i) h.Observe(50);
  for (int i = 0; i < 50; ++i) h.Observe(500);
  EXPECT_EQ(h.Count(), kCap + 100);
  EXPECT_EQ(h.RetainedSamples(), kCap);  // retention stopped growing
  // Counts, sum, extrema and the bucket counts stay exact past the cap...
  EXPECT_DOUBLE_EQ(h.Sum(), static_cast<double>(kCap) * 5.0 + 50 * 50.0 + 50 * 500.0);
  EXPECT_DOUBLE_EQ(h.Min(), 5.0);
  EXPECT_DOUBLE_EQ(h.Max(), 500.0);
  EXPECT_EQ(h.CumulativeCount(0), kCap);        // le=10
  EXPECT_EQ(h.CumulativeCount(1), kCap + 50);   // le=100
  EXPECT_EQ(h.CumulativeCount(2), kCap + 100);  // le=1000
  // ...while percentiles degrade to nearest-rank over the buckets: the
  // median rank lands in the le=10 bucket, the maximum in le=1000.
  EXPECT_DOUBLE_EQ(h.Percentile(50), 10.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 1000.0);
}

TEST(FixedHistogram, OverCapRankInInfBucketReportsExactMax) {
  FixedHistogram h({1});
  for (size_t i = 0; i <= FixedHistogram::kMaxRawSamples; ++i) h.Observe(7.25);
  EXPECT_GT(h.Count(), FixedHistogram::kMaxRawSamples);
  // Every observation is past the last bound, so any rank falls in the
  // +Inf bucket — where the fallback reports the exact observed maximum
  // rather than an unbounded edge.
  EXPECT_DOUBLE_EQ(h.Percentile(50), 7.25);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 7.25);
}

// --- Registry -----------------------------------------------------------------

TEST(MetricsRegistry, InternsChildrenByNameAndLabels) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("requests_total", "Requests.", {{"algo", "BFS"}});
  Counter& b = reg.GetCounter("requests_total", "Requests.", {{"algo", "BFS"}});
  Counter& c = reg.GetCounter("requests_total", "Requests.", {{"algo", "SSSP"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  a.Inc();
  a.Inc(2);
  EXPECT_DOUBLE_EQ(b.Value(), 3.0);
  EXPECT_DOUBLE_EQ(c.Value(), 0.0);

  EXPECT_EQ(reg.FindCounter("requests_total", {{"algo", "BFS"}}), &a);
  EXPECT_EQ(reg.FindCounter("requests_total", {{"algo", "PR"}}), nullptr);
  EXPECT_EQ(reg.FindCounter("nope", {}), nullptr);
}

TEST(MetricsRegistry, ReferencesSurviveLaterRegistrations) {
  MetricsRegistry reg;
  Counter& first = reg.GetCounter("c0", "h", {});
  for (int i = 0; i < 64; ++i) {
    std::string name = "h";
    name += std::to_string(i);
    reg.GetHistogram(name, "h", {1, 2}, {});
  }
  first.Inc(7);
  EXPECT_DOUBLE_EQ(reg.FindCounter("c0", {})->Value(), 7.0);
}

TEST(MetricsRegistry, RendersPrometheusTextExposition) {
  MetricsRegistry reg;
  reg.GetCounter("serve_queries_total", "Requests by status.", {{"status", "ok"}})
      .Inc(12);
  reg.GetGauge("serve_degradation_ratio", "CPU-degraded fraction.").Set(0.25);
  FixedHistogram& h =
      reg.GetHistogram("serve_latency_ms", "Latency.", {1, 5}, {{"algo", "BFS"}});
  h.Observe(0.5);
  h.Observe(3);
  h.Observe(100);

  const std::string text = reg.RenderPrometheus();
  EXPECT_NE(text.find("# HELP serve_queries_total Requests by status.\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_queries_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("serve_queries_total{status=\"ok\"} 12\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_degradation_ratio gauge\n"), std::string::npos);
  EXPECT_NE(text.find("serve_degradation_ratio 0.25\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_latency_ms histogram\n"), std::string::npos);
  EXPECT_NE(text.find("serve_latency_ms_bucket{algo=\"BFS\",le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_ms_bucket{algo=\"BFS\",le=\"5\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_ms_bucket{algo=\"BFS\",le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_ms_sum{algo=\"BFS\"} 103.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_ms_count{algo=\"BFS\"} 3\n"), std::string::npos);
}

TEST(MetricsRegistry, EscapesLabelValues) {
  MetricsRegistry reg;
  reg.GetCounter("c", "h", {{"path", "a\\b\"c\nd"}}).Inc();
  const std::string text = reg.RenderPrometheus();
  EXPECT_NE(text.find("c{path=\"a\\\\b\\\"c\\nd\"} 1\n"), std::string::npos);
}

// --- Replay integration -------------------------------------------------------

graph::Csr RandomGraph(uint64_t seed) {
  graph::RmatParams params;
  params.scale = 9;
  params.num_edges = 4000;
  params.seed = seed;
  graph::Csr csr = graph::BuildCsr(graph::GenerateRmat(params));
  csr.DeriveWeights(seed * 3 + 1);
  return csr;
}

TEST(ServeMetrics, ReplayPopulatesRegistryAndCostObservations) {
  graph::Csr csr = RandomGraph(31);
  ShardedOptions options;
  options.shards = 1;

  TraceOptions trace_options;
  trace_options.num_requests = 24;
  trace_options.seed = 3;
  auto trace = GenerateTrace(csr.NumVertices(), trace_options);

  ShardedEngine engine(options);
  auto report = engine.Serve(csr, trace);
  ASSERT_EQ(report.completed, 24u);
  EXPECT_FALSE(report.metrics.Empty());

  // Every completed query observed a queue-wait and a service-time sample,
  // and the per-algo splits sum back to the total.
  uint64_t queue_samples = 0;
  uint64_t cost_queries = 0;
  for (const CostObservation& c : report.cost_observations) {
    EXPECT_GT(c.queries, 0u);
    EXPECT_GT(c.mean_service_ms, 0.0);
    EXPECT_GT(c.mean_cycles, 0.0);
    EXPECT_GE(c.mean_abs_error_ms, 0.0);
    cost_queries += c.queries;
    const FixedHistogram* queue =
        report.metrics.FindHistogram("serve_queue_wait_ms", {{"algo", c.algo}});
    const FixedHistogram* service =
        report.metrics.FindHistogram("serve_service_ms", {{"algo", c.algo}});
    const FixedHistogram* cycles =
        report.metrics.FindHistogram("serve_query_cycles", {{"algo", c.algo}});
    ASSERT_NE(queue, nullptr) << c.algo;
    ASSERT_NE(service, nullptr) << c.algo;
    ASSERT_NE(cycles, nullptr) << c.algo;
    EXPECT_EQ(queue->Count(), c.queries);
    EXPECT_EQ(service->Count(), c.queries);
    EXPECT_EQ(cycles->Count(), c.queries);
    EXPECT_NEAR(service->Mean(), c.mean_service_ms, 1e-9);
    EXPECT_NEAR(cycles->Mean(), c.mean_cycles, 1e-6);
    queue_samples += queue->Count();
  }
  EXPECT_EQ(cost_queries, report.completed);
  EXPECT_EQ(queue_samples, report.completed);

  // The exposition renders and is byte-deterministic across identical runs.
  const std::string text = report.metrics.RenderPrometheus();
  EXPECT_NE(text.find("serve_queries_total{algo=\"BFS\",status=\"ok\"}"),
            std::string::npos);
  EXPECT_NE(text.find("serve_batch_size_bucket"), std::string::npos);
  auto again = ShardedEngine(options).Serve(csr, trace);
  EXPECT_EQ(again.metrics.RenderPrometheus(), text);

  // Report renderers carry the split: text table and JSON (which must parse).
  const std::string rendered = report.Render("t");
  EXPECT_NE(rendered.find("Latency split (ms)"), std::string::npos);
  EXPECT_NE(rendered.find("Cost model observations"), std::string::npos);
  std::string error;
  auto doc = util::JsonParse(report.Json(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const util::JsonValue* algos = doc->Find("algos");
  ASSERT_NE(algos, nullptr);
  EXPECT_EQ(algos->array.size(), report.cost_observations.size());
  for (const util::JsonValue& a : algos->array) {
    EXPECT_NE(a.Find("mean_abs_cost_error_ms"), nullptr);
    EXPECT_NE(a.Find("queue_wait_p99_ms"), nullptr);
    EXPECT_NE(a.Find("service_p50_ms"), nullptr);
  }
}

}  // namespace
}  // namespace eta::serve
