// Tests for overload control under open-loop load (DESIGN.md §13): the
// arrival-process generator, the retry-budget token bucket, the hysteretic
// ladders, the circuit breaker, and the sharded router's SLO admission
// controller (predictive shed, class-ordered pressure shed, brownout
// serving, capacity boundaries, and replay determinism).
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "core/retry_budget.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "serve/arrivals.hpp"
#include "serve/overload.hpp"
#include "serve/router.hpp"
#include "serve/trace.hpp"

namespace eta::serve {
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

/// A burst of classed BFS requests, all arriving at t=0.
std::vector<Request> ClassedBurst(uint32_t count, graph::VertexId num_vertices,
                                  SloClass slo) {
  std::vector<Request> trace;
  trace.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Request r;
    r.id = i;
    r.algo = core::Algo::kBfs;
    r.source = (i * 37) % num_vertices;
    r.arrival_ms = 0;
    r.slo = slo;
    r.priority = SloPriority(slo);
    trace.push_back(r);
  }
  return trace;
}

/// Classed requests arriving every `gap_ms` — slower than a burst but still
/// far above one shard's capacity, so dispatches interleave with admissions
/// and the router's cost estimator warms up (a t=0 burst is admitted before
/// any service time has ever been observed, so the backlog estimate is 0).
std::vector<Request> ClassedOverloadTrace(uint32_t count, graph::VertexId num_vertices,
                                          SloClass slo, double gap_ms) {
  std::vector<Request> trace = ClassedBurst(count, num_vertices, slo);
  for (uint32_t i = 0; i < count; ++i) {
    trace[i].arrival_ms = static_cast<double>(i) * gap_ms;
  }
  return trace;
}

uint64_t CountStatus(const ServeReport& report, QueryStatus status) {
  uint64_t n = 0;
  for (const QueryResult& q : report.results) n += q.status == status ? 1 : 0;
  return n;
}

/// Every admitted request must reach exactly one terminal state.
void ExpectComplete(const ServeReport& report, size_t trace_size) {
  ASSERT_EQ(report.results.size(), trace_size);
  EXPECT_EQ(report.completed + report.rejected + report.timed_out + report.shedded,
            trace_size);
  EXPECT_EQ(CountStatus(report, QueryStatus::kOk) +
                CountStatus(report, QueryStatus::kDegraded),
            report.completed);
  EXPECT_EQ(CountStatus(report, QueryStatus::kShedded), report.shedded);
  EXPECT_EQ(CountStatus(report, QueryStatus::kRejected), report.rejected);
  EXPECT_EQ(CountStatus(report, QueryStatus::kTimedOut), report.timed_out);
}

// --- Arrival processes --------------------------------------------------------

TEST(Arrivals, SameOptionsReplayByteIdentically) {
  ArrivalOptions options;
  options.num_requests = 300;
  options.rate_qps = 2000;
  options.num_graphs = 3;
  options.seed = 11;
  std::vector<Request> a = GenerateArrivals(4096, options);
  std::vector<Request> b = GenerateArrivals(4096, options);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 300u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, i);
    EXPECT_EQ(a[i].arrival_ms, b[i].arrival_ms);
    EXPECT_EQ(a[i].source, b[i].source);
    EXPECT_EQ(a[i].algo, b[i].algo);
    EXPECT_EQ(a[i].slo, b[i].slo);
    EXPECT_EQ(a[i].graph_id, b[i].graph_id);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    if (i > 0) {
      EXPECT_GE(a[i].arrival_ms, a[i - 1].arrival_ms);
    }
  }
}

TEST(Arrivals, SeedChangesTheTrace) {
  ArrivalOptions options;
  options.num_requests = 64;
  ArrivalOptions other = options;
  other.seed = options.seed + 1;
  std::vector<Request> a = GenerateArrivals(4096, options);
  std::vector<Request> b = GenerateArrivals(4096, other);
  bool differs = false;
  for (size_t i = 0; i < a.size(); ++i) {
    differs = differs || a[i].arrival_ms != b[i].arrival_ms || a[i].source != b[i].source;
  }
  EXPECT_TRUE(differs);
}

TEST(Arrivals, PoissonHitsTheRequestedAverageRate) {
  ArrivalOptions options;
  options.profile = ArrivalProfile::kPoisson;
  options.rate_qps = 1000;  // 1 request per ms
  options.num_requests = 4000;
  options.seed = 3;
  std::vector<Request> trace = GenerateArrivals(4096, options);
  const double span_ms = trace.back().arrival_ms;
  EXPECT_NEAR(span_ms, 4000.0, 4000.0 * 0.10);
}

TEST(Arrivals, BurstyAndDiurnalPreserveTheAverageRate) {
  // The normalization contract: rate_qps is the *time-averaged* rate for
  // every profile, so capacity multiples mean the same thing across them.
  for (ArrivalProfile profile : {ArrivalProfile::kBursty, ArrivalProfile::kDiurnal}) {
    ArrivalOptions options;
    options.profile = profile;
    options.rate_qps = 1000;
    options.num_requests = 4000;
    options.seed = 5;
    std::vector<Request> trace = GenerateArrivals(4096, options);
    EXPECT_NEAR(trace.back().arrival_ms, 4000.0, 4000.0 * 0.15)
        << ArrivalProfileName(profile);
  }
}

TEST(Arrivals, BurstyConcentratesArrivalsInOnWindows) {
  ArrivalOptions options;
  options.profile = ArrivalProfile::kBursty;
  options.rate_qps = 1000;
  options.num_requests = 2000;
  options.on_ms = 20;
  options.off_ms = 80;
  options.off_rate_scale = 0;  // fully silent gaps
  options.seed = 7;
  std::vector<Request> trace = GenerateArrivals(4096, options);
  uint64_t in_on = 0;
  for (const Request& r : trace) {
    const double phase = r.arrival_ms - 100.0 * std::floor(r.arrival_ms / 100.0);
    in_on += phase < options.on_ms ? 1 : 0;
  }
  // With offscale=0 every arrival lands in an on window.
  EXPECT_EQ(in_on, trace.size());
}

TEST(Arrivals, SloMixMatchesTheRequestedFractions) {
  ArrivalOptions options;
  options.num_requests = 4000;
  options.gold_fraction = 0.25;
  options.silver_fraction = 0.25;
  options.gold_deadline_ms = 5;
  options.silver_deadline_ms = 20;
  options.bronze_deadline_ms = 80;
  options.seed = 13;
  std::vector<Request> trace = GenerateArrivals(4096, options);
  std::map<SloClass, uint64_t> counts;
  for (const Request& r : trace) {
    ++counts[r.slo];
    EXPECT_EQ(r.priority, SloPriority(r.slo));
    switch (r.slo) {
      case SloClass::kGold: EXPECT_EQ(r.deadline_ms, 5); break;
      case SloClass::kSilver: EXPECT_EQ(r.deadline_ms, 20); break;
      case SloClass::kBronze: EXPECT_EQ(r.deadline_ms, 80); break;
      case SloClass::kNone: ADD_FAILURE() << "classless request in an SLO trace"; break;
    }
  }
  const double n = static_cast<double>(trace.size());
  EXPECT_NEAR(static_cast<double>(counts[SloClass::kGold]) / n, 0.25, 0.05);
  EXPECT_NEAR(static_cast<double>(counts[SloClass::kSilver]) / n, 0.25, 0.05);
  EXPECT_NEAR(static_cast<double>(counts[SloClass::kBronze]) / n, 0.50, 0.05);
}

TEST(Arrivals, ClasslessModeProducesLegacyShapedRequests) {
  ArrivalOptions options;
  options.num_requests = 200;
  options.assign_slo = false;
  std::vector<Request> trace = GenerateArrivals(4096, options);
  for (const Request& r : trace) {
    EXPECT_EQ(r.slo, SloClass::kNone);
    EXPECT_EQ(r.priority, 0);
    EXPECT_EQ(r.deadline_ms, kNoDeadline);
  }
}

TEST(Arrivals, HotGraphSkewConcentratesOnGraphZero) {
  ArrivalOptions options;
  options.num_requests = 4000;
  options.num_graphs = 4;
  options.hot_graph_fraction = 0.7;
  options.seed = 17;
  std::vector<Request> trace = GenerateArrivals(4096, options);
  uint64_t hot = 0;
  for (const Request& r : trace) {
    ASSERT_LT(r.graph_id, 4u);
    hot += r.graph_id == 0 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hot) / static_cast<double>(trace.size()), 0.7, 0.05);
}

TEST(Arrivals, TenantMixesShapeTheAlgorithmBlend) {
  ArrivalOptions options;
  options.num_requests = 4000;
  options.tenants = {{/*weight=*/1.0, /*bfs=*/1.0, /*sssp=*/0.0},
                     {/*weight=*/1.0, /*bfs=*/0.0, /*sssp=*/1.0}};
  options.seed = 19;
  std::vector<Request> trace = GenerateArrivals(4096, options);
  for (const Request& r : trace) {
    ASSERT_LT(r.tenant, 2u);
    // Degenerate mixes make the mapping exact: tenant 0 only issues BFS,
    // tenant 1 only SSSP.
    EXPECT_EQ(r.algo, r.tenant == 0 ? core::Algo::kBfs : core::Algo::kSssp);
  }
}

TEST(Arrivals, ParseSpecRoundTripsAndRejectsGarbage) {
  ArrivalOptions options;
  std::string error;
  ASSERT_TRUE(ParseArrivalSpec(
      "bursty:rate=1500,n=512,on=10,off=90,offscale=0.25,gold=0.1,silver=0.4,seed=42",
      &options, &error))
      << error;
  EXPECT_EQ(options.profile, ArrivalProfile::kBursty);
  EXPECT_EQ(options.rate_qps, 1500);
  EXPECT_EQ(options.num_requests, 512u);
  EXPECT_EQ(options.on_ms, 10);
  EXPECT_EQ(options.off_ms, 90);
  EXPECT_EQ(options.off_rate_scale, 0.25);
  EXPECT_EQ(options.gold_fraction, 0.1);
  EXPECT_EQ(options.silver_fraction, 0.4);
  EXPECT_EQ(options.seed, 42u);

  ArrivalOptions plain;
  ASSERT_TRUE(ParseArrivalSpec("poisson", &plain, &error)) << error;
  EXPECT_EQ(plain.profile, ArrivalProfile::kPoisson);

  for (const char* bad :
       {"", "warp:rate=1", "poisson:rate", "poisson:rate=x", "poisson:bogus=3",
        "poisson:gold=0.7,silver=0.7"}) {
    ArrivalOptions scratch;
    error.clear();
    EXPECT_FALSE(ParseArrivalSpec(bad, &scratch, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(Arrivals, ParseSpecRangeChecksEveryKey) {
  // Per key: values the key accepts, then values it must reject with an
  // error (out of range, fractional for integer keys, not finite) — never
  // an abort, a bad_alloc, or an out-of-range cast.
  struct KeyCase {
    const char* key;
    std::vector<const char*> good;
    std::vector<const char*> bad;
  };
  const std::vector<KeyCase> cases = {
      {"rate", {"0.5", "4000"}, {"0", "-1", "inf", "nan"}},
      {"n", {"1", "1048576"}, {"0", "2.5", "1048577", "4294967296", "1e12", "inf"}},
      {"on", {"0.1"}, {"0", "-3", "inf"}},
      {"off", {"0", "90"}, {"-1", "inf"}},
      {"offscale", {"0", "0.25"}, {"-0.5", "inf"}},
      {"period", {"500"}, {"0", "-1", "inf"}},
      {"trough", {"0", "1"}, {"-0.1", "1.5", "nan"}},
      {"graphs", {"1", "4294967295"}, {"0", "1.5", "4294967296", "1e10"}},
      {"hot", {"0", "0.7", "1"}, {"-0.1", "1.1"}},
      {"tenants", {"1", "1024"}, {"0", "2.5", "1025", "1e10", "-inf"}},
      {"slo", {"0", "1"}, {"0.5", "2", "-1"}},
      {"cc", {"0", "0.3"}, {"-0.1", "1.5"}},
      {"pr", {"0", "0.3"}, {"-0.1", "1.5"}},
      {"gold", {"0", "0.25"}, {"-0.1", "1.5"}},
      {"silver", {"0", "0.25"}, {"-0.1", "1.5"}},
      {"gd", {"5"}, {"0", "-5", "inf"}},
      {"sd", {"5"}, {"0", "-5", "inf"}},
      {"bd", {"5"}, {"0", "-5", "inf"}},
      {"seed", {"0", "42", "18446744073709549568"},
       {"-1", "0.5", "18446744073709551616", "1e30", "inf"}},
  };
  std::string error;
  for (const KeyCase& c : cases) {
    for (const char* value : c.good) {
      const std::string spec = std::string("poisson:") + c.key + "=" + value;
      ArrivalOptions options;
      error.clear();
      EXPECT_TRUE(ParseArrivalSpec(spec, &options, &error)) << spec << ": " << error;
    }
    for (const char* value : c.bad) {
      const std::string spec = std::string("poisson:") + c.key + "=" + value;
      ArrivalOptions options;
      error.clear();
      EXPECT_FALSE(ParseArrivalSpec(spec, &options, &error)) << spec;
      EXPECT_FALSE(error.empty()) << spec;
    }
  }
  // Accepted integer values land in their fields exactly.
  ArrivalOptions options;
  ASSERT_TRUE(ParseArrivalSpec(
      "diurnal:n=1048576,graphs=4294967295,tenants=3,seed=18446744073709549568", &options,
      &error))
      << error;
  EXPECT_EQ(options.num_requests, kMaxArrivalRequests);
  EXPECT_EQ(options.num_graphs, 4294967295u);
  EXPECT_EQ(options.tenants.size(), 3u);
  EXPECT_EQ(options.seed, 18446744073709549568u);  // the largest double below 2^64
}

// --- Retry budget -------------------------------------------------------------

TEST(RetryBudget, GrantsUpToBurstThenDeniesUntilRefill) {
  core::RetryBudget budget({/*tokens_per_s=*/1000.0, /*burst=*/2.0});
  ASSERT_TRUE(budget.Enabled());
  EXPECT_TRUE(budget.TryAcquireRetry());
  EXPECT_TRUE(budget.TryAcquireRebuild());
  EXPECT_FALSE(budget.TryAcquireRetry());
  EXPECT_FALSE(budget.TryAcquireRebuild());
  EXPECT_EQ(budget.stats().retries_granted, 1u);
  EXPECT_EQ(budget.stats().rebuilds_granted, 1u);
  EXPECT_EQ(budget.stats().retries_denied, 1u);
  EXPECT_EQ(budget.stats().rebuilds_denied, 1u);

  // 1 token/ms: after 1.5 simulated ms there is budget for one more draw.
  budget.Advance(1.5);
  EXPECT_TRUE(budget.TryAcquireRetry());
  EXPECT_FALSE(budget.TryAcquireRetry());

  // Refill is monotone and clamped to the burst depth.
  budget.Advance(1.0);  // stale timestamp: no-op
  EXPECT_FALSE(budget.TryAcquireRetry());
  budget.Advance(1e9);
  EXPECT_NEAR(budget.TokensAvailable(), 2.0, 1e-9);
}

TEST(RetryBudget, DisabledBudgetGrantsEverythingUncounted) {
  core::RetryBudget budget({/*tokens_per_s=*/0, /*burst=*/1.0});
  EXPECT_FALSE(budget.Enabled());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(budget.TryAcquireRetry());
  EXPECT_EQ(budget.stats().Granted(), 0u);
  EXPECT_EQ(budget.stats().Denied(), 0u);
}

// --- Hysteresis ladder --------------------------------------------------------

TEST(HysteresisLadder, ClimbsAtThresholdsAndDescendsWithHysteresis) {
  HysteresisLadder ladder({10.0, 20.0}, /*hysteresis=*/0.5);
  EXPECT_EQ(ladder.Update(9.9, 0), 0u);
  EXPECT_EQ(ladder.Update(10.0, 1), 1u);  // enter is >=
  EXPECT_EQ(ladder.Update(25.0, 2), 2u);
  // Exit of level 2 requires dropping below 20 * 0.5 = 10.
  EXPECT_EQ(ladder.Update(12.0, 3), 2u);
  EXPECT_EQ(ladder.Update(9.0, 4), 1u);
  // Exit of level 1 requires dropping below 10 * 0.5 = 5.
  EXPECT_EQ(ladder.Update(5.0, 5), 1u);
  EXPECT_EQ(ladder.Update(4.9, 6), 0u);
  EXPECT_EQ(ladder.max_level(), 2u);
  ASSERT_EQ(ladder.transitions().size(), 4u);
  EXPECT_EQ(ladder.transitions()[0].at_ms, 1);
  EXPECT_EQ(ladder.transitions()[0].to_level, 1u);
  EXPECT_EQ(ladder.transitions()[1].to_level, 2u);
  EXPECT_EQ(ladder.transitions()[2].to_level, 1u);
  EXPECT_EQ(ladder.transitions()[3].to_level, 0u);
}

TEST(HysteresisLadder, SpikesCanSkipLevelsInOneUpdate) {
  HysteresisLadder ladder({10.0, 20.0}, 0.5);
  EXPECT_EQ(ladder.Update(100.0, 0), 2u);
  EXPECT_EQ(ladder.Update(0.0, 1), 0u);
  EXPECT_EQ(ladder.transitions().size(), 2u);
}

TEST(HysteresisLadder, MultiLevelJumpRecordsOneTransition) {
  HysteresisLadder ladder({10.0, 20.0, 30.0}, 0.5);
  // A spike crossing every threshold in one observation records exactly one
  // transition carrying the whole jump (0 -> 3), timestamped at that
  // observation — not one synthetic transition per level crossed. Consumers
  // (brownout_transitions, scale event counts) count observations that
  // changed the level, so a 2-level jump is one event.
  EXPECT_EQ(ladder.Update(100.0, 5.0), 3u);
  ASSERT_EQ(ladder.transitions().size(), 1u);
  EXPECT_EQ(ladder.transitions()[0].at_ms, 5.0);
  EXPECT_EQ(ladder.transitions()[0].from_level, 0u);
  EXPECT_EQ(ladder.transitions()[0].to_level, 3u);
  // The multi-level collapse back down is likewise a single transition.
  EXPECT_EQ(ladder.Update(0.0, 6.0), 0u);
  ASSERT_EQ(ladder.transitions().size(), 2u);
  EXPECT_EQ(ladder.transitions()[1].from_level, 3u);
  EXPECT_EQ(ladder.transitions()[1].to_level, 0u);
}

TEST(HysteresisLadder, NonPositiveThresholdDisablesUpperLevels) {
  HysteresisLadder capped({10.0, 0.0}, 0.5);
  EXPECT_EQ(capped.Update(1e9, 0), 1u);
  HysteresisLadder off({0.0, 0.0}, 0.5);
  EXPECT_EQ(off.Update(1e9, 0), 0u);
  EXPECT_TRUE(off.transitions().empty());
}

// --- Circuit breaker ----------------------------------------------------------

TEST(CircuitBreaker, OpensCoolsDownHalfOpensAndCloses) {
  CircuitBreaker breaker({/*cooldown_ms=*/10.0, /*backoff=*/2.0});
  ASSERT_TRUE(breaker.Enabled());
  EXPECT_TRUE(breaker.AllowRoute(0, /*queue_empty=*/false));

  breaker.OnDispatchFailure(0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 1u);
  EXPECT_FALSE(breaker.AllowRoute(5, true));
  // Cooldown over: half-open, and exactly one probe may enter (empty queue
  // required so the probe rides alone). AllowRoute only gates; the probe is
  // counted when the router actually admits it (OnProbeAdmitted), so
  // serve_breaker_probes equals dispatched probes.
  EXPECT_TRUE(breaker.AllowRoute(10, true));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(breaker.probes(), 0u);
  breaker.OnProbeAdmitted();
  EXPECT_EQ(breaker.probes(), 1u);
  EXPECT_FALSE(breaker.AllowRoute(10, /*queue_empty=*/false));

  breaker.OnDispatchSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.AllowRoute(11, false));
}

// Regression: a half-open breaker consulted while the shard's queue is
// non-empty denies routing — and must count no probe, because nothing was
// dispatched. Before the fix the half-open *transition* was counted as a
// probe, so serve_breaker_probes could exceed the probes actually sent.
TEST(CircuitBreaker, HalfOpenNonEmptyQueueCountsNoProbe) {
  CircuitBreaker breaker({/*cooldown_ms=*/10.0, /*backoff=*/2.0});
  breaker.OnDispatchFailure(0);  // open until 10
  EXPECT_FALSE(breaker.AllowRoute(10, /*queue_empty=*/false));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(breaker.probes(), 0u);
  // Repeated denials while half-open still count nothing.
  EXPECT_FALSE(breaker.AllowRoute(11, /*queue_empty=*/false));
  EXPECT_EQ(breaker.probes(), 0u);
  // The real probe admission is the single counting point.
  EXPECT_TRUE(breaker.AllowRoute(12, /*queue_empty=*/true));
  breaker.OnProbeAdmitted();
  EXPECT_EQ(breaker.probes(), 1u);
}

TEST(CircuitBreaker, FailedProbeReopensWithBackoff) {
  CircuitBreaker breaker({10.0, 2.0});
  breaker.OnDispatchFailure(0);           // open until 10
  EXPECT_TRUE(breaker.AllowRoute(10, true));
  breaker.OnDispatchFailure(10);          // failed probe: open until 10 + 20
  EXPECT_EQ(breaker.probe_failures(), 1u);
  EXPECT_EQ(breaker.opens(), 2u);
  EXPECT_FALSE(breaker.AllowRoute(25, true));
  EXPECT_TRUE(breaker.AllowRoute(30, true));
}

TEST(CircuitBreaker, WouldAllowIsSideEffectFree) {
  CircuitBreaker breaker({10.0, 2.0});
  breaker.OnDispatchFailure(0);
  // Preview after the cooldown must not consume the half-open transition.
  EXPECT_TRUE(breaker.WouldAllow(10, true));
  EXPECT_FALSE(breaker.WouldAllow(10, false));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.probes(), 0u);

  CircuitBreaker disabled({0.0, 2.0});
  EXPECT_FALSE(disabled.Enabled());
  disabled.OnDispatchFailure(0);
  EXPECT_TRUE(disabled.AllowRoute(0, false));
  EXPECT_EQ(disabled.opens(), 0u);
}

// --- SLO admission: shedding --------------------------------------------------

TEST(Overload, PredictiveShedDropsProvablyHopelessRequests) {
  graph::Csr csr = RandomGraph(31);
  std::vector<Request> trace =
      ClassedOverloadTrace(64, csr.NumVertices(), SloClass::kBronze, /*gap_ms=*/0.1);

  ShardedOptions options;
  options.shards = 1;
  options.base.queue_capacity = 256;  // admission never hits the queue cap
  options.base.overload.slo_admission = true;
  // An impossible target: queue wait + estimate always exceeds it, so
  // everything past the empty-queue frontier is provably hopeless.
  options.base.overload.bronze_slo_ms = 1e-6;
  ServeReport report = ShardedEngine(options).Serve(csr, trace);

  ExpectComplete(report, trace.size());
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_EQ(report.timed_out, 0u);
  EXPECT_GT(report.shedded, 0u);
  // The first request found an empty queue (backlog 0, estimate 0) and the
  // boundary rule admits an exactly-on-target request, so not everything
  // sheds.
  EXPECT_LT(report.shedded, trace.size());
  // Shedded results are stamped at admission and never dispatched.
  for (const QueryResult& q : report.results) {
    if (q.status != QueryStatus::kShedded) continue;
    EXPECT_EQ(q.batch_size, 0u);
    EXPECT_EQ(q.start_ms, q.finish_ms);
    EXPECT_EQ(q.reached_vertices, 0u);
  }
}

TEST(Overload, GenerousTargetsShedNothing) {
  graph::Csr csr = RandomGraph(32);
  std::vector<Request> trace = ClassedBurst(32, csr.NumVertices(), SloClass::kBronze);
  ShardedOptions options;
  options.shards = 1;
  options.base.queue_capacity = 256;
  options.base.overload.slo_admission = true;
  options.base.overload.bronze_slo_ms = 1e9;
  ServeReport report = ShardedEngine(options).Serve(csr, trace);
  ExpectComplete(report, trace.size());
  EXPECT_EQ(report.shedded, 0u);
  EXPECT_EQ(report.completed, trace.size());
}

TEST(Overload, ShedTakesPrecedenceOverRejectAtTheQueueCap) {
  graph::Csr csr = RandomGraph(33);
  ShardedOptions options;
  options.shards = 1;
  options.base.queue_capacity = 2;
  options.base.overload.slo_admission = true;
  options.base.overload.bronze_slo_ms = 1e9;  // predictive shed never fires

  // Classed overflow sheds; the legacy classless path still rejects.
  std::vector<Request> classed = ClassedBurst(48, csr.NumVertices(), SloClass::kBronze);
  ServeReport classed_report = ShardedEngine(options).Serve(csr, classed);
  ExpectComplete(classed_report, classed.size());
  EXPECT_GT(classed_report.shedded, 0u);
  EXPECT_EQ(classed_report.rejected, 0u);

  std::vector<Request> classless = ClassedBurst(48, csr.NumVertices(), SloClass::kNone);
  ServeReport classless_report = ShardedEngine(options).Serve(csr, classless);
  ExpectComplete(classless_report, classless.size());
  EXPECT_GT(classless_report.rejected, 0u);
  EXPECT_EQ(classless_report.shedded, 0u);
}

TEST(Overload, GoldIsNeverShedWhileAShardLives) {
  graph::Csr csr = RandomGraph(34);
  std::vector<Request> trace = ClassedBurst(96, csr.NumVertices(), SloClass::kGold);
  ShardedOptions options;
  options.shards = 1;
  options.base.queue_capacity = 2;  // overflow pressure from the first tick
  options.base.overload.slo_admission = true;
  options.base.overload.gold_slo_ms = 1e-6;  // hopeless target — still not shed
  ServeReport report = ShardedEngine(options).Serve(csr, trace);
  ExpectComplete(report, trace.size());
  EXPECT_EQ(report.shedded, 0u);
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_EQ(report.completed, trace.size());
  // Overflow gold went to the CPU fallback rather than being dropped.
  EXPECT_GT(report.degraded, 0u);
}

TEST(Overload, DeadlineEqualToNowIsStillDispatchable) {
  graph::Csr csr = RandomGraph(35);
  Request r;
  r.id = 0;
  r.algo = core::Algo::kBfs;
  r.source = 1;
  r.arrival_ms = 0;
  r.deadline_ms = 0;  // StartDeadline == arrival: ExpiredAt(arrival) is false
  r.slo = SloClass::kGold;
  r.priority = SloPriority(SloClass::kGold);
  ShardedOptions options;
  options.shards = 1;
  options.base.overload.slo_admission = true;
  ServeReport report = ShardedEngine(options).Serve(csr, {r});
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_EQ(report.results[0].status, QueryStatus::kOk);
  EXPECT_EQ(report.timed_out, 0u);
  EXPECT_EQ(report.shedded, 0u);
}

TEST(Overload, ExpiryNeverDoubleCountsSheddedRequests) {
  // Tight deadlines and a hopeless SLO target together: each request is
  // either shed at admission or times out in the queue, never both, and
  // the terminal-state sum stays exact.
  graph::Csr csr = RandomGraph(36);
  std::vector<Request> trace = ClassedBurst(64, csr.NumVertices(), SloClass::kBronze);
  for (size_t i = 0; i < trace.size(); ++i) {
    trace[i].arrival_ms = static_cast<double>(i) * 0.01;
    trace[i].deadline_ms = 0.05;
  }
  ShardedOptions options;
  options.shards = 1;
  options.base.queue_capacity = 256;
  options.base.overload.slo_admission = true;
  options.base.overload.bronze_slo_ms = 1e-6;
  ServeReport report = ShardedEngine(options).Serve(csr, trace);
  ExpectComplete(report, trace.size());
  EXPECT_GT(report.shedded, 0u);
}

// --- Pressure shedding and brownout -------------------------------------------

TEST(Overload, PressureShedIsClassOrdered) {
  graph::Csr csr = RandomGraph(37);
  // Interleave bronze and gold arrivals under heavy overload with a
  // minuscule pressure threshold: bronze sheds as soon as any backlog
  // exists, gold never does.
  std::vector<Request> trace;
  for (uint32_t i = 0; i < 96; ++i) {
    Request r;
    r.id = i;
    r.algo = core::Algo::kBfs;
    r.source = (i * 37) % csr.NumVertices();
    r.arrival_ms = static_cast<double>(i) * 0.1;
    r.slo = i % 2 == 0 ? SloClass::kBronze : SloClass::kGold;
    r.priority = SloPriority(r.slo);
    trace.push_back(r);
  }
  ShardedOptions options;
  options.shards = 1;
  options.base.queue_capacity = 256;
  options.base.overload.slo_admission = true;
  options.base.overload.shed_bronze_backlog_ms = 1e-3;
  options.base.overload.bronze_slo_ms = 1e9;  // isolate the pressure rung
  options.base.overload.gold_slo_ms = 1e9;
  ServeReport report = ShardedEngine(options).Serve(csr, trace);
  ExpectComplete(report, trace.size());
  EXPECT_GT(report.shedded, 0u);
  for (const QueryResult& q : report.results) {
    if (q.status == QueryStatus::kShedded) {
      EXPECT_EQ(q.slo, SloClass::kBronze);
    }
  }
}

TEST(Overload, BrownoutServesBronzeDegradedBeforeShedding) {
  graph::Csr csr = RandomGraph(38);
  std::vector<Request> trace =
      ClassedOverloadTrace(96, csr.NumVertices(), SloClass::kBronze, /*gap_ms=*/0.1);
  ShardedOptions options;
  options.shards = 1;
  options.base.queue_capacity = 256;
  options.base.overload.slo_admission = true;
  options.base.overload.bronze_slo_ms = 1e9;
  options.base.overload.brownout_bronze_backlog_ms = 1e-3;
  ServeReport report = ShardedEngine(options).Serve(csr, trace);
  ExpectComplete(report, trace.size());
  // Brownout precedes shedding: overloaded bronze is answered (degraded),
  // not dropped.
  EXPECT_EQ(report.shedded, 0u);
  EXPECT_GT(report.overload.brownout_degraded, 0u);
  EXPECT_GE(report.overload.brownout_max_level, 1u);
  EXPECT_FALSE(report.overload.brownout_transitions.empty());
  EXPECT_EQ(report.completed, trace.size());
  // The report renders the brownout block only when configured.
  EXPECT_NE(report.Render("t").find("brownout"), std::string::npos);
  EXPECT_NE(report.Json().find("\"overload\""), std::string::npos);
}

// --- Retry budget under sticky faults -----------------------------------------

TEST(Overload, RetryBudgetBoundsStickyFaultAmplification) {
  // Regression for unbounded fault-retry amplification: with every launch
  // aborting on an uncorrectable ECC, legacy recovery pays max_retries
  // re-stage attempts per query — retry work scales with offered load
  // exactly when capacity is gone. The budget caps it fleet-wide.
  graph::Csr csr = RandomGraph(39);
  std::vector<Request> trace = ClassedBurst(32, csr.NumVertices(), SloClass::kNone);

  ShardedOptions unbounded;
  unbounded.shards = 1;
  // Unbatched, so every queued query dispatches (and fails) on its own —
  // the per-query shape of the amplification.
  unbounded.base.max_batch = 1;
  unbounded.base.queue_capacity = 256;
  unbounded.base.graph.faults.ecc_uncorrectable_rate = 1.0;
  ServeReport legacy = ShardedEngine(unbounded).Serve(csr, trace);
  ExpectComplete(legacy, trace.size());
  // Every query burns the full in-session retry allowance (3) before
  // degrading: retry work scales linearly with offered load.
  EXPECT_GE(legacy.faults.retries, 3u * 32u);

  ShardedOptions budgeted = unbounded;
  budgeted.base.overload.retry_tokens_per_s = 10;
  budgeted.base.overload.retry_burst = 2;
  ServeReport capped = ShardedEngine(budgeted).Serve(csr, trace);
  ExpectComplete(capped, trace.size());
  // Every request still gets an answer (the CPU fallback absorbs what the
  // device path may no longer retry)...
  EXPECT_EQ(capped.completed, trace.size());
  // ...but recovery work stayed inside the bucket: burst + rate * horizon.
  const double horizon_s = capped.makespan_ms / 1000.0;
  EXPECT_LT(static_cast<double>(capped.faults.retries),
            2.0 + 10.0 * horizon_s + 1.0);
  EXPECT_LT(capped.faults.retries, legacy.faults.retries);
  EXPECT_GT(capped.overload.retry_denied + capped.overload.rebuild_denied, 0u);
  EXPECT_EQ(capped.overload.retry_granted, capped.faults.retries);
}

TEST(Overload, RetryBudgetBoundsBatchedDispatchesToo) {
  graph::Csr csr = RandomGraph(40);
  std::vector<Request> trace = ClassedBurst(16, csr.NumVertices(), SloClass::kNone);
  ShardedOptions options;
  options.shards = 1;  // folding on (default max_batch)
  options.base.queue_capacity = 256;
  options.base.graph.faults.ecc_uncorrectable_rate = 1.0;
  options.base.overload.retry_tokens_per_s = 10;
  options.base.overload.retry_burst = 1;
  ServeReport report = ShardedEngine(options).Serve(csr, trace);
  ASSERT_EQ(report.results.size(), trace.size());
  EXPECT_GT(report.overload.retry_denied + report.overload.rebuild_denied, 0u);
  const double horizon_s = report.makespan_ms / 1000.0;
  EXPECT_LT(static_cast<double>(report.faults.retries), 1.0 + 10.0 * horizon_s + 1.0);
}

// --- Circuit breaker on the fleet ---------------------------------------------

TEST(Overload, BreakerQuarantinesAFaultyShardAndProbesIt) {
  graph::Csr csr = RandomGraph(41);
  std::vector<Request> trace;
  for (uint32_t i = 0; i < 64; ++i) {
    Request r;
    r.id = i;
    r.algo = core::Algo::kBfs;
    r.source = (i * 37) % csr.NumVertices();
    r.arrival_ms = static_cast<double>(i) * 0.5;
    trace.push_back(r);
  }
  ShardedOptions options;
  options.shards = 2;
  options.base.queue_capacity = 256;
  options.base.overload.breaker_cooldown_ms = 5;
  // The breaker pairs with the retry budget: a dry bucket denies the
  // rebuild, the dispatch ends with an unhealthy session, and the breaker
  // quarantines the shard instead of letting it burn rebuilds forever.
  options.base.overload.retry_tokens_per_s = 10;
  options.base.overload.retry_burst = 1;
  // Shard 0 loses its device on every launch (the sticky fault class that
  // leaves the session unhealthy); shard 1 is clean.
  options.shard_faults.resize(2);
  options.shard_faults[0].device_loss_rate = 1.0;
  ServeReport report = ShardedEngine(options).Serve(csr, trace);
  ExpectComplete(report, trace.size());
  EXPECT_EQ(report.completed, trace.size());
  EXPECT_GT(report.overload.breaker_opens, 0u);
  EXPECT_GT(report.overload.breaker_probes, 0u);
  EXPECT_GT(report.overload.breaker_probe_failures, 0u);
  EXPECT_NE(report.Render("t").find("breaker opens"), std::string::npos);
}

// --- Determinism and legacy byte-stability ------------------------------------

TEST(Overload, FullStackReplayIsByteIdenticalAcrossRuns) {
  graph::Csr csr = RandomGraph(42);
  ArrivalOptions arrivals;
  arrivals.profile = ArrivalProfile::kBursty;
  arrivals.rate_qps = 20000;
  arrivals.num_requests = 200;
  arrivals.seed = 23;
  std::vector<Request> trace = GenerateArrivals(csr.NumVertices(), arrivals);

  ShardedOptions options;
  options.shards = 2;
  options.base.queue_capacity = 8;
  options.base.overload.slo_admission = true;
  options.base.overload.shed_bronze_backlog_ms = 3;
  options.base.overload.shed_silver_backlog_ms = 6;
  options.base.overload.brownout_bronze_backlog_ms = 1;
  options.base.overload.brownout_silver_backlog_ms = 4;
  options.base.overload.retry_tokens_per_s = 50;
  options.base.overload.breaker_cooldown_ms = 5;
  options.base.graph.faults.ecc_uncorrectable_rate = 0.05;
  options.base.graph.faults.hang_rate = 0.02;
  options.base.graph.faults.watchdog_ms = 5;

  ServeReport a = ShardedEngine(options).Serve(csr, trace);
  ServeReport b = ShardedEngine(options).Serve(csr, trace);
  EXPECT_EQ(a.Render("overload"), b.Render("overload"));
  EXPECT_EQ(a.Json(), b.Json());
  EXPECT_EQ(a.metrics.RenderPrometheus(), b.metrics.RenderPrometheus());
  ExpectComplete(a, trace.size());
}

TEST(Overload, TwoXCapacityWithFaultedShardKeepsGoldGoodputAndBudget) {
  // The PR's acceptance scenario end to end: Poisson arrivals at 2x the
  // fleet's calibrated capacity with the combined fault cocktail pinned to
  // one shard. Nothing may be lost or unaccounted, gold goodput stays
  // >= 95%, retry attempts stay inside what the budget granted (and the
  // grants inside the bucket's refill envelope), and two seeded runs
  // replay byte-identically.
  graph::Csr csr = RandomGraph(44);

  ShardedOptions calibration;
  calibration.shards = 2;
  calibration.base.queue_capacity = 64;
  TraceOptions burst_options;
  burst_options.num_requests = 64;
  burst_options.mean_interarrival_ms = 0.01;
  burst_options.seed = 5;
  const double capacity_qps =
      ShardedEngine(calibration)
          .Serve(csr, GenerateTrace(csr.NumVertices(), burst_options))
          .ThroughputQps();
  ASSERT_GT(capacity_qps, 0);

  ArrivalOptions arrivals;
  arrivals.profile = ArrivalProfile::kPoisson;
  arrivals.rate_qps = capacity_qps * 2.0;
  arrivals.num_requests = 160;
  arrivals.gold_fraction = 0.2;
  arrivals.silver_fraction = 0.3;
  arrivals.seed = 31;
  std::vector<Request> trace = GenerateArrivals(csr.NumVertices(), arrivals);

  ShardedOptions options;
  options.shards = 2;
  options.base.queue_capacity = 32;
  options.base.overload.slo_admission = true;
  options.base.overload.brownout_bronze_backlog_ms = 5;
  options.base.overload.brownout_silver_backlog_ms = 15;
  options.base.overload.shed_bronze_backlog_ms = 10;
  options.base.overload.shed_silver_backlog_ms = 20;
  options.base.overload.retry_tokens_per_s = 100;
  options.base.overload.retry_burst = 8;
  options.shard_faults.resize(2);
  options.shard_faults[0].seed = 3;
  options.shard_faults[0].ecc_uncorrectable_rate = 0.03;
  options.shard_faults[0].hang_rate = 0.02;
  options.shard_faults[0].device_loss_rate = 0.002;
  options.shard_faults[0].alloc_fail_rate = 0.05;
  options.shard_faults[0].watchdog_ms = 5;

  ServeReport a = ShardedEngine(options).Serve(csr, trace);
  ServeReport b = ShardedEngine(options).Serve(csr, trace);
  EXPECT_EQ(a.Render("2x"), b.Render("2x"));
  EXPECT_EQ(a.Json(), b.Json());
  EXPECT_EQ(a.metrics.RenderPrometheus(), b.metrics.RenderPrometheus());

  ExpectComplete(a, trace.size());
  double gold_goodput = -1;
  for (const SloStat& s : a.slo_stats) {
    if (s.slo == SloClass::kGold) gold_goodput = s.Goodput();
  }
  ASSERT_GE(gold_goodput, 0);  // gold traffic exists in the mix
  EXPECT_GE(gold_goodput, 0.95);

  // Every retry attempt drew a granted token, and the grants themselves fit
  // the bucket's refill envelope over the replay's makespan.
  EXPECT_LE(a.faults.retries, a.overload.retry_granted);
  EXPECT_LE(static_cast<double>(a.overload.retry_granted + a.overload.rebuild_granted),
            options.base.overload.retry_burst +
                options.base.overload.retry_tokens_per_s * a.makespan_ms / 1000.0 + 1.0);
}

TEST(Overload, DefaultOptionsLeaveLegacyReportsByteIdentical) {
  graph::Csr csr = RandomGraph(43);
  TraceOptions trace_options;
  trace_options.num_requests = 48;
  trace_options.seed = 9;
  std::vector<Request> trace = GenerateTrace(csr.NumVertices(), trace_options);

  ShardedOptions options;
  options.shards = 2;
  ServeReport report = ShardedEngine(options).Serve(csr, trace);
  const std::string text = report.Render("legacy");
  const std::string json = report.Json();
  const std::string prom = report.metrics.RenderPrometheus();
  for (const char* marker : {"shedded", "brownout", "breaker", "retry budget", "slo"}) {
    EXPECT_EQ(text.find(marker), std::string::npos) << marker;
  }
  EXPECT_EQ(json.find("\"overload\""), std::string::npos);
  EXPECT_EQ(json.find("\"slo\""), std::string::npos);
  EXPECT_EQ(json.find("\"shedded\""), std::string::npos);
  EXPECT_EQ(prom.find("serve_slo"), std::string::npos);
  EXPECT_EQ(prom.find("serve_brownout"), std::string::npos);
  EXPECT_EQ(prom.find("serve_breaker"), std::string::npos);

  // Classed results surface per-class stats even without admission control.
  std::vector<Request> classed = ClassedBurst(16, csr.NumVertices(), SloClass::kSilver);
  ServeReport classed_report = ShardedEngine(options).Serve(csr, classed);
  ASSERT_EQ(classed_report.slo_stats.size(), 1u);
  EXPECT_EQ(classed_report.slo_stats[0].slo, SloClass::kSilver);
  EXPECT_EQ(classed_report.slo_stats[0].offered, 16u);
  EXPECT_NE(classed_report.metrics.RenderPrometheus().find("serve_slo_requests_total"),
            std::string::npos);
}

TEST(Overload, SloVocabularyRoundTrips) {
  for (SloClass slo : {SloClass::kNone, SloClass::kBronze, SloClass::kSilver,
                       SloClass::kGold}) {
    auto parsed = ParseSloClass(SloClassName(slo));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, slo);
  }
  EXPECT_FALSE(ParseSloClass("platinum").has_value());
  EXPECT_GT(SloPriority(SloClass::kGold), SloPriority(SloClass::kSilver));
  EXPECT_GT(SloPriority(SloClass::kSilver), SloPriority(SloClass::kBronze));
  auto shed = ParseQueryStatus("shedded");
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(*shed, QueryStatus::kShedded);
}

}  // namespace
}  // namespace eta::serve
