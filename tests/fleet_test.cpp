// Unit tests for the fleet stages behind ShardedEngine::ServeMany
// (serve/fleet.hpp): each drives one stage directly on a FleetState, for
// behaviour the end-to-end replays in router_test/overload_test cannot pin
// down in isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "serve/fleet.hpp"

namespace eta::serve::fleet {
namespace {

graph::Csr Rmat(uint32_t scale, uint64_t edges, uint64_t seed) {
  graph::RmatParams params;
  params.scale = scale;
  params.num_edges = edges;
  params.seed = seed;
  graph::Csr csr = graph::BuildCsr(graph::GenerateRmat(params));
  csr.DeriveWeights(seed);
  return csr;
}

Request Bfs(uint64_t id, uint32_t graph_id = 0) {
  Request r;
  r.id = id;
  r.graph_id = graph_id;
  return r;
}

/// Queues `r` on `s` the way Route does, without routing.
void Enqueue(Shard& s, const Request& r) {
  ASSERT_TRUE(s.queue.Admit(r, 0));
  ++s.queued_by_algo[r.algo];
}

/// Three graphs; graph 2 is larger than graph 1.
struct Catalog {
  graph::Csr g0 = Rmat(9, 4000, 1);
  graph::Csr g1 = Rmat(9, 4000, 2);
  graph::Csr g2 = Rmat(10, 16000, 3);
  std::vector<const graph::Csr*> graphs = {&g0, &g1, &g2};

  /// Device bytes graph `g` occupies once staged.
  uint64_t StagedBytes(uint32_t g) const {
    ShardedOptions options;
    options.shards = 1;
    FleetState f(options, graphs);
    double t = 0;
    return EnsureSession(f, f.shards[0], g, t)->resident_bytes;
  }
  /// The staging estimate EvictFor makes room for.
  uint64_t EstimatedBytes(uint32_t g) const {
    return core::ResidentGraph::EstimateDeviceBytes(*graphs[g], core::EtaGraphOptions{});
  }
  /// A budget that holds graphs 0 and 1 staged in that order, and no more.
  uint64_t BudgetFor01() const {
    return StagedBytes(0) + std::max(StagedBytes(1), EstimatedBytes(1));
  }
};

TEST(FleetResidency, PrestageThatCannotFitIsSkippedAndEvictsNothing) {
  const Catalog catalog;
  ShardedOptions options;
  options.shards = 1;
  options.async_dispatch = true;
  options.device_mem_budget_bytes = catalog.BudgetFor01();
  ASSERT_GT(catalog.EstimatedBytes(2), catalog.BudgetFor01() - catalog.StagedBytes(0));

  for (const bool g0_busy : {true, false}) {
    FleetState f(options, catalog.graphs);
    Shard& s = f.shards[0];
    double t = 0;
    ASSERT_NE(EnsureSession(f, s, 0, t), nullptr);
    ASSERT_NE(EnsureSession(f, s, 1, t), nullptr);
    const double now = t;
    if (g0_busy) s.sessions[0].busy_until = now + 1;
    s.free_at = now + 5;  // the compute engine is busy: the pre-stage trigger
    Enqueue(s, Bfs(7, /*graph_id=*/2));
    const uint64_t resident = s.resident_bytes;

    Prestage(f, s, now);
    if (g0_busy) {
      // Graph 2 cannot fit next to busy graph 0, so nothing is staged and
      // idle graph 1 is not evicted for a pre-stage that will not happen.
      EXPECT_EQ(s.stat.prestages, 0u);
      EXPECT_EQ(s.stat.evictions, 0u);
      ASSERT_EQ(s.sessions.size(), 2u);
      EXPECT_EQ(s.resident_bytes, resident);
    } else {
      // Control: with every session idle the same pre-stage evicts and runs.
      EXPECT_EQ(s.stat.prestages, 1u);
      EXPECT_GT(s.stat.evictions, 0u);
      EXPECT_EQ(s.sessions.back().graph_id, 2u);
    }
  }
}

TEST(FleetResidency, EvictionSkipsSessionsBusyAtT) {
  const Catalog catalog;
  ShardedOptions options;
  options.shards = 1;
  options.device_mem_budget_bytes = catalog.BudgetFor01();
  FleetState f(options, catalog.graphs);
  Shard& s = f.shards[0];
  double t = 0;
  ASSERT_NE(EnsureSession(f, s, 0, t), nullptr);  // least recently used
  ASSERT_NE(EnsureSession(f, s, 1, t), nullptr);
  s.sessions[0].busy_until = 10;

  // Making room for one more session's worth of bytes takes one eviction.
  // Graph 0 is the LRU victim but busy at t = 5: graph 1 goes instead.
  EvictFor(f, s, options.device_mem_budget_bytes - s.resident_bytes + 1, 5);
  ASSERT_EQ(s.sessions.size(), 1u);
  EXPECT_EQ(s.sessions[0].graph_id, 0u);
  EXPECT_EQ(s.stat.evictions, 1u);

  // Busy means busy_until > t: at t = 10 graph 0 is evictable again.
  EvictFor(f, s, options.device_mem_budget_bytes, 10);
  EXPECT_TRUE(s.sessions.empty());
  EXPECT_EQ(s.stat.evictions, 2u);
  EXPECT_EQ(s.resident_bytes, 0u);
}

TEST(FleetRouting, ColdEstimatorBreaksTiesByEstimateThenDepthThenIndex) {
  const graph::Csr g = Rmat(9, 4000, 1);
  const std::vector<const graph::Csr*> graphs = {&g};
  ShardedOptions options;
  options.shards = 4;
  FleetState f(options, graphs);
  ASSERT_EQ(EstimateMs(f, core::Algo::kBfs), 0);  // cold: queued work costs 0
  // Shard 0 has the emptiest queue but is busy for 1 ms; shards 1-3 are
  // idle with queue depths 2, 1, 1.
  f.shards[0].free_at = 1;
  Enqueue(f.shards[1], Bfs(100));
  Enqueue(f.shards[1], Bfs(101));
  Enqueue(f.shards[2], Bfs(102));
  Enqueue(f.shards[3], Bfs(103));

  std::vector<uint32_t> routed;
  for (uint64_t id = 0; id < 5; ++id) {
    Shard* s = Route(f, Bfs(id), /*now=*/0);
    ASSERT_NE(s, nullptr);
    routed.push_back(s->stat.shard);
  }
  // Depth 1 ties break to the lower index (2, then 3); at depth 2 all
  // round, shard 1 first. Shard 0's backlog estimate keeps it out.
  EXPECT_EQ(routed, (std::vector<uint32_t>{2, 3, 1, 2, 3}));
  EXPECT_TRUE(f.shards[0].queue.Empty());
}

TEST(FleetAdmission, DeferredReroutesAdmitInReadyTimeThenDrainOrder) {
  const graph::Csr g = Rmat(9, 4000, 1);
  const std::vector<const graph::Csr*> graphs = {&g};
  ShardedOptions options;
  options.shards = 1;
  FleetState f(options, graphs);
  f.deferred = {{2, 5, Bfs(1)}, {1, 7, Bfs(2)}, {3, 0, Bfs(4)}, {1, 3, Bfs(3)}};

  AdmitDeferred(f, /*now=*/2);
  // Ready by t = 2: (1, 3), (1, 7), (2, 5). The t = 3 entry waits.
  std::vector<uint64_t> admitted;
  while (std::optional<Request> r = f.shards[0].queue.PopNext()) admitted.push_back(r->id);
  EXPECT_EQ(admitted, (std::vector<uint64_t>{3, 2, 1}));
  EXPECT_EQ(f.shards[0].stat.rerouted_in, 3u);
  ASSERT_EQ(f.deferred.size(), 1u);
  EXPECT_EQ(f.deferred[0].request.id, 4u);
}

}  // namespace
}  // namespace eta::serve::fleet
