// Tests for the extension features built on the EtaGraph machinery:
// multi-source traversal, connected components (min-label propagation),
// and PageRank.
#include <gtest/gtest.h>

#include <cmath>

#include "core/framework.hpp"
#include "core/pagerank.hpp"
#include "cpu/reference.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace eta::core {
namespace {

graph::Csr RandomGraph(uint64_t seed, bool symmetric = false) {
  graph::RmatParams params;
  params.scale = 10;
  params.num_edges = 8000;
  params.seed = seed;
  auto edges = graph::GenerateRmat(params);
  if (symmetric) edges = graph::MirrorEdges(std::move(edges), 1.0, seed);
  graph::Csr csr = graph::BuildCsr(std::move(edges));
  csr.DeriveWeights(seed * 3 + 1);
  return csr;
}

// --- Multi-source traversal ---------------------------------------------------

TEST(MultiSource, BfsIsMinOverSources) {
  graph::Csr csr = RandomGraph(21);
  std::vector<graph::VertexId> sources = {0, 100, 500};
  auto report = EtaGraph().RunMultiSource(csr, Algo::kBfs, sources);
  ASSERT_FALSE(report.oom);
  // Expected: elementwise min of the single-source BFS levels.
  std::vector<graph::Weight> expected(csr.NumVertices(), kInf);
  for (graph::VertexId s : sources) {
    auto single = cpu::BfsLevels(csr, s);
    for (size_t v = 0; v < expected.size(); ++v) {
      expected[v] = std::min(expected[v], single[v]);
    }
  }
  EXPECT_EQ(report.labels, expected);
}

TEST(MultiSource, SsspIsMinOverSources) {
  graph::Csr csr = RandomGraph(22);
  std::vector<graph::VertexId> sources = {3, 777};
  auto report = EtaGraph().RunMultiSource(csr, Algo::kSssp, sources);
  std::vector<graph::Weight> expected(csr.NumVertices(), kInf);
  for (graph::VertexId s : sources) {
    auto single = cpu::SsspDistances(csr, s);
    for (size_t v = 0; v < expected.size(); ++v) {
      expected[v] = std::min(expected[v], single[v]);
    }
  }
  EXPECT_EQ(report.labels, expected);
}

TEST(MultiSource, SingleSourceDegenerates) {
  graph::Csr csr = RandomGraph(23);
  std::vector<graph::VertexId> one = {0};
  auto multi = EtaGraph().RunMultiSource(csr, Algo::kSswp, one);
  auto single = EtaGraph().Run(csr, Algo::kSswp, 0);
  EXPECT_EQ(multi.labels, single.labels);
  EXPECT_DOUBLE_EQ(multi.total_ms, single.total_ms);  // identical execution
}

// --- Connected components -------------------------------------------------------

TEST(ConnectedComponents, MatchesCpuLabelPropagation) {
  graph::Csr csr = RandomGraph(31, /*symmetric=*/true);
  auto report = EtaGraph().RunConnectedComponents(csr);
  ASSERT_FALSE(report.oom);
  EXPECT_EQ(report.labels, cpu::MinLabelPropagation(csr));
}

TEST(ConnectedComponents, SymmetrizedComponentsAreConsistent) {
  // Two disjoint cliques + isolated vertices.
  std::vector<graph::Edge> edges;
  for (graph::VertexId a = 0; a < 5; ++a) {
    for (graph::VertexId b = 0; b < 5; ++b) {
      if (a != b) edges.push_back({a, b});
    }
  }
  for (graph::VertexId a = 10; a < 14; ++a) {
    for (graph::VertexId b = 10; b < 14; ++b) {
      if (a != b) edges.push_back({a, b});
    }
  }
  graph::Csr csr = graph::BuildCsr(std::move(edges), {.min_vertices = 16});
  auto report = EtaGraph().RunConnectedComponents(csr);
  for (graph::VertexId v = 0; v < 5; ++v) EXPECT_EQ(report.labels[v], 0u);
  for (graph::VertexId v = 10; v < 14; ++v) EXPECT_EQ(report.labels[v], 10u);
  EXPECT_EQ(report.labels[15], 15u);  // isolated keeps its own id
}

TEST(ConnectedComponents, ReportsItsOwnAlgorithm) {
  graph::Csr csr = RandomGraph(35, /*symmetric=*/true);
  EXPECT_EQ(EtaGraph().RunConnectedComponents(csr).algo, Algo::kCc);
}

TEST(ConnectedComponents, SmpToggleGivesSameLabels) {
  graph::Csr csr = RandomGraph(33, /*symmetric=*/true);
  EtaGraphOptions no_smp;
  no_smp.use_smp = false;
  EXPECT_EQ(EtaGraph().RunConnectedComponents(csr).labels,
            EtaGraph(no_smp).RunConnectedComponents(csr).labels);
}

// --- PageRank --------------------------------------------------------------------

TEST(PageRank, MatchesCpuReference) {
  graph::Csr csr = RandomGraph(41);
  PageRankOptions options;
  options.max_iterations = 30;
  options.epsilon = 0;  // fixed iteration count for exact comparison
  auto result = EtaGraph().RunPageRank(csr, options);
  ASSERT_FALSE(result.oom);
  auto expected = cpu::PageRankReference(csr, options.damping, 0, 30);
  ASSERT_EQ(result.ranks.size(), expected.size());
  for (size_t v = 0; v < expected.size(); ++v) {
    EXPECT_NEAR(result.ranks[v], expected[v], 1e-4) << "vertex " << v;
  }
}

TEST(PageRank, RankSumBoundedByOne) {
  graph::Csr csr = RandomGraph(42);
  auto result = EtaGraph().RunPageRank(csr);
  double sum = 0;
  for (float r : result.ranks) {
    EXPECT_GE(r, 0.f);
    sum += r;
  }
  EXPECT_LE(sum, 1.0 + 1e-3);  // sinks leak rank; never exceeds 1
  EXPECT_GT(sum, 0.1);
}

TEST(PageRank, HubOutranksLeaf) {
  // star: everything points at vertex 0.
  std::vector<graph::Edge> edges;
  for (graph::VertexId v = 1; v < 100; ++v) edges.push_back({v, 0});
  graph::Csr csr = graph::BuildCsr(std::move(edges));
  auto result = EtaGraph().RunPageRank(csr);
  for (graph::VertexId v = 1; v < 100; ++v) EXPECT_GT(result.ranks[0], result.ranks[v]);
}

TEST(PageRank, ConvergesBeforeIterationCap) {
  graph::Csr csr = RandomGraph(43);
  PageRankOptions options;
  options.epsilon = 1e-4;
  options.max_iterations = 100;
  auto result = EtaGraph().RunPageRank(csr, options);
  EXPECT_LT(result.iterations, 100u);
  EXPECT_GT(result.iterations, 2u);
}

TEST(PageRank, ResidentSessionServesItBetweenTraversals) {
  graph::Csr csr = RandomGraph(45);
  ResidentGraph session(csr);
  const RunReport before = session.Run(Algo::kBfs, 0);
  const RunReport pr = session.RunPageRank();
  const RunReport after = session.Run(Algo::kBfs, 0);
  ASSERT_FALSE(pr.DeviceFailed());
  // The ranks do not depend on what the session ran before, and the
  // traversal after PageRank sees the same resident topology.
  EXPECT_EQ(pr.ranks, EtaGraph().RunPageRank(csr).ranks);
  EXPECT_EQ(after.labels, before.labels);
  EXPECT_LT(pr.query_ms, pr.total_ms);
}

TEST(PageRank, SmpReducesLoadTransactions) {
  graph::Csr csr = RandomGraph(44);
  PageRankOptions pr;
  pr.max_iterations = 5;
  pr.epsilon = 0;
  EtaGraphOptions without;
  without.use_smp = false;
  auto a = EtaGraph().RunPageRank(csr, pr);
  auto b = EtaGraph(without).RunPageRank(csr, pr);
  // Same math...
  for (size_t v = 0; v < a.ranks.size(); ++v) {
    ASSERT_FLOAT_EQ(a.ranks[v], b.ranks[v]);
  }
  // ...fewer LSU global-load transactions (Section VIII's portability
  // claim for SMP).
  EXPECT_LT(a.counters.l1_accesses, b.counters.l1_accesses);
}

}  // namespace
}  // namespace eta::core
