// Unified Degree Cut (Definition 3) tests: the transform's invariants, its
// correctness theorems (Section III-B), and the device-side transform as
// observed through EtaGraph's iteration stats.
#include <gtest/gtest.h>

#include <numeric>

#include "core/framework.hpp"
#include "core/udc.hpp"
#include "cpu/reference.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace eta::core {
namespace {

using graph::BuildCsr;
using graph::Csr;
using graph::Edge;
using graph::VertexId;

Csr SkewedGraph() {
  // Vertex 0 has degree 10, vertex 1 degree 3, vertex 2 degree 0,
  // vertex 3 degree 1.
  std::vector<Edge> edges;
  for (VertexId d = 1; d <= 10; ++d) edges.push_back({0, d});
  edges.push_back({1, 2});
  edges.push_back({1, 3});
  edges.push_back({1, 4});
  edges.push_back({3, 0});
  return BuildCsr(std::move(edges));
}

class UdcProperty : public ::testing::TestWithParam<uint32_t> {};

TEST_P(UdcProperty, ShadowsPartitionEdges) {
  const uint32_t k = GetParam();
  Csr csr = SkewedGraph();
  std::vector<VertexId> active(csr.NumVertices());
  std::iota(active.begin(), active.end(), 0u);
  auto shadows = TransformActiveSet(csr, active, k);
  EXPECT_TRUE(ValidateShadows(csr, active, shadows, k));
  // Total edge coverage.
  uint64_t covered = 0;
  for (const ShadowVertex& s : shadows) covered += s.Degree();
  EXPECT_EQ(covered, csr.NumEdges());
  // Count formula.
  EXPECT_EQ(shadows.size(), ShadowCapacity(csr, k));
}

INSTANTIATE_TEST_SUITE_P(DegreeLimits, UdcProperty,
                         ::testing::Values(1, 2, 3, 4, 7, 10, 16, 100));

TEST(Udc, ZeroDegreeVerticesProduceNoShadows) {
  Csr csr = SkewedGraph();
  std::vector<VertexId> active = {2};  // degree 0
  EXPECT_TRUE(TransformActiveSet(csr, active, 4).empty());
}

TEST(Udc, ExactDegreeBoundary) {
  Csr csr = SkewedGraph();  // vertex 0 has degree 10
  std::vector<VertexId> active = {0};
  EXPECT_EQ(TransformActiveSet(csr, active, 10).size(), 1u);
  EXPECT_EQ(TransformActiveSet(csr, active, 9).size(), 2u);
  EXPECT_EQ(TransformActiveSet(csr, active, 5).size(), 2u);
  EXPECT_EQ(TransformActiveSet(csr, active, 4).size(), 3u);
}

TEST(Udc, ValidatorRejectsOverlappingShadows) {
  Csr csr = SkewedGraph();
  std::vector<VertexId> active = {0};
  std::vector<ShadowVertex> bad = {{0, 0, 6}, {0, 4, 10}};  // overlap [4,6)
  EXPECT_FALSE(ValidateShadows(csr, active, bad, 6));
}

TEST(Udc, ValidatorRejectsGaps) {
  Csr csr = SkewedGraph();
  std::vector<VertexId> active = {0};
  std::vector<ShadowVertex> bad = {{0, 0, 4}, {0, 6, 10}};  // gap [4,6)
  EXPECT_FALSE(ValidateShadows(csr, active, bad, 6));
}

TEST(Udc, ValidatorRejectsOversizedShadow) {
  Csr csr = SkewedGraph();
  std::vector<VertexId> active = {0};
  std::vector<ShadowVertex> bad = {{0, 0, 10}};
  EXPECT_FALSE(ValidateShadows(csr, active, bad, 6));
}

TEST(Udc, ValidatorRejectsForeignShadows) {
  Csr csr = SkewedGraph();
  std::vector<VertexId> active = {3};
  // Shadow for vertex 1, which is not active.
  auto shadows = TransformActiveSet(csr, std::vector<VertexId>{1, 3}, 4);
  EXPECT_FALSE(ValidateShadows(csr, active, shadows, 4));
}

// Theorem 1/2 (Section III-B): traversal over shadow vertices produces the
// same labels as traversal over the original graph — verified end to end by
// running EtaGraph with several degree limits.
class UdcCorrectness : public ::testing::TestWithParam<uint32_t> {};

TEST_P(UdcCorrectness, TraversalIdenticalUnderCut) {
  graph::RmatParams params;
  params.scale = 10;
  params.num_edges = 9000;
  params.seed = 31;
  Csr csr = BuildCsr(graph::GenerateRmat(params));
  csr.DeriveWeights(7);
  for (Algo algo : {Algo::kBfs, Algo::kSssp, Algo::kSswp}) {
    EtaGraphOptions options;
    options.degree_limit = GetParam();
    RunReport report = EtaGraph(options).Run(csr, algo, 0);
    EXPECT_EQ(report.labels, CpuReference(csr, algo, 0))
        << "k=" << GetParam() << " algo=" << AlgoName(algo);
  }
}

INSTANTIATE_TEST_SUITE_P(DegreeLimits, UdcCorrectness, ::testing::Values(1, 2, 8, 32, 48));

// The device-side actSet2virtActSet: iteration 1 processes exactly the
// source, so the shadow count must equal ceil(deg(source)/K).
TEST(UdcDevice, FirstIterationShadowCount) {
  Csr csr = SkewedGraph();
  csr.DeriveWeights(3);
  for (uint32_t k : {2u, 4u, 10u}) {
    EtaGraphOptions options;
    options.degree_limit = k;
    RunReport report = EtaGraph(options).Run(csr, Algo::kBfs, 0);
    ASSERT_FALSE(report.iteration_stats.empty());
    EXPECT_EQ(report.iteration_stats[0].active_vertices, 1u);
    EXPECT_EQ(report.iteration_stats[0].shadow_vertices, (10 + k - 1) / k);
  }
}

// Shadow totals across a BFS equal the host-side transform of each
// iteration's active set size bound: every activation contributes
// ceil(deg/K) shadows exactly once for BFS (each vertex activates once).
TEST(UdcDevice, BfsShadowTotalsMatchFormula) {
  graph::RmatParams params;
  params.scale = 9;
  params.num_edges = 4000;
  params.seed = 13;
  Csr csr = BuildCsr(graph::GenerateRmat(params));
  csr.DeriveWeights(3);
  EtaGraphOptions options;
  options.degree_limit = 8;
  RunReport report = EtaGraph(options).Run(csr, Algo::kBfs, 0);
  uint64_t total_shadows = 0;
  for (const auto& it : report.iteration_stats) total_shadows += it.shadow_vertices;
  uint64_t expected = 0;
  for (VertexId v = 0; v < csr.NumVertices(); ++v) {
    if (!BfsLevel::Reached(report.labels[v])) continue;
    expected += (csr.OutDegree(v) + 7) / 8;
  }
  EXPECT_EQ(total_shadows, expected);
}

}  // namespace
}  // namespace eta::core
