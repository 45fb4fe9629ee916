// Tests for the direction-optimizing BFS extension.
#include <gtest/gtest.h>

#include "core/framework.hpp"
#include "cpu/reference.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace eta::core {
namespace {

graph::Csr SocialGraph(uint64_t seed) {
  graph::RmatParams params;
  params.scale = 12;
  params.num_edges = 60'000;
  params.a = 0.57;
  params.b = 0.19;
  params.c = 0.19;
  params.seed = seed;
  auto edges = graph::MirrorEdges(graph::GenerateRmat(params), 0.7, seed);
  return graph::BuildCsr(std::move(edges));
}

class HybridBfs : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HybridBfs, MatchesCpuOnSocialGraphs) {
  graph::Csr csr = SocialGraph(GetParam());
  auto result = EtaGraph().RunHybridBfs(csr, 0);
  ASSERT_FALSE(result.oom);
  EXPECT_EQ(result.labels, cpu::BfsLevels(csr, 0));
  // Social graphs have the fat middle frontier that triggers pull mode.
  EXPECT_GT(result.bottom_up_iterations, 0u);
  EXPECT_LT(result.bottom_up_iterations, result.iterations);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HybridBfs, ::testing::Values(1u, 2u, 3u));

TEST(HybridBfsShape, ChainNeverLeavesTopDown) {
  std::vector<graph::Edge> edges;
  for (graph::VertexId v = 0; v + 1 < 300; ++v) edges.push_back({v, v + 1});
  graph::Csr csr = graph::BuildCsr(std::move(edges));
  auto result = EtaGraph().RunHybridBfs(csr, 0);
  EXPECT_EQ(result.bottom_up_iterations, 0u);  // frontier never fattens
  EXPECT_EQ(result.labels, cpu::BfsLevels(csr, 0));
  EXPECT_EQ(result.iterations, 300u);
}

TEST(HybridBfsShape, AlphaDisablesPullMode) {
  graph::Csr csr = SocialGraph(4);
  HybridBfsOptions never;
  never.alpha = 0.5;  // threshold > |V|: never switch
  auto result = EtaGraph().RunHybridBfs(csr, 0, never);
  EXPECT_EQ(result.bottom_up_iterations, 0u);
  EXPECT_EQ(result.labels, cpu::BfsLevels(csr, 0));
}

TEST(HybridBfsShape, PullModeCutsKernelTimeOnSocial) {
  graph::Csr csr = SocialGraph(5);
  HybridBfsOptions hybrid;
  HybridBfsOptions push_only;
  push_only.alpha = 0.5;
  auto a = EtaGraph().RunHybridBfs(csr, 0, hybrid);
  auto b = EtaGraph().RunHybridBfs(csr, 0, push_only);
  ASSERT_EQ(a.labels, b.labels);
  // The fat middle iterations dominate; pull mode's early-exit scans beat
  // pushing every edge through atomics.
  EXPECT_LT(a.kernel_ms, b.kernel_ms);
}

TEST(HybridBfsShape, NonZeroSourceAndUnreachable) {
  std::vector<graph::Edge> edges = {{5, 6}, {6, 7}, {1, 2}};
  graph::Csr csr = graph::BuildCsr(std::move(edges), {.min_vertices = 10});
  auto result = EtaGraph().RunHybridBfs(csr, 5);
  EXPECT_EQ(result.labels, cpu::BfsLevels(csr, 5));
  EXPECT_EQ(result.labels[2], cpu::kInf);
}

TEST(HybridBfs, ResidentSessionServesItBetweenTraversals) {
  graph::Csr csr = SocialGraph(7);
  EtaGraphOptions options;
  options.check = sanitizer::Config::All();
  ResidentGraph session(csr, options);
  const RunReport before = session.Run(Algo::kBfs, 0);
  const RunReport hybrid = session.RunHybridBfs(0);
  const RunReport after = session.Run(Algo::kBfs, 0);
  ASSERT_FALSE(hybrid.DeviceFailed());
  EXPECT_EQ(before.labels, cpu::BfsLevels(csr, 0));
  EXPECT_EQ(hybrid.labels, before.labels);
  EXPECT_GT(hybrid.bottom_up_iterations, 0u);
  // The traversal after it answers like the one before it: the hybrid query
  // left the session's labels, active set and cursors reusable.
  EXPECT_EQ(after.labels, before.labels);
  EXPECT_EQ(after.iterations, before.iterations);
  // A resident hybrid query answers like a one-shot run, without staging the
  // graph again.
  const RunReport one_shot = EtaGraph(options).RunHybridBfs(csr, 0);
  EXPECT_EQ(hybrid.labels, one_shot.labels);
  EXPECT_EQ(hybrid.iterations, one_shot.iterations);
  EXPECT_EQ(hybrid.bottom_up_iterations, one_shot.bottom_up_iterations);
  EXPECT_LT(hybrid.query_ms, one_shot.total_ms);
  // Its transpose and output frontier were freed with the query: the
  // teardown sweep finds no leak, and no other finding fired.
  session.Shutdown();
  EXPECT_EQ(session.QueriesServed(), 3u);
  ASSERT_NE(session.CheckReport(), nullptr);
  EXPECT_TRUE(session.CheckReport()->findings.empty()) << session.CheckReport()->Render(true);
}

TEST(HybridBfsShape, Deterministic) {
  graph::Csr csr = SocialGraph(6);
  auto a = EtaGraph().RunHybridBfs(csr, 0);
  auto b = EtaGraph().RunHybridBfs(csr, 0);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_DOUBLE_EQ(a.total_ms, b.total_ms);
  EXPECT_EQ(a.bottom_up_iterations, b.bottom_up_iterations);
}

}  // namespace
}  // namespace eta::core
