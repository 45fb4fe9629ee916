// Cross-framework integration tests: every framework must agree with the
// CPU references (and therefore each other) on a variety of graph shapes,
// and every report must satisfy structural invariants. These are the
// repo's strongest property tests: one graph family x seed x algorithm per
// parameterized case.
#include <gtest/gtest.h>

#include "baselines/cusha.hpp"
#include "baselines/gunrock.hpp"
#include "baselines/tigr.hpp"
#include "core/framework.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace eta {
namespace {

using core::Algo;
using core::RunReport;
using graph::BuildCsr;
using graph::Csr;
using graph::Edge;

struct GraphCase {
  std::string name;
  Csr csr;
};

GraphCase MakeGraph(const std::string& family, uint64_t seed) {
  if (family == "rmat") {
    graph::RmatParams params;
    params.scale = 10;
    params.num_edges = 12000;
    params.seed = seed;
    return {family, BuildCsr(graph::GenerateRmat(params))};
  }
  if (family == "er") {
    return {family, BuildCsr(graph::GenerateErdosRenyi(1500, 9000, seed))};
  }
  if (family == "web") {
    graph::WebGraphParams params;
    params.num_vertices = 4000;
    params.num_edges = 30000;
    params.num_communities = 8;
    params.lcc_fraction = 0.7;
    params.seed = seed;
    return {family, BuildCsr(graph::GenerateWebGraph(params))};
  }
  if (family == "star") {
    // One huge hub: the worst case for warp load balance.
    std::vector<Edge> edges;
    for (graph::VertexId v = 1; v < 2000; ++v) edges.push_back({0, v});
    for (graph::VertexId v = 1; v < 2000; v += 3) edges.push_back({v, v + 1});
    return {family, BuildCsr(std::move(edges))};
  }
  if (family == "chain") {
    std::vector<Edge> edges;
    for (graph::VertexId v = 0; v + 1 < 500; ++v) edges.push_back({v, v + 1});
    return {family, BuildCsr(std::move(edges))};
  }
  ADD_FAILURE() << "unknown family";
  return {family, Csr()};
}

class CrossFramework
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t, Algo>> {};

TEST_P(CrossFramework, AllFrameworksAgreeWithCpu) {
  auto [family, seed, algo] = GetParam();
  GraphCase gc = MakeGraph(family, seed);
  gc.csr.DeriveWeights(seed * 31 + 7);
  auto expected = core::CpuReference(gc.csr, algo, 0);

  core::EtaGraphOptions eta_options;
  RunReport eta = core::EtaGraph(eta_options).Run(gc.csr, algo, 0);
  ASSERT_FALSE(eta.oom);
  EXPECT_EQ(eta.labels, expected) << "EtaGraph " << family;

  RunReport tigr = baselines::Tigr().Run(gc.csr, algo, 0);
  ASSERT_FALSE(tigr.oom);
  EXPECT_EQ(tigr.labels, expected) << "Tigr " << family;

  RunReport gunrock = baselines::Gunrock().Run(gc.csr, algo, 0);
  ASSERT_FALSE(gunrock.oom);
  EXPECT_EQ(gunrock.labels, expected) << "Gunrock " << family;

  RunReport cusha = baselines::Cusha().Run(gc.csr, algo, 0);
  ASSERT_FALSE(cusha.oom);
  EXPECT_EQ(cusha.labels, expected) << "CuSha " << family;
}

std::string CaseName(
    const ::testing::TestParamInfo<std::tuple<std::string, uint64_t, Algo>>& info) {
  return std::get<0>(info.param) + "_s" + std::to_string(std::get<1>(info.param)) +
         "_" + core::AlgoName(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrossFramework,
    ::testing::Combine(::testing::Values("rmat", "er", "web", "star", "chain"),
                       ::testing::Values(1u, 2u),
                       ::testing::Values(Algo::kBfs, Algo::kSssp, Algo::kSswp)),
    CaseName);

// --- Report invariants ---------------------------------------------------------

TEST(ReportInvariants, EtaGraphReportConsistent) {
  GraphCase gc = MakeGraph("rmat", 9);
  gc.csr.DeriveWeights(3);
  RunReport r = core::EtaGraph().Run(gc.csr, Algo::kBfs, 0);
  EXPECT_GT(r.total_ms, 0.0);
  EXPECT_GE(r.total_ms, r.kernel_ms);
  EXPECT_EQ(r.iterations, r.iteration_stats.size());
  // Iteration end times are monotone and within the total.
  double prev = 0;
  for (const auto& it : r.iteration_stats) {
    EXPECT_GE(it.end_ms, prev);
    prev = it.end_ms;
  }
  EXPECT_LE(prev, r.total_ms);
  // Cumulative activations are monotone.
  uint64_t prev_cum = 0;
  for (const auto& it : r.iteration_stats) {
    EXPECT_GE(it.activated_cum, prev_cum);
    prev_cum = it.activated_cum;
  }
  // Activated fraction consistent with labels.
  uint64_t reached = 0;
  for (auto label : r.labels) reached += core::BfsLevel::Reached(label);
  EXPECT_EQ(r.activated, reached);
  // BFS on a connected-ish graph produces sane counters.
  EXPECT_GT(r.counters.warp_instructions, 0u);
  EXPECT_GT(r.counters.l1_accesses, 0u);
}

TEST(ReportInvariants, BfsIterationsMatchEccentricity) {
  // On the 500-chain, BFS takes exactly 500 EtaGraph iterations (the last
  // one finds an empty frontier is not counted: 499 propagate + 1 final).
  GraphCase gc = MakeGraph("chain", 0);
  gc.csr.DeriveWeights(1);
  RunReport r = core::EtaGraph().Run(gc.csr, Algo::kBfs, 0);
  EXPECT_EQ(r.iterations, 500u);
  EXPECT_EQ(r.activated, 500u);
}

TEST(ReportInvariants, DeterministicTotals) {
  GraphCase gc = MakeGraph("web", 5);
  gc.csr.DeriveWeights(5);
  RunReport a = core::EtaGraph().Run(gc.csr, Algo::kSssp, 0);
  RunReport b = core::EtaGraph().Run(gc.csr, Algo::kSssp, 0);
  EXPECT_DOUBLE_EQ(a.total_ms, b.total_ms);
  EXPECT_DOUBLE_EQ(a.kernel_ms, b.kernel_ms);
  EXPECT_EQ(a.counters.dram_read_transactions, b.counters.dram_read_transactions);
  EXPECT_EQ(a.migrated_bytes, b.migrated_bytes);
}

TEST(ReportInvariants, SourceWithNoEdges) {
  // Traversal from an edgeless source terminates after one iteration with
  // only the source labeled.
  std::vector<Edge> edges = {{1, 2}, {2, 3}};
  Csr csr = BuildCsr(std::move(edges), {.min_vertices = 4});
  csr.DeriveWeights(1);
  for (Algo algo : {Algo::kBfs, Algo::kSssp, Algo::kSswp}) {
    RunReport r = core::EtaGraph().Run(csr, algo, 0);
    EXPECT_EQ(r.activated, 1u) << core::AlgoName(algo);
    EXPECT_EQ(r.labels, core::CpuReference(csr, algo, 0));
  }
}

TEST(ReportInvariants, NonZeroSourceWorks) {
  GraphCase gc = MakeGraph("rmat", 4);
  gc.csr.DeriveWeights(9);
  graph::VertexId source = 17;
  RunReport r = core::EtaGraph().Run(gc.csr, Algo::kSssp, source);
  EXPECT_EQ(r.labels, core::CpuReference(gc.csr, Algo::kSssp, source));
}

// --- Memory-pressure behaviour --------------------------------------------------

TEST(MemoryPressure, UnifiedModeSurvivesWhereExplicitOoms) {
  GraphCase gc = MakeGraph("rmat", 11);
  gc.csr.DeriveWeights(2);
  sim::DeviceSpec tight;
  // Fit labels + frontier structures but not the whole topology.
  tight.device_memory_bytes = 96 * util::kKiB;

  core::EtaGraphOptions explicit_opts;
  explicit_opts.memory_mode = core::MemoryMode::kExplicitCopy;
  explicit_opts.spec = tight;
  EXPECT_TRUE(core::EtaGraph(explicit_opts).Run(gc.csr, Algo::kBfs, 0).oom);

  core::EtaGraphOptions um_opts;
  um_opts.spec = tight;
  RunReport r = core::EtaGraph(um_opts).Run(gc.csr, Algo::kBfs, 0);
  ASSERT_FALSE(r.oom);  // oversubscription keeps it alive
  EXPECT_EQ(r.labels, core::CpuReference(gc.csr, Algo::kBfs, 0));
}

TEST(MemoryPressure, OomReportsRequestSize) {
  GraphCase gc = MakeGraph("rmat", 12);
  sim::DeviceSpec tiny;
  tiny.device_memory_bytes = 64 * util::kKiB;
  core::EtaGraphOptions options;
  options.memory_mode = core::MemoryMode::kExplicitCopy;
  options.spec = tiny;
  RunReport r = core::EtaGraph(options).Run(gc.csr, Algo::kBfs, 0);
  ASSERT_TRUE(r.oom);
  EXPECT_GT(r.oom_request_bytes, 0u);
}

}  // namespace
}  // namespace eta
