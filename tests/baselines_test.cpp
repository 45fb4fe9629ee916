// Baseline frameworks (Tigr, Gunrock, CuSha) vs CPU references, plus tests
// of their characteristic structures (VST, G-Shards) and OOM behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <string>

#include "baselines/cusha.hpp"
#include "baselines/gunrock.hpp"
#include "baselines/tigr.hpp"
#include "core/traversal.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "sim/device.hpp"

namespace eta::baselines {
namespace {

using core::Algo;

graph::Csr TestGraph(uint64_t seed = 5) {
  graph::RmatParams params;
  params.scale = 10;
  params.num_edges = 10000;
  params.seed = seed;
  graph::Csr csr = graph::BuildCsr(graph::GenerateRmat(params));
  csr.DeriveWeights(1234);
  return csr;
}

class BaselineCorrectness : public ::testing::TestWithParam<Algo> {};

TEST_P(BaselineCorrectness, TigrMatchesCpu) {
  graph::Csr csr = TestGraph();
  auto report = Tigr().Run(csr, GetParam(), 0);
  ASSERT_FALSE(report.oom);
  auto expected = core::CpuReference(csr, GetParam(), 0);
  ASSERT_EQ(report.labels, expected);
}

TEST_P(BaselineCorrectness, GunrockMatchesCpu) {
  graph::Csr csr = TestGraph();
  auto report = Gunrock().Run(csr, GetParam(), 0);
  ASSERT_FALSE(report.oom);
  auto expected = core::CpuReference(csr, GetParam(), 0);
  ASSERT_EQ(report.labels, expected);
}

TEST_P(BaselineCorrectness, CushaMatchesCpu) {
  graph::Csr csr = TestGraph();
  auto report = Cusha().Run(csr, GetParam(), 0);
  ASSERT_FALSE(report.oom);
  auto expected = core::CpuReference(csr, GetParam(), 0);
  ASSERT_EQ(report.labels, expected);
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, BaselineCorrectness,
                         ::testing::Values(Algo::kBfs, Algo::kSssp, Algo::kSswp));

TEST(Vst, SplitsDegreesAtBound) {
  graph::Csr csr = TestGraph();
  const uint32_t k = 8;
  auto vst = Tigr::BuildVst(csr, k);
  ASSERT_EQ(vst.offsets.size(), vst.owner.size() + 1);
  uint64_t covered = 0;
  for (size_t i = 0; i < vst.owner.size(); ++i) {
    graph::EdgeId deg = (i + 1 < vst.offsets.size() ? vst.offsets[i + 1]
                                                    : csr.NumEdges()) -
                        vst.offsets[i];
    // Each virtual node owns a run of at most k edges of its owner. Runs of
    // different owners are adjacent, so recompute against owner bounds.
    graph::EdgeId owner_end = csr.RowEnd(vst.owner[i]);
    graph::EdgeId run = std::min<graph::EdgeId>(vst.offsets[i] + k, owner_end) -
                        vst.offsets[i];
    EXPECT_LE(run, k);
    EXPECT_GE(run, 1u);
    covered += run;
    (void)deg;
  }
  EXPECT_EQ(covered, csr.NumEdges());
}

TEST(Vst, CountMatchesCeilFormula) {
  graph::Csr csr = TestGraph();
  for (uint32_t k : {1u, 2u, 7u, 16u, 64u}) {
    auto vst = Tigr::BuildVst(csr, k);
    uint64_t expected = 0;
    for (graph::VertexId v = 0; v < csr.NumVertices(); ++v) {
      expected += (csr.OutDegree(v) + k - 1) / k;
    }
    EXPECT_EQ(vst.NumVirtual(), expected) << "k=" << k;
  }
}

TEST(GShards, SortedByWindowThenSource) {
  graph::Csr csr = TestGraph();
  const uint32_t window = 64;
  auto shards = Cusha::BuildShards(csr, window);
  ASSERT_EQ(shards.src.size(), csr.NumEdges());
  for (size_t i = 1; i < shards.dst.size(); ++i) {
    uint32_t wa = shards.dst[i - 1] / window, wb = shards.dst[i] / window;
    ASSERT_LE(wa, wb);
    if (wa == wb) {
      ASSERT_LE(shards.src[i - 1], shards.src[i]);
    }
  }
  // Window offsets partition the edges.
  EXPECT_EQ(shards.shard_start.front(), 0u);
  EXPECT_EQ(shards.shard_start.back(), csr.NumEdges());
  for (size_t w = 0; w + 1 < shards.shard_start.size(); ++w) {
    for (graph::EdgeId e = shards.shard_start[w]; e < shards.shard_start[w + 1]; ++e) {
      EXPECT_EQ(shards.dst[e] / window, w);
    }
  }
}

TEST(GShards, PreservesMultiset) {
  graph::Csr csr = TestGraph();
  auto shards = Cusha::BuildShards(csr, 128);
  std::vector<graph::Edge> original = graph::ToEdgeList(csr);
  std::vector<graph::Edge> sharded(shards.src.size());
  for (size_t i = 0; i < sharded.size(); ++i) sharded[i] = {shards.src[i], shards.dst[i]};
  std::sort(original.begin(), original.end());
  std::sort(sharded.begin(), sharded.end());
  EXPECT_EQ(original, sharded);
}

/// The comparison-sort G-Shards build the linear builder replaced, run
/// stably: sort edge indices by (dst window, src, dst), ties in CSR order.
Cusha::Shards ComparisonSortShards(const graph::Csr& csr, uint32_t window) {
  const graph::EdgeId m = csr.NumEdges();
  std::vector<graph::VertexId> src(m);
  for (graph::VertexId v = 0; v < csr.NumVertices(); ++v) {
    for (graph::EdgeId e = csr.RowStart(v); e < csr.RowEnd(v); ++e) src[e] = v;
  }
  std::span<const graph::VertexId> dst = csr.ColIndices();
  std::vector<graph::EdgeId> order(m);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](graph::EdgeId a, graph::EdgeId b) {
    uint32_t wa = dst[a] / window, wb = dst[b] / window;
    if (wa != wb) return wa < wb;
    if (src[a] != src[b]) return src[a] < src[b];
    return dst[a] < dst[b];
  });
  Cusha::Shards shards;
  const uint32_t num_windows = (csr.NumVertices() + window - 1) / window;
  shards.shard_start.assign(num_windows + 1, 0);
  for (graph::EdgeId e : order) {
    shards.src.push_back(src[e]);
    shards.dst.push_back(dst[e]);
    if (csr.HasWeights()) shards.weight.push_back(csr.Weights()[e]);
    ++shards.shard_start[dst[e] / window + 1];
  }
  for (uint32_t w = 0; w < num_windows; ++w) shards.shard_start[w + 1] += shards.shard_start[w];
  return shards;
}

TEST(GShards, MatchesStableComparisonSortReference) {
  // Rows with unsorted destinations and duplicate edges carrying different
  // weights: the order of equal keys is pinned to CSR order.
  graph::Csr unsorted({0, 5, 5, 9, 12, 12},
                      {4, 1, 3, 1, 0, 2, 2, 0, 4, 1, 1, 3});
  unsorted.SetWeights({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  graph::Csr edgeless(std::vector<graph::EdgeId>(6, 0), {});
  const graph::Csr graphs[] = {TestGraph(), unsorted, edgeless};
  for (const graph::Csr& csr : graphs) {
    for (uint32_t window : {1u, 3u, 64u, 2048u, csr.NumVertices() + 1}) {
      SCOPED_TRACE("n=" + std::to_string(csr.NumVertices()) +
                   " window=" + std::to_string(window));
      Cusha::Shards expected = ComparisonSortShards(csr, window);
      Cusha::Shards shards = Cusha::BuildShards(csr, window);
      EXPECT_EQ(shards.src, expected.src);
      EXPECT_EQ(shards.dst, expected.dst);
      EXPECT_EQ(shards.weight, expected.weight);
      EXPECT_EQ(shards.shard_start, expected.shard_start);
    }
  }
}

/// The first failing request when Tigr's buffers are allocated in the
/// order the VST-first build used, sizes taken from a built VST; 0 if all fit.
uint64_t VstFirstOomRequest(const graph::Csr& csr, const sim::DeviceSpec& spec,
                            uint32_t split_degree, bool weighted) {
  const uint64_t num_virtual = Tigr::BuildVst(csr, split_degree).NumVirtual();
  const uint64_t m = csr.NumEdges(), n = csr.NumVertices();
  sim::Device device(spec);
  try {
    device.Alloc<graph::EdgeId>(num_virtual + 1, sim::MemKind::kDevice, "vst_off");
    device.Alloc<graph::VertexId>(num_virtual, sim::MemKind::kDevice, "vst_owner");
    device.Alloc<graph::VertexId>(m, sim::MemKind::kDevice, "col");
    if (weighted) device.Alloc<graph::Weight>(m, sim::MemKind::kDevice, "weights");
    device.Alloc<graph::Weight>(n, sim::MemKind::kDevice, "labels");
    device.Alloc<uint32_t>(n, sim::MemKind::kDevice, "stamp");
    device.Alloc<uint32_t>(1, sim::MemKind::kDevice, "act_counter");
    device.Alloc<graph::VertexId>(m, sim::MemKind::kDevice, "vst_staging");
  } catch (const sim::OomError& e) {
    return e.requested_bytes;
  }
  return 0;
}

TEST(BaselineOom, TigrAllocatesBeforeTheVstWithTheSameRequests) {
  graph::Csr csr = TestGraph();
  const TigrOptions defaults;
  const uint64_t vst_off_bytes =
      (Tigr::BuildVst(csr, defaults.split_degree).NumVirtual() + 1) * sizeof(graph::EdgeId);
  bool vst_too_big = false;
  for (uint64_t kib : {4, 8, 16, 32, 48, 64, 96, 128, 160, 192, 256, 1024}) {
    TigrOptions opt;
    opt.spec.device_memory_bytes = kib * util::kKiB;
    for (Algo algo : {Algo::kBfs, Algo::kSssp}) {
      SCOPED_TRACE(std::to_string(kib) + " KiB, algo " + std::to_string(int(algo)));
      const uint64_t expected =
          VstFirstOomRequest(csr, opt.spec, opt.split_degree, core::IsWeighted(algo));
      core::RunReport report = Tigr(opt).Run(csr, algo, 0);
      EXPECT_EQ(report.oom, expected != 0);
      EXPECT_EQ(report.oom_request_bytes, expected);
      vst_too_big |= opt.spec.device_memory_bytes < vst_off_bytes;
    }
  }
  EXPECT_TRUE(vst_too_big);  // the first allocation itself failed somewhere
}

TEST(BaselineOom, SmallDeviceReportsOom) {
  graph::Csr csr = TestGraph();
  sim::DeviceSpec tiny;
  tiny.device_memory_bytes = 64 * util::kKiB;  // far too small for 10K edges
  TigrOptions topt;
  topt.spec = tiny;
  EXPECT_TRUE(Tigr(topt).Run(csr, Algo::kBfs, 0).oom);
  GunrockOptions gopt;
  gopt.spec = tiny;
  EXPECT_TRUE(Gunrock(gopt).Run(csr, Algo::kBfs, 0).oom);
  CushaOptions copt;
  copt.spec = tiny;
  EXPECT_TRUE(Cusha(copt).Run(csr, Algo::kBfs, 0).oom);
}

TEST(BaselineReports, IterationStatsPopulated) {
  graph::Csr csr = TestGraph();
  for (auto* report : {new core::RunReport(Tigr().Run(csr, Algo::kBfs, 0)),
                       new core::RunReport(Gunrock().Run(csr, Algo::kBfs, 0)),
                       new core::RunReport(Cusha().Run(csr, Algo::kBfs, 0))}) {
    EXPECT_GT(report->iterations, 0u);
    EXPECT_EQ(report->iterations, report->iteration_stats.size());
    EXPECT_GT(report->kernel_ms, 0.0);
    EXPECT_GE(report->total_ms, report->kernel_ms);
    EXPECT_GT(report->activated, 0u);
    delete report;
  }
}

}  // namespace
}  // namespace eta::baselines
