// Unified Degree Cut (Definition 3) tests: the transform's invariants, its
// correctness theorems (Section III-B), the device-side transform against the
// host reference and as observed through EtaGraph's iteration stats, and the
// warp-aggregated append it reserves its shadows with.
#include <gtest/gtest.h>

#include <numeric>

#include "core/framework.hpp"
#include "core/udc.hpp"
#include "core/warp_append.hpp"
#include "cpu/reference.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "sim/device.hpp"
#include "util/rng.hpp"

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

// The device kernel itself against TransformActiveSet: on a graph whose
// degrees mix 0, < K, == K, multiples of K and > 32 K, launched over several
// warps, the full and partial sets are the reference shadows split by
// degree == K, in order, and the cursors hold their sizes.
class UdcKernelTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(UdcKernelTest, MatchesHostTransformSplitByDegree) {
  const uint32_t k = GetParam();
  const uint32_t degrees[] = {0, k - 1, k, 33 * k + 3, 2 * k, 1, 3 * k + 1, k + 1, 0, 40 * k};
  constexpr VertexId kVertices = 1024;  // above every degree: no duplicate edges
  std::vector<Edge> edges;
  for (VertexId v = 0; v < kVertices; ++v) {
    for (uint32_t e = 0; e < degrees[v % std::size(degrees)]; ++e) {
      edges.push_back({v, (v + 1 + e) % kVertices});
    }
  }
  const Csr csr = BuildCsr(std::move(edges));
  ASSERT_EQ(csr.NumVertices(), kVertices);
  std::vector<VertexId> active;  // three warps' worth, in scrambled order
  for (VertexId i = 0; i < 90; ++i) active.push_back((i * 37 + 5) % kVertices);

  sim::Device device;
  auto row = device.Alloc<graph::EdgeId>(kVertices + 1, sim::MemKind::kDevice, "row");
  auto act = device.Alloc<VertexId>(active.size(), sim::MemKind::kDevice, "act_set");
  auto cursors = device.Alloc<uint32_t>(2, sim::MemKind::kDevice, "cursors");
  const uint64_t cap = ShadowCapacity(csr, k);
  VirtualActiveSet vas;
  vas.full_id = device.Alloc<VertexId>(cap, sim::MemKind::kDevice, "full_id");
  vas.full_start = device.Alloc<graph::EdgeId>(cap, sim::MemKind::kDevice, "full_start");
  vas.part_id = device.Alloc<VertexId>(cap, sim::MemKind::kDevice, "part_id");
  vas.part_start = device.Alloc<graph::EdgeId>(cap, sim::MemKind::kDevice, "part_start");
  vas.part_end = device.Alloc<graph::EdgeId>(cap, sim::MemKind::kDevice, "part_end");
  device.CopyToDevice(row, csr.RowOffsets());
  device.CopyToDevice(act, std::span<const VertexId>(active));

  const auto result = device.Launch("udc", {active.size()}, [&](sim::WarpCtx& w) {
    UdcKernel(w, row, csr.NumEdges(), act, cursors, vas, k);
  });
  ASSERT_TRUE(result.Ok());

  std::vector<ShadowVertex> full, part;
  for (const ShadowVertex& s : TransformActiveSet(csr, active, k)) {
    (s.Degree() == k ? full : part).push_back(s);
  }
  ASSERT_FALSE(full.empty());
  ASSERT_EQ(part.empty(), k == 1);  // K = 1 cuts every edge into a full shadow
  EXPECT_EQ(cursors.HostSpan()[kFullCursor], full.size());
  EXPECT_EQ(cursors.HostSpan()[kPartCursor], part.size());
  std::vector<ShadowVertex> got_full, got_part;
  for (size_t i = 0; i < full.size(); ++i) {
    const graph::EdgeId start = vas.full_start.HostSpan()[i];
    got_full.push_back({vas.full_id.HostSpan()[i], start, start + k});
  }
  for (size_t i = 0; i < part.size(); ++i) {
    got_part.push_back(
        {vas.part_id.HostSpan()[i], vas.part_start.HostSpan()[i], vas.part_end.HostSpan()[i]});
  }
  EXPECT_EQ(got_full, full);
  EXPECT_EQ(got_part, part);
}

INSTANTIATE_TEST_SUITE_P(DegreeLimits, UdcKernelTest, ::testing::Values(1, 2, 8, 16));

// Unit counts: WarpAppend hands out exactly the slots a per-lane AtomicAdd
// on the same cursor does, over random masks and several calls per warp.
TEST(WarpAppend, UnitSlotsEqualSerialAtomicAdd) {
  sim::Device device;
  auto aggregated = device.Alloc<uint32_t>(2, sim::MemKind::kDevice, "aggregated");
  auto serial = device.Alloc<uint32_t>(2, sim::MemKind::kDevice, "serial");
  uint64_t compared = 0;
  device.Launch("append", {8 * sim::kWarpSize}, [&](sim::WarpCtx& w) {
    util::SplitMix64 rng = util::SplitMix64::Stream(11, w.WarpId());
    for (uint32_t call = 0; call < 16; ++call) {
      const uint32_t mask = static_cast<uint32_t>(rng.Next());
      const uint64_t cursor = call % 2;
      sim::LaneArray<uint32_t> got{}, want{};
      WarpAppend(w, aggregated, cursor, mask, got);
      sim::LaneArray<uint64_t> idx{};
      idx.fill(cursor);
      sim::LaneArray<uint32_t> one{};
      one.fill(1);
      w.AtomicAdd(serial, idx, one, mask, want);
      sim::WarpCtx::ForActive(mask, [&](uint32_t lane) {
        EXPECT_EQ(got[lane], want[lane]) << "lane " << lane;
        ++compared;
      });
    }
  });
  EXPECT_GT(compared, 1000u);
  EXPECT_EQ(aggregated.HostSpan()[0], serial.HostSpan()[0]);
  EXPECT_EQ(aggregated.HostSpan()[1], serial.HostSpan()[1]);
}

// Counted: lane i's first slot is the base plus the exclusive prefix sum of
// the counts of the mask's lower lanes; the cursor advances by the total.
TEST(WarpAppend, CountedSlotsAreExclusivePrefixSums) {
  sim::Device device;
  auto cursors = device.Alloc<uint32_t>(1, sim::MemKind::kDevice, "cursors");
  device.Launch("append", {4 * sim::kWarpSize}, [&](sim::WarpCtx& w) {
    util::SplitMix64 rng = util::SplitMix64::Stream(5, w.WarpId());
    for (uint32_t call = 0; call < 8; ++call) {
      const uint32_t mask = static_cast<uint32_t>(rng.Next());
      sim::LaneArray<uint32_t> count{};
      for (uint32_t& c : count) c = static_cast<uint32_t>(rng.NextBounded(50));
      const uint32_t base = cursors.HostSpan()[0];
      sim::LaneArray<uint32_t> slot{};
      WarpAppend(w, cursors, 0, count, mask, slot);
      uint32_t prefix = 0;
      sim::WarpCtx::ForActive(mask, [&](uint32_t lane) {
        EXPECT_EQ(slot[lane], base + prefix) << "lane " << lane;
        prefix += count[lane];
      });
      EXPECT_EQ(cursors.HostSpan()[0], base + prefix);
    }
  });
}

// Cost: every call with lanes is one atomic operation charged one lat_atomic
// of latency (ALU ops add none); an empty mask issues nothing.
TEST(WarpAppend, OneAtomicAndOneAtomicLatencyPerCall) {
  sim::Device device;
  auto cursors = device.Alloc<uint32_t>(1, sim::MemKind::kDevice, "cursors");
  constexpr uint32_t kCalls = 6;
  const auto result = device.Launch("append", {sim::kWarpSize}, [&](sim::WarpCtx& w) {
    sim::LaneArray<uint32_t> slot{};
    sim::LaneArray<uint32_t> count{};
    count.fill(3);
    for (uint32_t call = 0; call < kCalls / 2; ++call) {
      WarpAppend(w, cursors, 0, sim::kFullMask, slot);
      WarpAppend(w, cursors, 0, count, sim::kFullMask, slot);
    }
    WarpAppend(w, cursors, 0, 0u, slot);
    WarpAppend(w, cursors, 0, count, 0u, slot);
  });
  EXPECT_EQ(result.counters.atomic_operations, kCalls);
  EXPECT_EQ(result.counters.mem_latency_cycles, uint64_t{kCalls} * device.Spec().lat_atomic);
  EXPECT_EQ(cursors.HostSpan()[0], kCalls / 2 * (32 + 3 * 32));
}

}  // namespace
}  // namespace eta::core
