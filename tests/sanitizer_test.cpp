// etacheck tests: unit-level plants against a raw device, planted bugs in
// the real shipping kernels (via the sim::FaultConfig rmw/short plants), the
// zero-findings gate over every clean algorithm/memory-mode combination,
// and the zero-overhead guarantee (identical counters and clock with the
// checker attached).
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/framework.hpp"
#include "core/pagerank.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "sanitizer/sanitizer.hpp"
#include "serve/router.hpp"
#include "serve/trace.hpp"
#include "sim/device.hpp"
#include "util/json.hpp"

namespace eta {
namespace {

using sanitizer::Config;
using sanitizer::Finding;
using sanitizer::FindingKind;
using sanitizer::Sanitizer;
using sim::Buffer;
using sim::kWarpSize;
using sim::LaneArray;
using sim::WarpCtx;

graph::Csr SmallSocialGraph() {
  graph::RmatParams params;
  params.scale = 9;
  params.num_edges = 4000;
  params.seed = 7;
  graph::Csr csr = graph::BuildCsr(graph::GenerateRmat(params));
  csr.DeriveWeights(99);
  return csr;
}

Config MemcheckOnly() {
  Config c;
  c.memcheck = true;
  return c;
}

Config RacecheckOnly() {
  Config c;
  c.racecheck = true;
  return c;
}

Config SynccheckOnly() {
  Config c;
  c.synccheck = true;
  return c;
}

Config LeakcheckOnly() {
  Config c;
  c.leakcheck = true;
  return c;
}

// --- Config parsing ---------------------------------------------------------

TEST(SanitizerConfig, ParsesToolLists) {
  auto all = Config::Parse("all");
  ASSERT_TRUE(all.has_value());
  EXPECT_TRUE(all->memcheck && all->racecheck && all->synccheck && all->leakcheck);

  // A bare --check flag surfaces as the string "true".
  auto bare = Config::Parse("true");
  ASSERT_TRUE(bare.has_value());
  EXPECT_TRUE(bare->memcheck && bare->racecheck && bare->synccheck && bare->leakcheck);

  auto two = Config::Parse("memcheck,synccheck");
  ASSERT_TRUE(two.has_value());
  EXPECT_TRUE(two->memcheck);
  EXPECT_FALSE(two->racecheck);
  EXPECT_TRUE(two->synccheck);
  EXPECT_FALSE(two->leakcheck);

  auto leak = Config::Parse("leakcheck");
  ASSERT_TRUE(leak.has_value());
  EXPECT_TRUE(leak->leakcheck);
  EXPECT_FALSE(leak->memcheck || leak->racecheck || leak->synccheck);
  EXPECT_TRUE(leak->Enabled());

  EXPECT_FALSE(Config::Parse("memcheck,bogus").has_value());
  EXPECT_FALSE(Config{}.Enabled());
  EXPECT_TRUE(Config::All().Enabled());
}

// --- memcheck unit plants ---------------------------------------------------

TEST(Memcheck, OutOfBoundsRead) {
  Sanitizer checker(MemcheckOnly());
  sim::Device device;
  device.SetObserver(&checker);
  auto buf = device.Alloc<uint32_t>(8, sim::MemKind::kDevice, "buf");
  std::vector<uint32_t> init(8, 5);
  device.CopyToDevice(buf, std::span<const uint32_t>(init));
  device.Launch("oob_read", {1, 256}, [&](WarpCtx& w) {
    uint32_t mask = w.ActiveMask();
    if (!mask) return;
    LaneArray<uint64_t> idx{};
    idx[0] = 8;  // one past the end
    LaneArray<uint32_t> out{};
    w.Gather(buf, idx, mask, out);
  });
  const auto& findings = checker.Report().findings;
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, FindingKind::kOobRead);
  EXPECT_EQ(findings[0].buffer, "buf");
  EXPECT_EQ(findings[0].kernel, "oob_read");
  EXPECT_EQ(findings[0].elem_index, 8u);
  EXPECT_EQ(findings[0].occurrences, 1u);
  EXPECT_EQ(checker.Report().ErrorCount(), 1u);
}

TEST(Memcheck, OutOfBoundsWriteIsClampedAndReported) {
  Sanitizer checker(MemcheckOnly());
  sim::Device device;
  device.SetObserver(&checker);
  auto buf = device.Alloc<uint32_t>(4, sim::MemKind::kDevice, "target");
  std::vector<uint32_t> init(4, 0);
  device.CopyToDevice(buf, std::span<const uint32_t>(init));
  device.Launch("oob_write", {1, 256}, [&](WarpCtx& w) {
    uint32_t mask = w.ActiveMask();
    if (!mask) return;
    LaneArray<uint64_t> idx{};
    idx[0] = 100;
    LaneArray<uint32_t> val{};
    val[0] = 0xdead;
    w.Scatter(buf, idx, val, mask);
  });
  const auto& findings = checker.Report().findings;
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, FindingKind::kOobWrite);
  EXPECT_EQ(findings[0].buffer, "target");
  EXPECT_EQ(findings[0].elem_index, 100u);
  // The simulator clamps the store into bounds: host memory past the
  // allocation is never touched, the last element takes the hit instead.
  EXPECT_EQ(buf.HostSpan()[3], 0xdeadu);
}

TEST(Memcheck, UninitializedRead) {
  Sanitizer checker(MemcheckOnly());
  sim::Device device;
  device.SetObserver(&checker);
  auto buf = device.Alloc<uint32_t>(8, sim::MemKind::kDevice, "fresh");
  // No CopyToDevice, no MarkHostInitialized: reads must flag.
  device.Launch("uninit", {1, 256}, [&](WarpCtx& w) {
    uint32_t mask = w.ActiveMask();
    if (!mask) return;
    LaneArray<uint64_t> idx{};
    idx[0] = 3;
    LaneArray<uint32_t> out{};
    w.Gather(buf, idx, mask, out);
  });
  const auto& findings = checker.Report().findings;
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, FindingKind::kUninitRead);
  EXPECT_EQ(findings[0].buffer, "fresh");
  EXPECT_EQ(findings[0].elem_index, 3u);
}

TEST(Memcheck, DeviceWriteValidatesForLaterRead) {
  Sanitizer checker(MemcheckOnly());
  sim::Device device;
  device.SetObserver(&checker);
  auto buf = device.Alloc<uint32_t>(8, sim::MemKind::kDevice, "scratch");
  device.Launch("write_then_read", {1, 256}, [&](WarpCtx& w) {
    uint32_t mask = w.ActiveMask();
    if (!mask) return;
    LaneArray<uint64_t> idx{};
    idx[0] = 2;
    LaneArray<uint32_t> val{};
    val[0] = 11;
    w.Scatter(buf, idx, val, mask);
    LaneArray<uint32_t> out{};
    w.Gather(buf, idx, mask, out);  // now valid: the store defined it
    EXPECT_EQ(out[0], 11u);
  });
  EXPECT_TRUE(checker.Report().findings.empty());
}

TEST(Memcheck, MarkHostInitializedSuppressesUninitWithoutCharging) {
  Sanitizer checker(MemcheckOnly());
  sim::Device device;
  device.SetObserver(&checker);
  auto buf = device.Alloc<uint32_t>(16, sim::MemKind::kUnified, "staged");
  for (uint64_t i = 0; i < 16; ++i) buf.HostSpan()[i] = static_cast<uint32_t>(i);
  const double before = device.NowMs();
  device.MarkHostInitialized(buf);
  EXPECT_EQ(device.NowMs(), before);  // no transfer charged
  device.Launch("read_staged", {1, 256}, [&](WarpCtx& w) {
    uint32_t mask = w.ActiveMask();
    if (!mask) return;
    LaneArray<uint64_t> idx{};
    idx[0] = 15;
    LaneArray<uint32_t> out{};
    w.Gather(buf, idx, mask, out);
  });
  EXPECT_TRUE(checker.Report().findings.empty());
}

// Use-after-free is tested at the observer-protocol level: running a kernel
// against a freed buffer through the device would read genuinely freed host
// memory (the functional side is real), which host ASan would rightly flag.
TEST(Memcheck, UseAfterFree) {
  Sanitizer checker(MemcheckOnly());
  alignas(4) static std::byte storage[64];
  sim::RawBuffer raw;
  raw.id = 42;
  raw.base_addr = 1 << 20;
  raw.bytes = 64;
  raw.kind = sim::MemKind::kDevice;
  raw.data = storage;
  checker.OnAlloc(raw, "ghost");
  checker.OnHostWrite(raw, 0, 64);
  checker.OnFree(raw);
  checker.OnLaunchBegin("stale_kernel", {32, 256});
  checker.OnDeviceAccess(sim::DeviceAccess{&raw, 3, 1, 4, 16,
                                           sim::AccessKind::kRead, 0, 3});
  checker.OnLaunchEnd();
  const auto& findings = checker.Report().findings;
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, FindingKind::kUseAfterFree);
  EXPECT_EQ(findings[0].buffer, "ghost");
  EXPECT_EQ(findings[0].kernel, "stale_kernel");
  EXPECT_EQ(findings[0].elem_index, 3u);
}

// --- racecheck unit plants --------------------------------------------------

TEST(Racecheck, PlainStoreOverPlainStore) {
  Sanitizer checker(RacecheckOnly());
  sim::Device device;
  device.SetObserver(&checker);
  auto buf = device.Alloc<uint32_t>(4, sim::MemKind::kDevice, "cell");
  device.Launch("ww", {2, 256}, [&](WarpCtx& w) {
    uint32_t mask = w.ActiveMask();
    if (!mask) return;
    LaneArray<uint64_t> idx{};  // both lanes hit element 0
    LaneArray<uint32_t> val{};
    val[0] = 1;
    val[1] = 2;
    w.Scatter(buf, idx, val, mask);
  });
  const auto& findings = checker.Report().findings;
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, FindingKind::kRaceWriteWrite);
  EXPECT_EQ(findings[0].buffer, "cell");
  EXPECT_EQ(findings[0].lane, 1u);
  EXPECT_EQ(findings[0].other_thread, 0u);
}

TEST(Racecheck, WriteThenReadIsWarningOnly) {
  Sanitizer checker(RacecheckOnly());
  sim::Device device;
  device.SetObserver(&checker);
  auto buf = device.Alloc<uint32_t>(4, sim::MemKind::kDevice, "published");
  device.Launch("wr", {2, 256}, [&](WarpCtx& w) {
    uint32_t mask = w.ActiveMask();
    if (!mask) return;
    LaneArray<uint64_t> idx{};
    LaneArray<uint32_t> val{};
    w.Scatter(buf, idx, val, 0b01);  // lane 0 stores element 0
    LaneArray<uint32_t> out{};
    w.Gather(buf, idx, 0b10, out);  // lane 1 reads it back
  });
  const auto& report = checker.Report();
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].kind, FindingKind::kRaceWriteRead);
  EXPECT_EQ(report.ErrorCount(), 0u);
  EXPECT_EQ(report.WarningCount(), 1u);
  EXPECT_TRUE(report.Clean());  // warnings do not fail the gate
}

TEST(Racecheck, AtomicsDoNotRace) {
  Sanitizer checker(RacecheckOnly());
  sim::Device device;
  device.SetObserver(&checker);
  auto buf = device.Alloc<uint32_t>(1, sim::MemKind::kDevice, "counter");
  device.Launch("atomics", {32, 256}, [&](WarpCtx& w) {
    uint32_t mask = w.ActiveMask();
    if (!mask) return;
    LaneArray<uint64_t> idx{};  // all 32 lanes increment element 0
    LaneArray<uint32_t> val{};
    val.fill(1);
    LaneArray<uint32_t> old{};
    w.AtomicAdd(buf, idx, val, mask, old);
    w.AtomicAdd(buf, idx, val, mask, old);
  });
  EXPECT_TRUE(checker.Report().findings.empty());
  EXPECT_EQ(buf.HostSpan()[0], 64u);
}

TEST(Racecheck, ScatterRelaxedDeclaresSingleWriterProtocol) {
  Sanitizer checker(RacecheckOnly());
  sim::Device device;
  device.SetObserver(&checker);
  auto buf = device.Alloc<uint32_t>(4, sim::MemKind::kDevice, "levels");
  device.Launch("relaxed_ok", {2, 256}, [&](WarpCtx& w) {
    uint32_t mask = w.ActiveMask();
    if (!mask) return;
    LaneArray<uint64_t> idx{};
    LaneArray<uint32_t> val{};
    val[0] = 7;
    w.ScatterRelaxed(buf, idx, val, 0b01);  // declared relaxed store
    LaneArray<uint32_t> out{};
    w.Gather(buf, idx, 0b10, out);  // concurrent reader: part of the design
  });
  EXPECT_TRUE(checker.Report().findings.empty());
}

TEST(Racecheck, PlainStoreOverRelaxedStoreStillFlags) {
  Sanitizer checker(RacecheckOnly());
  sim::Device device;
  device.SetObserver(&checker);
  auto buf = device.Alloc<uint32_t>(4, sim::MemKind::kDevice, "levels");
  device.Launch("relaxed_vs_plain", {2, 256}, [&](WarpCtx& w) {
    uint32_t mask = w.ActiveMask();
    if (!mask) return;
    LaneArray<uint64_t> idx{};
    LaneArray<uint32_t> val{};
    w.ScatterRelaxed(buf, idx, val, 0b01);  // lane 0: declared relaxed
    w.Scatter(buf, idx, val, 0b10);         // lane 1: undeclared plain store
  });
  const auto& findings = checker.Report().findings;
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, FindingKind::kRaceAtomicWrite);
  EXPECT_EQ(findings[0].other_thread, 0u);
}

TEST(Racecheck, LogResetsBetweenLaunches) {
  Sanitizer checker(RacecheckOnly());
  sim::Device device;
  device.SetObserver(&checker);
  auto buf = device.Alloc<uint32_t>(4, sim::MemKind::kDevice, "cell");
  auto store_lane = [&](uint32_t lane_mask) {
    device.Launch("seq", {2, 256}, [&](WarpCtx& w) {
      uint32_t mask = w.ActiveMask();
      if (!mask) return;
      LaneArray<uint64_t> idx{};
      LaneArray<uint32_t> val{};
      w.Scatter(buf, idx, val, lane_mask);
    });
  };
  store_lane(0b01);  // launch 1: thread 0 writes element 0
  store_lane(0b10);  // launch 2: thread 1 writes element 0 — no conflict
  EXPECT_TRUE(checker.Report().findings.empty());
  EXPECT_EQ(checker.Report().launches_checked, 2u);
}

// --- synccheck unit plants --------------------------------------------------

TEST(Synccheck, DivergentBarrier) {
  Sanitizer checker(SynccheckOnly());
  sim::Device device;
  device.SetObserver(&checker);
  device.Launch("divergent", {64, 64}, [&](WarpCtx& w) {
    uint32_t mask = w.ActiveMask();
    if (!mask) return;
    // Both warps arrive with lane 0 peeled off — the divergent
    // __syncthreads every CUDA programmer has hung a kernel with.
    w.Barrier(mask & ~1u);
  });
  const auto& findings = checker.Report().findings;
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, FindingKind::kBarrierDivergence);
  EXPECT_EQ(findings[0].occurrences, 2u);  // one per warp, aggregated
}

TEST(Synccheck, BarrierCountMismatchAcrossWarps) {
  Sanitizer checker(SynccheckOnly());
  sim::Device device;
  device.SetObserver(&checker);
  device.Launch("mismatch", {64, 64}, [&](WarpCtx& w) {
    uint32_t mask = w.ActiveMask();
    if (!mask) return;
    if (w.WarpId() == 0) w.Barrier(mask);  // warp 1 never arrives
  });
  const auto& findings = checker.Report().findings;
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, FindingKind::kBarrierMismatch);
  EXPECT_NE(findings[0].note.find("warp 1 hit 0 barrier(s)"), std::string::npos);
  EXPECT_NE(findings[0].note.find("warp 0 hit 1"), std::string::npos);
}

TEST(Synccheck, UniformBarrierIsClean) {
  Sanitizer checker(SynccheckOnly());
  sim::Device device;
  device.SetObserver(&checker);
  device.Launch("uniform", {64, 64}, [&](WarpCtx& w) {
    uint32_t mask = w.ActiveMask();
    if (!mask) return;
    w.Barrier(mask);
    w.Barrier(mask);
  });
  EXPECT_TRUE(checker.Report().findings.empty());
}

// --- planted bugs in the real kernels ---------------------------------------

// Dropping the reach-mask AtomicOr: two sources whose frontiers collide on
// the same neighbors turn the attribute update into read-modify-write over
// shared elements. Discovery order and occurrence counts are deterministic.
TEST(PlantedBugs, DroppedAtomicOrIsARace) {
  std::vector<graph::Edge> edges{{0, 2}, {0, 3}, {1, 2}, {1, 3}};
  graph::BuildOptions build;
  build.min_vertices = 4;
  graph::Csr csr = graph::BuildCsr(edges, build);

  core::EtaGraphOptions options;
  options.check = RacecheckOnly();
  options.faults.rmw_buffer = "reach_mask";
  core::ResidentGraph session(csr, options);
  const graph::VertexId sources[] = {0, 1};
  core::RunReport report = session.RunMultiSource(core::Algo::kBfs, sources,
                                                  /*attribute_sources=*/true);
  ASSERT_FALSE(report.oom);

  const auto& findings = report.check.findings;
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].kind, FindingKind::kRaceReadWrite);
  EXPECT_EQ(findings[0].buffer, "reach_mask");
  EXPECT_EQ(findings[0].kernel, "traverse_part");
  EXPECT_EQ(findings[0].occurrences, 2u);  // both contended neighbors
  EXPECT_EQ(findings[0].other_thread, 1u);
  EXPECT_EQ(findings[1].kind, FindingKind::kRaceWriteWrite);
  EXPECT_EQ(findings[1].buffer, "reach_mask");
  EXPECT_EQ(findings[1].occurrences, 2u);
  EXPECT_EQ(findings[1].other_thread, 0u);
  EXPECT_EQ(report.check.ErrorCount(), 4u);

  // Same run with the atomic in place: silent.
  core::EtaGraphOptions clean = options;
  clean.faults.rmw_buffer.clear();
  core::ResidentGraph clean_session(csr, clean);
  core::RunReport clean_report =
      clean_session.RunMultiSource(core::Algo::kBfs, sources, true);
  EXPECT_TRUE(clean_report.check.findings.empty());
}

// Under-allocating the frontier by one: an attributed two-source run whose
// reach masks keep growing re-appends the sources, so iteration 1 appends
// n vertices into the n-1-element act_set — one out-of-bounds write at the
// cursor's last slot, then iteration 2's UDC pass reads the oversized
// count back out of bounds.
TEST(PlantedBugs, ShrunkFrontierOverflows) {
  constexpr graph::VertexId n = 8;
  std::vector<graph::Edge> edges;
  for (graph::VertexId v = 1; v < n; ++v) edges.push_back({0, v});
  edges.push_back({1, 0});
  graph::BuildOptions build;
  build.min_vertices = n;
  graph::Csr csr = graph::BuildCsr(edges, build);

  core::EtaGraphOptions options;
  options.check = MemcheckOnly();
  options.faults.short_buffer = "act_set";
  core::ResidentGraph session(csr, options);
  const graph::VertexId sources[] = {0, 1};
  core::RunReport report = session.RunMultiSource(core::Algo::kBfs, sources,
                                                  /*attribute_sources=*/true);
  ASSERT_FALSE(report.oom);

  const auto& findings = report.check.findings;
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].kind, FindingKind::kOobWrite);
  EXPECT_EQ(findings[0].buffer, "act_set");
  EXPECT_EQ(findings[0].kernel, "traverse_part");
  EXPECT_EQ(findings[0].elem_index, n - 1);  // first slot past the allocation
  EXPECT_EQ(findings[0].occurrences, 1u);
  EXPECT_EQ(findings[1].kind, FindingKind::kOobRead);
  EXPECT_EQ(findings[1].buffer, "act_set");
  EXPECT_EQ(findings[1].kernel, "udc");
  EXPECT_EQ(findings[1].occurrences, 1u);

  // The same workload with a full-size frontier is silent.
  core::EtaGraphOptions clean = options;
  clean.faults.short_buffer.clear();
  core::ResidentGraph clean_session(csr, clean);
  core::RunReport clean_report =
      clean_session.RunMultiSource(core::Algo::kBfs, sources, true);
  EXPECT_TRUE(clean_report.check.findings.empty());
}

// --- the clean gate ---------------------------------------------------------

class CleanGate
    : public ::testing::TestWithParam<std::tuple<core::Algo, core::MemoryMode, bool>> {};

TEST_P(CleanGate, ShippingKernelsProduceZeroFindings) {
  auto [algo, mode, smp] = GetParam();
  graph::Csr csr = SmallSocialGraph();
  core::EtaGraphOptions options;
  options.check = Config::All();
  options.memory_mode = mode;
  options.use_smp = smp;
  core::RunReport report = core::EtaGraph(options).Run(csr, algo, /*source=*/0);
  ASSERT_FALSE(report.oom);
  EXPECT_TRUE(report.check.findings.empty())
      << report.check.Render(/*verbose=*/true);
  EXPECT_GT(report.check.launches_checked, 0u);
  EXPECT_GT(report.check.accesses_checked, 0u);
  // Checked results are still correct results.
  EXPECT_EQ(report.labels, core::CpuReference(csr, algo, 0));
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, CleanGate,
    ::testing::Combine(
        ::testing::Values(core::Algo::kBfs, core::Algo::kSssp, core::Algo::kSswp),
        ::testing::Values(core::MemoryMode::kUnifiedPrefetch,
                          core::MemoryMode::kUnifiedOnDemand,
                          core::MemoryMode::kExplicitCopy,
                          core::MemoryMode::kChunkedStream),
        ::testing::Values(true, false)));

TEST(CleanGateExtensions, ConnectedComponentsAndMultiSource) {
  graph::Csr csr = SmallSocialGraph();
  core::EtaGraphOptions options;
  options.check = Config::All();
  core::RunReport cc = core::EtaGraph(options).RunConnectedComponents(csr);
  ASSERT_FALSE(cc.oom);
  EXPECT_TRUE(cc.check.findings.empty()) << cc.check.Render(true);

  const graph::VertexId sources[] = {0, 5, 9, 23};
  core::RunReport multi = core::EtaGraph(options).RunMultiSource(
      csr, core::Algo::kBfs, sources, /*attribute_sources=*/true);
  ASSERT_FALSE(multi.oom);
  EXPECT_TRUE(multi.check.findings.empty()) << multi.check.Render(true);
}

TEST(CleanGateExtensions, HybridBfsRelaxedStoresAreClean) {
  graph::Csr csr = SmallSocialGraph();
  core::EtaGraphOptions options;
  options.check = Config::All();
  core::HybridBfsOptions hybrid;
  hybrid.alpha = 2.0;  // pull mode once the frontier exceeds |V| / 2
  core::RunReport result = core::EtaGraph(options).RunHybridBfs(csr, 0, hybrid);
  ASSERT_FALSE(result.oom);
  EXPECT_GT(result.bottom_up_iterations, 0u);
  EXPECT_TRUE(result.check.findings.empty()) << result.check.Render(true);
  EXPECT_EQ(result.labels, core::CpuReference(csr, core::Algo::kBfs, 0));
}

TEST(CleanGateExtensions, PageRankIsClean) {
  graph::Csr csr = SmallSocialGraph();
  core::EtaGraphOptions options;
  options.check = Config::All();
  core::PageRankOptions pr;
  pr.max_iterations = 10;
  core::RunReport result = core::EtaGraph(options).RunPageRank(csr, pr);
  ASSERT_FALSE(result.oom);
  EXPECT_TRUE(result.check.findings.empty()) << result.check.Render(true);
}

TEST(CleanGateServe, FullTraceReplayIsClean) {
  graph::Csr csr = SmallSocialGraph();
  serve::ShardedOptions options;
  options.shards = 1;
  options.base.graph.check = Config::All();
  serve::TraceOptions trace_options;
  trace_options.num_requests = 64;
  auto trace = serve::GenerateTrace(csr.NumVertices(), trace_options);
  serve::ServeReport report = serve::ShardedEngine(options).Serve(csr, trace);
  EXPECT_EQ(report.completed, 64u);
  EXPECT_TRUE(report.check.findings.empty()) << report.check.Render(true);
  EXPECT_GT(report.check.launches_checked, 0u);
}

TEST(CleanGateServe, ReplayWithPageRankRequestsIsClean) {
  graph::Csr csr = SmallSocialGraph();
  serve::ShardedOptions options;
  options.shards = 1;
  options.base.graph.check = Config::All();
  serve::TraceOptions trace_options;
  trace_options.num_requests = 32;
  auto trace = serve::GenerateTrace(csr.NumVertices(), trace_options);
  // Every fourth request is a PageRank: its per-query buffers come and go
  // between traversals on the one resident session, whose teardown sweep
  // (leakcheck) must find none of them.
  for (size_t i = 0; i < trace.size(); i += 4) trace[i].algo = core::Algo::kPr;
  serve::ServeReport report = serve::ShardedEngine(options).Serve(csr, trace);
  EXPECT_EQ(report.completed, trace.size());
  EXPECT_EQ(report.degraded, 0u);
  EXPECT_TRUE(report.check.findings.empty()) << report.check.Render(true);
  EXPECT_GT(report.check.launches_checked, 0u);
}

// --- leakcheck ---------------------------------------------------------------

TEST(Leakcheck, PlantedLeakIsReportedByTheTeardownSweep) {
  Sanitizer checker(LeakcheckOnly());
  sim::Device device;
  device.SetObserver(&checker);
  auto kept = device.Alloc<uint32_t>(8, sim::MemKind::kDevice, "kept");
  auto freed = device.Alloc<uint32_t>(8, sim::MemKind::kUnified, "freed");
  device.Free(freed);
  (void)kept;  // never freed: this is the leak

  EXPECT_TRUE(checker.Report().findings.empty());  // nothing until the sweep
  device.ReportLeaks();
  const auto& findings = checker.Report().findings;
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, FindingKind::kLeakedBuffer);
  EXPECT_EQ(findings[0].buffer, "kept");
  EXPECT_EQ(checker.Report().ErrorCount(), 1u);
  // The sweep is idempotent: a second call reports nothing new.
  device.ReportLeaks();
  EXPECT_EQ(checker.Report().findings.size(), 1u);

  std::string text = checker.Report().Render();
  EXPECT_NE(text.find("leaked-buffer"), std::string::npos);
  EXPECT_NE(text.find("kept"), std::string::npos);
  EXPECT_NE(text.find("byte(s)"), std::string::npos);
}

TEST(Leakcheck, DisabledLeakcheckIgnoresTheSweep) {
  Sanitizer checker(MemcheckOnly());
  sim::Device device;
  device.SetObserver(&checker);
  auto kept = device.Alloc<uint32_t>(8, sim::MemKind::kDevice, "kept");
  (void)kept;
  device.ReportLeaks();
  EXPECT_TRUE(checker.Report().findings.empty());
}

TEST(Leakcheck, SessionShutdownFreesEverything) {
  graph::Csr csr = SmallSocialGraph();
  core::EtaGraphOptions options;
  options.check = Config::All();
  core::ResidentGraph session(csr, options);
  auto report = session.Run(core::Algo::kSssp, 3);
  ASSERT_FALSE(report.oom);
  // Shutdown frees all fifteen session buffers and then runs the sweep; a
  // clean session must produce no leak findings.
  session.Shutdown();
  ASSERT_NE(session.CheckReport(), nullptr);
  EXPECT_TRUE(session.CheckReport()->findings.empty())
      << session.CheckReport()->Render(true);
}

// --- the zero-overhead guarantee --------------------------------------------

TEST(Overhead, CheckedRunHasIdenticalCountersAndClock) {
  graph::Csr csr = SmallSocialGraph();
  core::EtaGraphOptions plain;
  core::EtaGraphOptions checked = plain;
  checked.check = Config::All();
  core::RunReport a = core::EtaGraph(plain).Run(csr, core::Algo::kSssp, 0);
  core::RunReport b = core::EtaGraph(checked).Run(csr, core::Algo::kSssp, 0);
  EXPECT_EQ(a.total_ms, b.total_ms);
  EXPECT_EQ(a.kernel_ms, b.kernel_ms);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.counters.warp_instructions, b.counters.warp_instructions);
  EXPECT_EQ(a.counters.thread_instructions, b.counters.thread_instructions);
  EXPECT_EQ(a.counters.l1_accesses, b.counters.l1_accesses);
  EXPECT_EQ(a.counters.l1_hits, b.counters.l1_hits);
  EXPECT_EQ(a.counters.l2_accesses, b.counters.l2_accesses);
  EXPECT_EQ(a.counters.l2_hits, b.counters.l2_hits);
  EXPECT_EQ(a.counters.dram_read_transactions, b.counters.dram_read_transactions);
  EXPECT_EQ(a.counters.dram_write_transactions, b.counters.dram_write_transactions);
  EXPECT_EQ(a.counters.atomic_operations, b.counters.atomic_operations);
  EXPECT_EQ(a.counters.mem_latency_cycles, b.counters.mem_latency_cycles);
  EXPECT_EQ(a.counters.elapsed_cycles, b.counters.elapsed_cycles);
}

// --- report plumbing --------------------------------------------------------

TEST(Report, MergeAggregatesDuplicateFindings) {
  sanitizer::SanitizerReport a;
  Finding f;
  f.kind = FindingKind::kOobWrite;
  f.kernel = "k";
  f.buffer = "b";
  f.occurrences = 2;
  a.findings.push_back(f);
  a.launches_checked = 3;

  sanitizer::SanitizerReport b;
  b.findings.push_back(f);
  Finding other = f;
  other.buffer = "c";
  b.findings.push_back(other);
  b.launches_checked = 1;

  a.Merge(b);
  ASSERT_EQ(a.findings.size(), 2u);
  EXPECT_EQ(a.findings[0].occurrences, 4u);
  EXPECT_EQ(a.findings[1].buffer, "c");
  EXPECT_EQ(a.launches_checked, 4u);
}

TEST(Report, RenderAndJsonCarryTheFinding) {
  sanitizer::SanitizerReport report;
  Finding f;
  f.kind = FindingKind::kRaceWriteWrite;
  f.kernel = "traverse_part";
  f.buffer = "reach_mask";
  f.elem_index = 2;
  f.lane = 1;
  f.occurrences = 2;
  f.other_thread = 0;
  report.findings.push_back(f);
  report.launches_checked = 1;

  std::string text = report.Render();
  EXPECT_NE(text.find("race-write-write"), std::string::npos);
  EXPECT_NE(text.find("reach_mask[2]"), std::string::npos);
  EXPECT_NE(text.find("'traverse_part'"), std::string::npos);
  EXPECT_NE(text.find("(x2)"), std::string::npos);

  std::string error;
  const std::optional<util::JsonValue> json = util::JsonParse(report.Json(), &error);
  ASSERT_TRUE(json.has_value()) << error;
  ASSERT_NE(json->Find("errors"), nullptr);
  EXPECT_EQ(json->Find("errors")->number, 2);
  const util::JsonValue* found = json->Find("findings");
  ASSERT_TRUE(found != nullptr && found->IsArray() && found->array.size() == 1);
  ASSERT_NE(found->array[0].Find("kind"), nullptr);
  EXPECT_EQ(found->array[0].Find("kind")->string, "race-write-write");
  ASSERT_NE(found->array[0].Find("buffer"), nullptr);
  EXPECT_EQ(found->array[0].Find("buffer")->string, "reach_mask");

  // Empty reports render nothing unless verbose.
  sanitizer::SanitizerReport empty;
  EXPECT_EQ(empty.Render(), "");
  EXPECT_NE(empty.Render(/*verbose=*/true).find("0 error(s)"), std::string::npos);
}

// A pathological allocation name longer than 512 bytes survives
// Message/Render/Json untruncated: the text renderings build std::strings
// and the JSON goes through util::JsonWriter, neither with a fixed buffer.
TEST(SanitizerReport, LongBufferNameRendersUntruncated) {
  const std::string long_name(700, 'b');
  Finding f;
  f.kind = FindingKind::kLeakedBuffer;
  f.buffer = long_name;
  EXPECT_NE(f.Message().find(long_name), std::string::npos);

  sanitizer::SanitizerReport report;
  report.findings.push_back(f);
  report.launches_checked = 1;
  EXPECT_NE(report.Render().find(long_name), std::string::npos);
  EXPECT_NE(report.Json().find(long_name), std::string::npos);
}

}  // namespace
}  // namespace eta
