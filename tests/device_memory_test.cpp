// DeviceMemory edge behaviour: OOM arithmetic, double-free hard abort,
// out-of-range cudaMemcpy, kHostStaged's invisibility to the
// unified-memory page machinery, and injected allocation failures
// (DESIGN.md section 8) surfacing exactly like real memory pressure.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "core/framework.hpp"
#include "core/traversal.hpp"
#include "cpu/reference.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "serve/router.hpp"
#include "serve/trace.hpp"
#include "sim/device.hpp"
#include "sim/fault.hpp"
#include "util/units.hpp"

namespace eta {
namespace {

sim::DeviceSpec TinySpec() {
  sim::DeviceSpec spec;
  spec.device_memory_bytes = 1 * util::kMiB;
  return spec;
}

TEST(DeviceMemoryTest, OomErrorCarriesTheAllocationArithmetic) {
  sim::Device device(TinySpec());
  // 512 KiB of the 1 MiB capacity: exactly page-sized, no rounding slack.
  auto half = device.Alloc<uint32_t>(128 * 1024, sim::MemKind::kDevice, "half");
  EXPECT_EQ(device.Mem().DeviceBytesUsed(), 512 * util::kKiB);
  try {
    device.Alloc<uint32_t>(256 * 1024, sim::MemKind::kDevice, "toobig");
    FAIL() << "expected OomError";
  } catch (const sim::OomError& oom) {
    EXPECT_EQ(oom.requested_bytes, 1 * util::kMiB);
    EXPECT_EQ(oom.used_bytes, 512 * util::kKiB);
    EXPECT_EQ(oom.capacity_bytes, 1 * util::kMiB);
  }
  // The failed allocation must not leak accounting.
  EXPECT_EQ(device.Mem().DeviceBytesUsed(), 512 * util::kKiB);
  device.Free(half);
  EXPECT_EQ(device.Mem().DeviceBytesUsed(), 0u);
}

TEST(DeviceMemoryTest, RequestIsPageRounded) {
  sim::Device device(TinySpec());
  auto one = device.Alloc<uint32_t>(1, sim::MemKind::kDevice, "one");
  EXPECT_EQ(one.raw.bytes, device.Spec().page_bytes);
  EXPECT_EQ(device.Mem().DeviceBytesUsed(), device.Spec().page_bytes);
  // Fresh allocations are zero-filled.
  EXPECT_EQ(one.HostSpan()[0], 0u);
  device.Free(one);
}

TEST(DeviceMemoryTest, UnifiedAllocationsOversubscribeInsteadOfThrowing) {
  sim::Device device(TinySpec());
  // 4 MiB managed on a 1 MiB device: must not throw (pages migrate/evict).
  auto big = device.Alloc<uint32_t>(1024 * 1024, sim::MemKind::kUnified, "big");
  EXPECT_TRUE(big.Valid());
  EXPECT_EQ(device.Mem().DeviceBytesUsed(), 0u);
  EXPECT_EQ(device.Mem().UnifiedBytesAllocated(), 4 * util::kMiB);
  device.Free(big);
  EXPECT_EQ(device.Mem().UnifiedBytesAllocated(), 0u);
}

TEST(DeviceMemoryDeathTest, DoubleFreeAborts) {
  sim::Device device;
  auto buf = device.Alloc<uint32_t>(16, sim::MemKind::kDevice, "victim");
  sim::RawBuffer stale = buf.raw;
  device.Free(buf);  // also resets the handle, so Device::Free is now a no-op
  EXPECT_DEATH(device.Mem().Free(stale), "CHECK failed");
}

TEST(DeviceMemoryDeathTest, MemcpyPastTheAllocationAborts) {
  sim::Device device;
  auto buf = device.Alloc<uint32_t>(4, sim::MemKind::kDevice, "small");
  std::vector<uint32_t> five(5, 1);
  EXPECT_DEATH(device.CopyToDevice(buf, std::span<const uint32_t>(five)),
               "CHECK failed");
  std::vector<uint32_t> two(2, 1);
  EXPECT_DEATH(
      device.CopyToDeviceRange(buf, 3, std::span<const uint32_t>(two)),
      "CHECK failed");
}

TEST(DeviceMemoryTest, FindResolvesAllocationsAndGuardPages) {
  sim::Device device;
  auto a = device.Alloc<uint32_t>(16, sim::MemKind::kDevice, "a");
  auto b = device.Alloc<uint32_t>(16, sim::MemKind::kDevice, "b");
  const sim::DeviceMemory& mem = device.Mem();
  ASSERT_NE(mem.Find(a.raw.base_addr), nullptr);
  EXPECT_EQ(mem.Find(a.raw.base_addr)->id, a.raw.id);
  EXPECT_EQ(mem.Find(a.raw.base_addr + a.raw.bytes - 1)->id, a.raw.id);
  // The guard page between allocations maps to nothing.
  EXPECT_EQ(mem.Find(a.raw.base_addr + a.raw.bytes), nullptr);
  EXPECT_EQ(mem.Find(b.raw.base_addr)->id, b.raw.id);
  EXPECT_EQ(mem.Find(0), nullptr);
  device.Free(a);
  device.Free(b);
}

TEST(DeviceMemoryTest, HostStagedIsInvisibleToUnifiedMemory) {
  sim::Device device;
  auto staged = device.Alloc<uint32_t>(1024, sim::MemKind::kHostStaged, "staged");
  auto managed = device.Alloc<uint32_t>(1024, sim::MemKind::kUnified, "managed");
  for (uint64_t i = 0; i < 1024; ++i) {
    staged.HostSpan()[i] = static_cast<uint32_t>(i);
    managed.HostSpan()[i] = static_cast<uint32_t>(i);
  }

  // Only the managed range registers with the page machinery.
  EXPECT_FALSE(device.Um().IsManaged(staged.raw.base_addr));
  EXPECT_TRUE(device.Um().IsManaged(managed.raw.base_addr));
  // Both count as non-device allocations at the allocator level.
  EXPECT_EQ(device.Mem().UnifiedBytesAllocated(), staged.raw.bytes + managed.raw.bytes);
  EXPECT_EQ(device.Mem().DeviceBytesUsed(), 0u);

  // A kernel touching the staged buffer migrates nothing; the same touch on
  // the managed buffer faults pages in.
  auto read_first = [&](sim::Buffer<uint32_t>& buf) {
    device.Launch("touch", {32, 256}, [&](sim::WarpCtx& w) {
      uint32_t mask = w.ActiveMask();
      if (!mask) return;
      sim::LaneArray<uint64_t> idx{};
      sim::WarpCtx::ForActive(mask, [&](uint32_t lane) { idx[lane] = lane; });
      sim::LaneArray<uint32_t> out{};
      w.Gather(buf, idx, mask, out);
    });
  };
  read_first(staged);
  EXPECT_EQ(device.Um().TotalMigratedBytes(), 0u);
  read_first(managed);
  EXPECT_GT(device.Um().TotalMigratedBytes(), 0u);

  device.Free(staged);
  device.Free(managed);
  EXPECT_EQ(device.Mem().UnifiedBytesAllocated(), 0u);
}

// --- Injected allocation failures (fault model, DESIGN.md section 8) --------

TEST(DeviceMemoryTest, InjectedAllocFailureLooksLikeRealPressure) {
  sim::Device device;
  sim::FaultConfig config;
  config.alloc_fail_at = 2;
  sim::FaultInjector injector(config);
  device.SetFaultInjector(&injector);

  auto a = device.Alloc<uint32_t>(16, sim::MemKind::kDevice, "a");
  uint64_t used_before = device.Mem().DeviceBytesUsed();
  try {
    device.Alloc<uint32_t>(16, sim::MemKind::kDevice, "b");
    FAIL() << "expected injected OomError";
  } catch (const sim::OomError& oom) {
    EXPECT_EQ(oom.requested_bytes, 16 * sizeof(uint32_t));
    EXPECT_EQ(oom.used_bytes, used_before);
    EXPECT_EQ(oom.capacity_bytes, device.Spec().device_memory_bytes);
  }
  // The injected failure charges nothing and leaves no record.
  EXPECT_EQ(device.Mem().DeviceBytesUsed(), used_before);
  EXPECT_EQ(device.Mem().LiveAllocations().size(), 1u);
  // The one-shot fired; allocation works again — even the kind that never
  // fails naturally.
  EXPECT_NO_THROW(device.Alloc<uint32_t>(16, sim::MemKind::kUnified, "c"));
  device.Free(a);
}

TEST(DeviceMemoryTest, AllocationOnALostDeviceFails) {
  sim::Device device;
  sim::FaultConfig config;
  config.lost_at = 1;
  sim::FaultInjector injector(config);
  device.SetFaultInjector(&injector);

  ASSERT_EQ(device.Launch("k", {32, 32}, [](sim::WarpCtx&) {}).status,
            sim::LaunchStatus::kDeviceLost);
  EXPECT_THROW(device.Alloc<uint32_t>(16, sim::MemKind::kDevice, "late"),
               sim::OomError);
}

namespace fault_alloc {

graph::Csr WeightedGraph() {
  graph::RmatParams params;
  params.scale = 9;
  params.num_edges = 4000;
  params.seed = 7;
  graph::Csr csr = graph::BuildCsr(graph::GenerateRmat(params));
  csr.DeriveWeights(99);
  return csr;
}

// Resident staging on a weighted graph performs exactly 12 device
// allocations (row, col, wts, labels, stamp, act_set, cursors, 5 shadow
// arrays); the per-vertex reach mask is allocated lazily by the first
// attributed multi-source query, i.e. allocation decision #13.
constexpr uint64_t kLoadAllocs = 12;

}  // namespace fault_alloc

TEST(DeviceMemoryTest, SessionLoadAllocFailureMarksSessionOom) {
  graph::Csr csr = fault_alloc::WeightedGraph();
  core::EtaGraphOptions options;
  options.faults.alloc_fail_at = 5;  // mid-staging
  core::ResidentGraph session(csr, options);
  EXPECT_TRUE(session.Oom());
  auto report = session.Run(core::Algo::kBfs, 3);
  EXPECT_TRUE(report.oom);
  EXPECT_GT(report.oom_request_bytes, 0u);
  EXPECT_TRUE(report.labels.empty());
}

TEST(DeviceMemoryTest, MidSessionAllocFailureDegradesOneQueryNotTheSession) {
  graph::Csr csr = fault_alloc::WeightedGraph();
  core::EtaGraphOptions options;
  options.faults.alloc_fail_at = fault_alloc::kLoadAllocs + 1;
  core::ResidentGraph session(csr, options);
  ASSERT_FALSE(session.Oom());

  // A plain query allocates nothing new: untouched by the pending one-shot.
  auto before = session.Run(core::Algo::kBfs, 3);
  ASSERT_FALSE(before.oom);
  EXPECT_EQ(before.labels, core::CpuReference(csr, core::Algo::kBfs, 3));

  // The first attributed multi-source query lazily allocates the reach
  // mask; the injected failure lands on exactly that allocation.
  const graph::VertexId sources[2] = {3, 9};
  auto hit = session.RunMultiSource(core::Algo::kBfs,
                                    std::span<const graph::VertexId>(sources),
                                    /*attribute_sources=*/true);
  EXPECT_TRUE(hit.oom);

  // Only that query is lost. The session stays healthy for later queries.
  EXPECT_FALSE(session.Oom());
  auto after = session.Run(core::Algo::kSssp, 9);
  ASSERT_FALSE(after.oom);
  EXPECT_EQ(after.labels, core::CpuReference(csr, core::Algo::kSssp, 9));
}

TEST(DeviceMemoryTest, MidSessionPageRankAllocFailureFreesWhatItGot) {
  graph::Csr csr = fault_alloc::WeightedGraph();
  core::EtaGraphOptions options;
  // PageRank's four per-query buffers are allocation decisions #14-#17:
  // the last one fails, after three have succeeded.
  options.faults.alloc_fail_at = fault_alloc::kLoadAllocs + 4;
  options.check.leakcheck = true;
  core::ResidentGraph session(csr, options);
  ASSERT_FALSE(session.Oom());

  auto hit = session.RunPageRank();
  EXPECT_TRUE(hit.oom);
  EXPECT_TRUE(hit.ranks.empty());

  // Only that query is lost: the next one allocates its buffers again and
  // answers in full, and a traversal still sees the resident topology.
  auto again = session.RunPageRank();
  ASSERT_FALSE(again.DeviceFailed());
  EXPECT_EQ(again.ranks, core::EtaGraph().RunPageRank(csr).ranks);
  auto after = session.Run(core::Algo::kSssp, 9);
  ASSERT_FALSE(after.oom);
  EXPECT_EQ(after.labels, core::CpuReference(csr, core::Algo::kSssp, 9));

  // The failed query freed the three buffers it got: the teardown sweep
  // finds nothing.
  session.Shutdown();
  ASSERT_NE(session.CheckReport(), nullptr);
  EXPECT_TRUE(session.CheckReport()->findings.empty()) << session.CheckReport()->Render(true);
}

TEST(DeviceMemoryTest, PageRankRetryReusesItsBuffers) {
  graph::Csr csr = fault_alloc::WeightedGraph();
  core::EtaGraphOptions options;
  // The first pr_push fails; the retry must not allocate again, so the
  // decision after PageRank's four (#18) is never drawn.
  options.faults.uecc_at = 2;
  options.faults.alloc_fail_at = fault_alloc::kLoadAllocs + 5;
  core::ResidentGraph session(csr, options);
  ASSERT_FALSE(session.Oom());

  const core::RunReport report = session.RunPageRank();
  ASSERT_FALSE(report.DeviceFailed());
  EXPECT_EQ(report.faults.ecc_uncorrectable, 1u);
  EXPECT_EQ(report.faults.retries, 1u);
  EXPECT_GT(report.faults.backoff_ms, 0.0);
  EXPECT_GT(report.query_ms, report.faults.backoff_ms);
  EXPECT_EQ(report.ranks, core::EtaGraph().RunPageRank(csr).ranks);
}

TEST(DeviceMemoryTest, ServeDegradesWhenEverySessionBuildOoms) {
  graph::Csr csr = fault_alloc::WeightedGraph();
  serve::TraceOptions trace_options;
  trace_options.num_requests = 6;
  auto trace = serve::GenerateTrace(csr.NumVertices(), trace_options);

  serve::ShardedOptions options;
  options.shards = 1;
  // Every session rebuild replays the injector schedule from scratch, so
  // staging allocation #1 fails for the initial build and every rebuild.
  options.base.graph.faults.alloc_fail_at = 1;
  options.base.max_session_rebuilds = 2;
  auto report = serve::ShardedEngine(options).Serve(csr, trace);

  EXPECT_EQ(report.completed, trace.size());
  EXPECT_EQ(report.degraded, trace.size());
  for (const serve::QueryResult& q : report.results) {
    EXPECT_EQ(q.status, serve::QueryStatus::kDegraded);
    EXPECT_EQ(q.reached_vertices,
              cpu::CountReached(core::CpuReference(csr, q.algo, q.source),
                                core::IsWidest(q.algo)));
  }
}

}  // namespace
}  // namespace eta
