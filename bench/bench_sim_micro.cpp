// Google-benchmark microbenchmarks of the simulator substrate itself —
// host-side performance of the pieces every experiment leans on (cache
// probes, coalesced vs scattered gathers, UDC transform, R-MAT generation,
// CSR construction, baseline preprocessing). These track the *simulator's*
// speed, not simulated GPU time; they exist so regressions in the hot paths
// show up.
#include <benchmark/benchmark.h>

#include <numeric>
#include <vector>

#include "baselines/cusha.hpp"
#include "baselines/tigr.hpp"
#include "core/udc.hpp"
#include "graph/builder.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "sim/cache.hpp"
#include "sim/device.hpp"
#include "util/rng.hpp"

namespace {

using namespace eta;

void BM_CacheAccess(benchmark::State& state) {
  sim::SectorCache cache(48 * util::kKiB, 4);
  util::SplitMix64 rng(1);
  uint64_t sector = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Access(sector));
    sector = rng.NextBounded(1 << 16);
  }
}
BENCHMARK(BM_CacheAccess);

// The default L2 geometry (256 sets x 8 ways) under a working set 32x its
// capacity: mostly misses, each shifting a full set.
void BM_CacheAccessL2Miss(benchmark::State& state) {
  const sim::DeviceSpec spec;
  sim::SectorCache cache(spec.l2_bytes, spec.l2_ways, spec.sector_bytes);
  util::SplitMix64 rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Access(rng.NextBounded(1 << 16)));
  }
}
BENCHMARK(BM_CacheAccessL2Miss);

// The default per-SM L1 geometry (its contention-scaled 1 KB: 8 sets x 4
// ways) under the same working set: mostly misses on a 4-way set.
void BM_CacheAccessL1Miss(benchmark::State& state) {
  const sim::DeviceSpec spec;
  sim::SectorCache cache(spec.l1_bytes / spec.l1_interleave_factor, spec.l1_ways,
                         spec.sector_bytes);
  util::SplitMix64 rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Access(rng.NextBounded(1 << 16)));
  }
}
BENCHMARK(BM_CacheAccessL1Miss);

// One warp's 32 addresses: arg 0 = contiguous 4-byte elements (4 sectors),
// arg 1 = uniformly scattered (32 sectors).
void BM_CoalesceSectors(benchmark::State& state) {
  util::SplitMix64 rng(4);
  std::vector<sim::LaneArray<uint64_t>> warps(1024);
  for (auto& lanes : warps) {
    const uint64_t base = rng.NextBounded(1 << 24) * 4;
    for (uint32_t lane = 0; lane < sim::kWarpSize; ++lane) {
      lanes[lane] = state.range(0) == 0 ? base + 4 * lane : rng.NextBounded(1 << 24) * 4;
    }
  }
  uint64_t sectors[sim::kWarpSize];
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::internal::CoalesceSectors(warps[i++ % warps.size()], sim::kFullMask, 4, sectors));
  }
}
BENCHMARK(BM_CoalesceSectors)->Arg(0)->Arg(1);

// Warp atomics: arg 0 = scattered targets (no serialization), arg 1 = every
// lane on one counter (the frontier-append cursor), arg 2 = lanes drawn from
// 6 elements of a 1,064-element (133-sector) array, the repeats a small
// serve graph's label updates produce.
void BM_AtomicMin(benchmark::State& state) {
  sim::Device device;
  auto buf = device.Alloc<uint32_t>(1 << 20, sim::MemKind::kDevice, "data");
  constexpr uint32_t kWarps = (1 << 14) / sim::kWarpSize;
  std::vector<sim::LaneArray<uint64_t>> targets(kWarps);
  util::SplitMix64 rng(5);
  for (uint32_t warp = 0; warp < kWarps; ++warp) {
    uint64_t few[6];
    for (uint64_t& f : few) f = rng.NextBounded(133 * 8);
    for (uint32_t lane = 0; lane < sim::kWarpSize; ++lane) {
      const uint64_t thread = uint64_t{warp} * sim::kWarpSize + lane;
      switch (state.range(0)) {
        case 0: targets[warp][lane] = (thread * 2654435761u) & ((1 << 20) - 1); break;
        case 1: targets[warp][lane] = 0; break;
        default: targets[warp][lane] = few[rng.NextBounded(std::size(few))]; break;
      }
    }
  }
  sim::LaneArray<uint32_t> val{};
  std::iota(val.begin(), val.end(), 0u);
  for (auto _ : state) {
    device.Launch("k", {1 << 14}, [&](sim::WarpCtx& w) {
      sim::LaneArray<uint32_t> old{};
      w.AtomicMin(buf, targets[w.WarpId()], val, w.ActiveMask(), old);
    });
  }
  state.SetItemsProcessed(state.iterations() * (1 << 14));
}
BENCHMARK(BM_AtomicMin)->Arg(0)->Arg(1)->Arg(2);

// Contiguous warp loads: arg 0 = full mask (the fully coalesced frontier
// read), arg 1 = a random partial mask per warp (a divergent tail).
void BM_GatherContiguous(benchmark::State& state) {
  sim::Device device;
  auto buf = device.Alloc<uint32_t>(1 << 20, sim::MemKind::kDevice, "data");
  std::vector<uint32_t> masks((1 << 14) / sim::kWarpSize, sim::kFullMask);
  util::SplitMix64 rng(6);
  if (state.range(0) == 1) {
    for (uint32_t& mask : masks) mask = static_cast<uint32_t>(rng.Next()) | 1u;
  }
  for (auto _ : state) {
    device.Launch("k", {1 << 14}, [&](sim::WarpCtx& w) {
      sim::LaneArray<uint32_t> out{};
      w.GatherContiguous(buf, w.WarpId() * 32, masks[w.WarpId()], out);
    });
  }
  state.SetItemsProcessed(state.iterations() * (1 << 14));
}
BENCHMARK(BM_GatherContiguous)->Arg(0)->Arg(1);

void BM_GatherScattered(benchmark::State& state) {
  sim::Device device;
  auto buf = device.Alloc<uint32_t>(1 << 20, sim::MemKind::kDevice, "data");
  for (auto _ : state) {
    device.Launch("k", {1 << 14}, [&](sim::WarpCtx& w) {
      sim::LaneArray<uint64_t> idx{};
      for (uint32_t lane = 0; lane < 32; ++lane) {
        idx[lane] = (w.GlobalThread(lane) * 2654435761u) & ((1 << 20) - 1);
      }
      sim::LaneArray<uint32_t> out{};
      w.Gather(buf, idx, w.ActiveMask(), out);
    });
  }
  state.SetItemsProcessed(state.iterations() * (1 << 14));
}
BENCHMARK(BM_GatherScattered);

void BM_GatherBulkK16(benchmark::State& state) {
  sim::Device device;
  auto buf = device.Alloc<uint32_t>(1 << 20, sim::MemKind::kDevice, "data");
  for (auto _ : state) {
    device.Launch("k", {1 << 12}, [&](sim::WarpCtx& w) {
      sim::LaneArray<uint64_t> start{};
      sim::LaneArray<uint32_t> count{};
      for (uint32_t lane = 0; lane < 32; ++lane) {
        start[lane] = (w.GlobalThread(lane) * 16) & ((1 << 20) - 1 - 16);
        count[lane] = 16;
      }
      uint32_t out[32 * 16];
      w.GatherBulk(buf, start, count, w.ActiveMask(), out, 16);
    });
  }
  state.SetItemsProcessed(state.iterations() * (1 << 12) * 16);
}
BENCHMARK(BM_GatherBulkK16);

void BM_UdcTransform(benchmark::State& state) {
  graph::RmatParams params;
  params.scale = 16;
  params.num_edges = 1 << 20;
  graph::Csr csr = graph::BuildCsr(graph::GenerateRmat(params));
  std::vector<graph::VertexId> active(csr.NumVertices());
  std::iota(active.begin(), active.end(), 0u);
  for (auto _ : state) {
    auto shadows = core::TransformActiveSet(csr, active, 16);
    benchmark::DoNotOptimize(shadows.data());
  }
  state.SetItemsProcessed(state.iterations() * csr.NumVertices());
}
BENCHMARK(BM_UdcTransform);

void BM_RmatGenerate(benchmark::State& state) {
  for (auto _ : state) {
    graph::RmatParams params;
    params.scale = 16;
    params.num_edges = 1 << 18;
    auto edges = graph::GenerateRmat(params);
    benchmark::DoNotOptimize(edges.data());
  }
  state.SetItemsProcessed(state.iterations() * (1 << 18));
}
BENCHMARK(BM_RmatGenerate);

// Input 0 is a scale-16 R-MAT list. Input 1 is the raw uk2006@0.05 web
// list (1.7M edges, duplicate-heavy hub rows) that table3_oversub builds.
// Each iteration copies the list, as BuildCsr consumes it.
void BM_BuildCsr(benchmark::State& state) {
  graph::RmatParams params;
  params.scale = 16;
  params.num_edges = 1 << 18;
  const std::vector<graph::Edge> edges = state.range(0) == 0
                                             ? graph::GenerateRmat(params)
                                             : graph::GenerateDatasetEdges("uk2006", 0.05);
  for (auto _ : state) {
    auto copy = edges;
    auto csr = graph::BuildCsr(std::move(copy));
    benchmark::DoNotOptimize(csr.NumEdges());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(edges.size()));
}
BENCHMARK(BM_BuildCsr)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Baseline preprocessing (untimed in the paper's methodology, but host
// time here): both builds are linear in |E|, so edges/s on the full-scale
// slashdot stand-in should not fall with graph size.
const graph::Csr& Slashdot() {
  static const graph::Csr csr = graph::BuildDataset("slashdot");
  return csr;
}

void BM_CushaBuildShards(benchmark::State& state) {
  const graph::Csr& csr = Slashdot();
  for (auto _ : state) {
    auto shards = baselines::Cusha::BuildShards(csr, baselines::CushaOptions{}.window_vertices);
    benchmark::DoNotOptimize(shards.src.data());
  }
  state.SetItemsProcessed(state.iterations() * csr.NumEdges());
}
BENCHMARK(BM_CushaBuildShards)->Unit(benchmark::kMillisecond);

void BM_TigrBuildVst(benchmark::State& state) {
  const graph::Csr& csr = Slashdot();
  for (auto _ : state) {
    auto vst = baselines::Tigr::BuildVst(csr, baselines::TigrOptions{}.split_degree);
    benchmark::DoNotOptimize(vst.owner.data());
  }
  state.SetItemsProcessed(state.iterations() * csr.NumEdges());
}
BENCHMARK(BM_TigrBuildVst)->Unit(benchmark::kMillisecond);

void BM_UnifiedMemoryTouch(benchmark::State& state) {
  sim::DeviceSpec spec;
  sim::UnifiedMemory um(spec);
  um.SetDeviceBudget(spec.device_memory_bytes);
  um.Register(1 << 22, 64 * util::kMiB);
  util::SplitMix64 rng(3);
  for (auto _ : state) {
    uint64_t addr = (1 << 22) + rng.NextBounded(64 * util::kMiB);
    benchmark::DoNotOptimize(um.Touch(addr, false, 0.0));
  }
}
BENCHMARK(BM_UnifiedMemoryTouch);

}  // namespace

BENCHMARK_MAIN();
