// Golden simulation fingerprint: the safety net for host-side changes to the
// simulator. Each scenario folds every simulated output it produces (labels,
// counters, simulated milliseconds, timeline spans, iteration statistics,
// migration sizes, rendered serve reports) into a 64-bit digest, and the test
// compares each digest against tests/golden/sim_fingerprint.txt. A change that
// only makes the simulator faster must leave every line identical; a change
// that alters simulated behaviour on purpose updates the golden file in the
// same diff and says why.
//
// Regenerate the golden file from a build tree with
//   ETA_UPDATE_GOLDEN=1 ./tests/sim_fingerprint_test
// Only SimFingerprintGolden.ListsEveryScenario writes the file (once, with
// every scenario), so regenerating under `ctest -j` is safe too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/cusha.hpp"
#include "baselines/gunrock.hpp"
#include "baselines/tigr.hpp"
#include "core/framework.hpp"
#include "core/pagerank.hpp"
#include "graph/datasets.hpp"
#include "prof/trace_export.hpp"
#include "serve/arrivals.hpp"
#include "serve/router.hpp"
#include "serve/trace.hpp"
#include "serve/trace_file.hpp"
#include "sim/device.hpp"
#include "util/rng.hpp"

// The build passes the source tree's golden directory; the fallback is
// relative to the repository root.
#ifndef ETA_GOLDEN_DIR
#define ETA_GOLDEN_DIR "tests/golden"
#endif

namespace eta {
namespace {

using core::Algo;
using core::RunReport;

/// FNV-1a over bit patterns, so two digests are equal only when every
/// folded value is bit-identical.
class Digest {
 public:
  void U(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 1099511628211ULL;
    }
  }
  void F(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U(bits);
  }
  void S(const std::string& s) {
    U(s.size());
    for (char ch : s) {
      hash_ ^= static_cast<unsigned char>(ch);
      hash_ *= 1099511628211ULL;
    }
  }
  uint64_t Value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

void Fold(Digest& d, const sim::Counters& c) {
  for (uint64_t v : {c.warp_instructions, c.thread_instructions, c.l1_accesses, c.l1_hits,
                     c.l2_accesses, c.l2_hits, c.dram_read_transactions,
                     c.dram_write_transactions, c.shared_accesses, c.atomic_operations,
                     c.mem_latency_cycles, c.launches}) {
    d.U(v);
  }
  d.F(c.elapsed_cycles);
}

void Fold(Digest& d, const sim::Timeline& t) {
  d.U(t.Spans().size());
  for (const sim::Span& s : t.Spans()) {
    d.U(static_cast<uint64_t>(s.kind));
    d.F(s.start_ms);
    d.F(s.end_ms);
    d.S(s.label);
  }
}

void Fold(Digest& d, const RunReport& r) {
  d.U(r.oom);
  d.U(r.oom_request_bytes);
  if (r.oom) return;
  for (uint64_t v : {r.faults.ecc_corrected, r.faults.ecc_uncorrectable, r.faults.hangs,
                     r.faults.launch_failures, r.faults.retries, r.faults.restaged_buffers,
                     r.faults.restaged_bytes}) {
    d.U(v);
  }
  d.F(r.faults.backoff_ms);
  d.U(r.faults.device_lost);
  d.U(r.faults.exhausted);
  for (double v : {r.kernel_ms, r.total_ms, r.query_ms}) d.F(v);
  d.U(r.iterations);
  d.U(r.activated);
  for (uint64_t v : r.per_source_reached) d.U(v);
  for (const core::IterationStat& it : r.iteration_stats) {
    d.U(it.active_vertices);
    d.U(it.shadow_vertices);
    d.U(it.activated_cum);
    d.F(it.end_ms);
  }
  Fold(d, r.counters);
  Fold(d, r.query_counters);
  Fold(d, r.timeline);
  for (uint64_t v : r.migration_sizes) d.U(v);
  d.U(r.migrated_bytes);
  d.U(r.device_bytes_peak);
  d.U(r.check.ErrorCount());
  d.U(r.check.WarningCount());
  for (graph::Weight w : r.labels) d.U(w);
}

void Fold(Digest& d, const serve::ServeReport& r) {
  d.S(serve::RenderReplayText(r.results));
  d.S(r.Render("fingerprint"));
  d.S(r.Json());
  d.S(r.metrics.RenderPrometheus());
  for (const serve::QueryResult& q : r.results) {
    d.F(q.arrival_ms);
    d.F(q.start_ms);
    d.F(q.finish_ms);
  }
}

/// Folds what a fleet replay renders beyond its report: the Chrome trace
/// of its profiling spans, the etaverify findings, the flight-recorder
/// dumps and the per-request span trees.
void FoldArtifacts(Digest& d, const serve::ServeReport& r) {
  d.S(prof::RenderChromeTrace(r.trace_spans));
  d.S(r.verify.Render(/*verbose=*/true));
  d.S(r.verify.Json());
  d.U(r.verify.ops_checked);
  d.S(r.RenderBlackbox());
  d.S(r.RenderRequestTraceJson());
}

const graph::Csr& Dataset(const std::string& name, double scale) {
  static std::map<std::pair<std::string, double>, graph::Csr> built;
  auto it = built.find({name, scale});
  if (it == built.end()) {
    graph::Csr csr = graph::BuildDataset(name, scale);
    if (!csr.HasWeights()) csr.DeriveWeights(1);
    it = built.emplace(std::make_pair(name, scale), std::move(csr)).first;
  }
  return it->second;
}

/// Stand-in scales: small enough for tier-1, large enough that every
/// dataset runs several iterations and misses in the L2.
double Scale(const std::string& dataset) { return dataset == "slashdot" ? 0.01 : 0.004; }
constexpr double kServeScale = 0.002;
constexpr Algo kTraversals[] = {Algo::kBfs, Algo::kSssp, Algo::kSswp};

/// Direct device-level scenario: every warp memory operation over device,
/// unified and host-staged buffers, with random (duplicate-heavy) lane
/// patterns, on a device small enough that unified memory oversubscribes and
/// evicts (flushing the caches).
uint64_t MemoryPathScenario() {
  sim::DeviceSpec spec;
  spec.device_memory_bytes = 2 * util::kMiB;
  sim::Device device(spec);
  constexpr uint64_t kElems = 1 << 20;  // 4 MiB per unified buffer
  auto dev = device.Alloc<uint32_t>(1 << 16, sim::MemKind::kDevice, "dev");
  auto um = device.Alloc<uint32_t>(kElems, sim::MemKind::kUnified, "um");
  auto um64 = device.Alloc<uint64_t>(kElems / 2, sim::MemKind::kUnified, "um64");
  auto staged = device.Alloc<uint32_t>(1 << 16, sim::MemKind::kHostStaged, "staged");
  device.MarkHostInitialized(um);
  device.MarkHostInitialized(um64);
  device.MarkHostInitialized(staged);
  Digest d;
  for (uint32_t round = 0; round < 4; ++round) {
    if (round == 2) device.PrefetchAsync(um);
    auto result = device.Launch("mem", {1 << 13}, [&](sim::WarpCtx& w) {
      util::SplitMix64 rng = util::SplitMix64::Stream(round, w.WarpId());
      const uint32_t mask = w.ActiveMask() & static_cast<uint32_t>(rng.Next() | 1);
      // Lane patterns: contiguous, strided, uniform random, and few-distinct.
      const uint32_t pattern = static_cast<uint32_t>(rng.NextBounded(4));
      const uint64_t base = rng.NextBounded(kElems - 4096);
      sim::LaneArray<uint64_t> idx{};
      for (uint32_t lane = 0; lane < sim::kWarpSize; ++lane) {
        switch (pattern) {
          case 0: idx[lane] = base + lane; break;
          case 1: idx[lane] = base + 37 * lane; break;
          case 2: idx[lane] = rng.NextBounded(kElems); break;
          default: idx[lane] = base + rng.NextBounded(3); break;
        }
      }
      sim::LaneArray<uint64_t> small{};
      for (uint32_t lane = 0; lane < sim::kWarpSize; ++lane) small[lane] = idx[lane] & 0xffff;
      sim::LaneArray<uint32_t> v32{};
      sim::LaneArray<uint32_t> old32{};
      sim::LaneArray<uint64_t> v64{};
      sim::LaneArray<uint64_t> old64{};
      for (uint32_t lane = 0; lane < sim::kWarpSize; ++lane) {
        v32[lane] = static_cast<uint32_t>(rng.Next());
        v64[lane] = 1ull << lane;
      }
      w.Gather(um, idx, mask, old32);
      w.Gather(dev, small, mask, old32);
      w.Gather(staged, small, mask, old32);
      w.Scatter(um, idx, v32, mask);
      w.ScatterRelaxed(dev, small, v32, mask);
      w.AtomicMin(um, idx, v32, mask, old32);
      w.AtomicMax(dev, small, v32, mask, old32);
      w.AtomicAdd(staged, small, v32, mask, old32);
      sim::LaneArray<uint64_t> half{};
      for (uint32_t lane = 0; lane < sim::kWarpSize; ++lane) half[lane] = idx[lane] / 2;
      w.AtomicOr(um64, half, v64, mask, old64);
      sim::LaneArray<uint64_t> start{};
      sim::LaneArray<uint32_t> count{};
      for (uint32_t lane = 0; lane < sim::kWarpSize; ++lane) {
        start[lane] = std::min<uint64_t>(idx[lane], kElems - 40);
        count[lane] = static_cast<uint32_t>(rng.NextBounded(40));
      }
      uint32_t out[sim::kWarpSize * 40];
      w.GatherBulk(um, start, count, mask, out, 40);
      w.ChargeAlu(3, mask);
      for (uint32_t lane = 0; lane < sim::kWarpSize; ++lane) {
        d.U(old32[lane]);
        d.U(old64[lane]);
      }
    });
    Fold(d, result.counters);
    d.F(result.start_ms);
    d.F(result.end_ms);
    d.F(result.compute_ms);
    d.U(result.migrated_bytes);
    d.U(result.fault_ops);
  }
  EXPECT_GT(device.Um().TotalEvictedBytes(), 0u) << "scenario must oversubscribe";
  d.U(device.Um().TotalMigratedBytes());
  d.U(device.Um().TotalEvictedBytes());
  d.U(device.Um().ResidentBytes());
  for (uint64_t v : device.Um().MigrationSizes().Values()) d.U(v);
  Fold(d, device.TotalCounters());
  Fold(d, device.GetTimeline());
  for (uint32_t v : um.HostSpan()) d.U(v);
  for (uint64_t v : um64.HostSpan()) d.U(v);
  for (uint32_t v : dev.HostSpan()) d.U(v);
  for (uint32_t v : staged.HostSpan()) d.U(v);
  return d.Value();
}

/// Table III frameworks x BFS/SSSP/SSWP on one dataset and device size.
uint64_t FrameworkScenario(const std::string& fw, const std::string& dataset,
                           uint64_t device_bytes) {
  const graph::Csr& csr = Dataset(dataset, Scale(dataset));
  sim::DeviceSpec spec;
  spec.device_memory_bytes = device_bytes;
  Digest d;
  for (Algo algo : kTraversals) {
    RunReport r;
    if (fw == "cusha") {
      r = baselines::Cusha({.spec = spec}).Run(csr, algo, graph::kQuerySource);
    } else if (fw == "gunrock") {
      r = baselines::Gunrock({.spec = spec}).Run(csr, algo, graph::kQuerySource);
    } else if (fw == "tigr") {
      r = baselines::Tigr({.spec = spec}).Run(csr, algo, graph::kQuerySource);
    } else {
      core::EtaGraphOptions options;
      options.spec = spec;
      options.profile = true;
      if (fw == "eta-ondemand") options.memory_mode = core::MemoryMode::kUnifiedOnDemand;
      if (fw == "eta-explicit") options.memory_mode = core::MemoryMode::kExplicitCopy;
      if (fw == "eta-chunked") options.memory_mode = core::MemoryMode::kChunkedStream;
      if (fw == "eta-nosmp") options.use_smp = false;
      r = core::EtaGraph(options).Run(csr, algo, graph::kQuerySource);
      for (const sim::KernelProfile& p : r.kernel_profiles) {
        d.S(p.name);
        d.F(p.start_ms);
        d.F(p.end_ms);
        Fold(d, p.counters);
      }
    }
    Fold(d, r);
  }
  return d.Value();
}

uint64_t ExtensionScenario(const std::string& what, const std::string& dataset) {
  const graph::Csr& csr = Dataset(dataset, Scale(dataset));
  Digest d;
  if (what == "cc") {
    Fold(d, core::EtaGraph().RunConnectedComponents(csr));
  } else if (what == "pagerank") {
    const RunReport r = core::EtaGraph().RunPageRank(csr);
    Fold(d, r);
    for (float rank : r.ranks) d.F(rank);
  } else if (what == "pagerank-ranks") {
    // The answer alone, so a change to how PageRank is staged or scheduled
    // can prove it left the ranks bit-identical.
    const RunReport r = core::EtaGraph().RunPageRank(csr);
    d.U(r.iterations);
    for (float rank : r.ranks) d.F(rank);
  } else if (what == "hybrid-bfs") {
    const RunReport r = core::EtaGraph().RunHybridBfs(csr, graph::kQuerySource);
    Fold(d, r);
    d.U(r.bottom_up_iterations);
  } else if (what == "hybrid-bfs-levels") {
    // The answer alone, like pagerank-ranks: a change to how hybrid BFS is
    // staged or scheduled proves it left the levels bit-identical.
    const RunReport r = core::EtaGraph().RunHybridBfs(csr, graph::kQuerySource);
    d.U(r.iterations);
    d.U(r.bottom_up_iterations);
    for (graph::Weight w : r.labels) d.U(w);
  } else if (what == "multisource") {
    std::vector<graph::VertexId> sources;
    for (graph::VertexId v = 0; v < 24; ++v) sources.push_back(v * 7 % csr.NumVertices());
    for (Algo algo : kTraversals) {
      Fold(d, core::EtaGraph().RunMultiSource(csr, algo, sources, /*attribute_sources=*/true));
    }
  } else if (what == "faults") {
    core::EtaGraphOptions options;
    options.faults.seed = 5;
    options.faults.ecc_correctable_rate = 0.05;
    options.faults.ecc_uncorrectable_rate = 0.05;
    options.faults.hang_rate = 0.05;
    options.faults.watchdog_ms = 1.0;
    options.trace_requests = true;
    uint64_t failures = 0;
    for (Algo algo : kTraversals) {
      const RunReport r = core::EtaGraph(options).Run(csr, algo, 0);
      failures += r.faults.launch_failures;
      Fold(d, r);
    }
    EXPECT_GT(failures, 0u) << "scenario must inject faults";
  } else if (what == "check") {
    core::EtaGraphOptions options;
    options.check.memcheck = true;
    options.check.racecheck = true;
    options.check.synccheck = true;
    options.check.leakcheck = true;
    for (Algo algo : kTraversals) Fold(d, core::EtaGraph(options).Run(csr, algo, 0));
  }
  return d.Value();
}

uint64_t ServeScenario(const std::string& what) {
  const graph::Csr& social = Dataset("slashdot", kServeScale);
  Digest d;
  serve::TraceOptions trace_options;
  trace_options.num_requests = 64;
  trace_options.mean_interarrival_ms = 0.02;
  trace_options.seed = 3;
  const std::vector<serve::Request> trace =
      serve::GenerateTrace(social.NumVertices(), trace_options);
  if (what == "session" || what == "batched") {
    serve::ShardedOptions options;
    options.shards = 1;
    options.base.queue_capacity = trace.size();
    if (what == "session") options.base.max_batch = 1;
    Fold(d, serve::ShardedEngine(options).Serve(social, trace));
  } else if (what == "sharded-faults") {
    serve::ShardedOptions options;
    options.shards = 2;
    options.base.queue_capacity = trace.size();
    options.base.graph.faults.seed = 11;
    options.base.graph.faults.ecc_uncorrectable_rate = 0.02;
    options.base.graph.faults.hang_rate = 0.02;
    options.base.graph.faults.watchdog_ms = 1.0;
    Fold(d, serve::ShardedEngine(options).Serve(social, trace));
  } else if (what == "async-catalog") {
    std::vector<const graph::Csr*> graphs = {&social, &Dataset("uk2005", kServeScale),
                                             &Dataset("livejournal", kServeScale)};
    std::vector<serve::Request> mixed = trace;
    for (size_t i = 0; i < mixed.size(); ++i) {
      mixed[i].graph_id = static_cast<uint32_t>(i % graphs.size());
      mixed[i].source %= graphs[mixed[i].graph_id]->NumVertices();
    }
    serve::ShardedOptions options;
    options.shards = 1;
    options.async_dispatch = true;
    options.base.queue_capacity = mixed.size();
    options.device_mem_budget_bytes =
        core::ResidentGraph::EstimateDeviceBytes(*graphs[1], {}, true) +
        core::ResidentGraph::EstimateDeviceBytes(*graphs[2], {}, true);
    Fold(d, serve::ShardedEngine(options).ServeMany(graphs, mixed));
  } else if (what == "overload") {
    serve::ArrivalOptions arrivals;
    arrivals.profile = serve::ArrivalProfile::kPoisson;
    arrivals.rate_qps = 40000;
    arrivals.num_requests = 128;
    arrivals.gold_fraction = 0.2;
    arrivals.silver_fraction = 0.3;
    arrivals.cc_fraction = 0.05;
    arrivals.pr_fraction = 0.02;
    arrivals.seed = 7;
    serve::ShardedOptions options;
    options.shards = 2;
    options.base.queue_capacity = 32;
    options.base.overload.slo_admission = true;
    options.base.overload.brownout_bronze_backlog_ms = 1;
    options.base.overload.shed_bronze_backlog_ms = 2;
    options.base.edf = true;
    options.base.memo_window_ms = 5;
    options.base.graph.trace_requests = true;
    Fold(d, serve::ShardedEngine(options).Serve(
                social, serve::GenerateArrivals(social.NumVertices(), arrivals)));
  } else if (what == "recovery") {
    // Every recovery path at once: rebuilds under a retry budget that runs
    // dry, breaker opens, a shard dying, the CPU fallback, rejects against
    // a small queue, deadline expiry and autoscaling, all profiled and
    // traced.
    serve::TraceOptions faulted = trace_options;
    faulted.num_requests = 160;
    faulted.mean_interarrival_ms = 0.02;
    faulted.deadline_ms = 0.3;
    serve::ShardedOptions options;
    options.shards = 3;
    options.base.queue_capacity = 3;
    options.base.graph.faults.seed = 5;
    options.base.graph.faults.ecc_uncorrectable_rate = 0.04;
    options.base.graph.faults.hang_rate = 0.04;
    options.base.graph.faults.device_loss_rate = 0.03;
    options.base.max_session_rebuilds = 1;
    options.base.graph.faults.watchdog_ms = 1.0;
    options.base.overload.breaker_cooldown_ms = 0.5;
    options.base.overload.retry_tokens_per_s = 200;
    options.base.overload.retry_burst = 3;
    options.autoscale = {.min_shards = 1, .backlog_ms = 0.05};
    options.base.graph.profile = true;
    options.base.graph.trace_requests = true;
    const serve::ServeReport r = serve::ShardedEngine(options).Serve(
        social, serve::GenerateTrace(social.NumVertices(), faulted));
    EXPECT_GT(r.session_rebuilds, 0u);
    EXPECT_GT(r.overload.breaker_opens, 0u);
    EXPECT_GT(r.overload.rebuild_denied, 0u);
    EXPECT_FALSE(r.scale_events.empty());
    EXPECT_TRUE(std::any_of(r.shard_stats.begin(), r.shard_stats.end(),
                            [](const serve::ShardStat& s) { return s.dead; }));
    EXPECT_GT(r.degraded, 0u);
    EXPECT_GT(r.rejected, 0u);
    EXPECT_GT(r.timed_out, 0u);
    EXPECT_FALSE(r.blackbox.empty());
    EXPECT_FALSE(r.trace_spans.empty());
    Fold(d, r);
    FoldArtifacts(d, r);
  } else if (what == "async-verify") {
    std::vector<const graph::Csr*> graphs = {&social, &Dataset("uk2005", kServeScale),
                                             &Dataset("livejournal", kServeScale)};
    uint32_t min_vertices = social.NumVertices();
    for (const graph::Csr* g : graphs) min_vertices = std::min(min_vertices, g->NumVertices());
    serve::ArrivalOptions arrivals;
    arrivals.profile = serve::ArrivalProfile::kPoisson;
    arrivals.rate_qps = 40000;
    arrivals.num_requests = 128;
    arrivals.num_graphs = static_cast<uint32_t>(graphs.size());
    arrivals.gold_fraction = 0.2;
    arrivals.silver_fraction = 0.3;
    arrivals.cc_fraction = 0.15;
    arrivals.pr_fraction = 0.05;
    arrivals.seed = 7;
    serve::ShardedOptions options;
    options.shards = 2;
    options.async_dispatch = true;
    options.device_mem_budget_bytes =
        core::ResidentGraph::EstimateDeviceBytes(*graphs[1], {}, true) +
        core::ResidentGraph::EstimateDeviceBytes(*graphs[2], {}, true);
    options.base.queue_capacity = 24;
    options.base.graph.verify_dag = true;
    options.base.graph.profile = true;
    options.base.overload.slo_admission = true;
    options.base.overload.silver_slo_ms = 1.5;
    options.base.overload.shed_bronze_backlog_ms = 1;
    options.base.overload.shed_silver_backlog_ms = 3;
    options.base.overload.brownout_bronze_backlog_ms = 2;
    options.base.overload.brownout_silver_backlog_ms = 4;
    options.base.edf = true;
    options.base.memo_window_ms = 5;
    const serve::ServeReport r = serve::ShardedEngine(options).ServeMany(
        graphs, serve::GenerateArrivals(min_vertices, arrivals));
    EXPECT_GT(r.verify.ops_checked, 0u);
    EXPECT_TRUE(r.verify.Clean());
    uint64_t prestages = 0;
    for (const serve::ShardStat& s : r.shard_stats) prestages += s.prestages;
    EXPECT_GT(prestages, 0u);
    EXPECT_GT(r.memo_hits, 0u);
    EXPECT_GT(r.shedded, 0u);
    EXPECT_GT(r.overload.brownout_degraded, 0u);
    Fold(d, r);
    FoldArtifacts(d, r);
  }
  return d.Value();
}

/// Every scenario by its golden-file name, in file order.
std::vector<std::pair<std::string, std::function<uint64_t()>>> Scenarios() {
  std::vector<std::pair<std::string, std::function<uint64_t()>>> out;
  out.emplace_back("sim/memory-path", MemoryPathScenario);
  for (const char* dataset : {"slashdot", "uk2005"}) {
    for (const char* fw : {"cusha", "gunrock", "tigr", "eta", "eta-ondemand", "eta-explicit",
                           "eta-chunked", "eta-nosmp"}) {
      out.emplace_back(std::string("table3/") + dataset + "/" + fw, [=] {
        return FrameworkScenario(fw, dataset, sim::DeviceSpec{}.device_memory_bytes);
      });
    }
    for (const char* what : {"cc", "pagerank", "pagerank-ranks", "hybrid-bfs",
                             "hybrid-bfs-levels", "multisource", "faults", "check"}) {
      out.emplace_back(std::string("ext/") + dataset + "/" + what,
                       [=] { return ExtensionScenario(what, dataset); });
    }
  }
  // uk2006 in a device it oversubscribes: baselines O.O.M, UM evicts.
  for (const char* fw : {"cusha", "eta", "eta-ondemand"}) {
    out.emplace_back(std::string("oversub/uk2006/") + fw,
                     [=] { return FrameworkScenario(fw, "uk2006", util::kMiB / 2); });
  }
  for (const char* what : {"session", "batched"}) {
    out.emplace_back(std::string("serve/") + what, [=] { return ServeScenario(what); });
  }
  for (const char* what : {"sharded-faults", "async-catalog", "overload", "recovery",
                           "async-verify"}) {
    out.emplace_back(std::string("fleet/") + what, [=] { return ServeScenario(what); });
  }
  return out;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

const std::string kGoldenPath = ETA_GOLDEN_DIR "/sim_fingerprint.txt";

/// Golden digests by scenario name; empty when the file is missing.
std::map<std::string, std::string> ReadGolden() {
  std::map<std::string, std::string> golden;
  std::ifstream in(kGoldenPath);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, hex;
    fields >> name >> hex;
    golden[name] = hex;
  }
  return golden;
}

void WriteGolden(const std::map<std::string, std::string>& golden) {
  std::ofstream out(kGoldenPath);
  out << "# Simulated-output fingerprint per scenario (tests/sim_fingerprint_test.cpp).\n"
      << "# Regenerate only for an intended change in simulated behaviour:\n"
      << "#   ETA_UPDATE_GOLDEN=1 ./tests/sim_fingerprint_test\n";
  for (const auto& [name, run] : Scenarios()) {
    auto it = golden.find(name);
    if (it != golden.end()) out << name << " " << it->second << "\n";
  }
  ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
}

/// One test per scenario group (the name up to the first '/'), so the
/// groups run in parallel under ctest.
class SimFingerprint : public ::testing::TestWithParam<std::string> {};

TEST_P(SimFingerprint, MatchesGolden) {
  const std::string prefix = GetParam() + "/";
  std::map<std::string, std::string> golden = ReadGolden();
  std::map<std::string, std::string> actual;
  for (const auto& [name, run] : Scenarios()) {
    if (name.rfind(prefix, 0) == 0) actual[name] = Hex(run());
  }
  ASSERT_FALSE(actual.empty()) << "no scenarios in group " << GetParam();

  if (std::getenv("ETA_UPDATE_GOLDEN") != nullptr) {
    GTEST_SKIP() << "golden file is being rewritten by SimFingerprintGolden";
  }

  for (const auto& [name, hex] : actual) {
    auto it = golden.find(name);
    if (it == golden.end()) {
      ADD_FAILURE() << "no golden entry for scenario " << name << " (" << hex << ")";
    } else {
      EXPECT_EQ(it->second, hex) << "simulated output changed in scenario " << name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Groups, SimFingerprint,
                         ::testing::Values("sim", "table3", "ext", "oversub", "serve", "fleet"),
                         [](const ::testing::TestParamInfo<std::string>& group) {
                           return group.param;
                         });

/// The golden file names exactly the scenarios above. With ETA_UPDATE_GOLDEN
/// set, this is the one test that regenerates it: it runs every scenario and
/// writes the whole file in one go.
TEST(SimFingerprintGolden, ListsEveryScenario) {
  std::map<std::string, std::string> golden;
  if (std::getenv("ETA_UPDATE_GOLDEN") != nullptr) {
    for (const auto& [name, run] : Scenarios()) golden[name] = Hex(run());
    WriteGolden(golden);
    return;
  }
  golden = ReadGolden();
  std::vector<std::string> expected;
  for (const auto& [name, run] : Scenarios()) expected.push_back(name);
  std::sort(expected.begin(), expected.end());
  std::vector<std::string> listed;
  for (const auto& [name, hex] : golden) listed.push_back(name);
  EXPECT_EQ(listed, expected) << "stale or missing entries in " << kGoldenPath;
}

}  // namespace
}  // namespace eta
