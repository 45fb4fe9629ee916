// Fault injection and recovery tests (DESIGN.md section 8): config parsing,
// deterministic device-level fault fates, the zero-cost armed-but-silent
// contract, ResidentGraph retry/re-stage recovery per fault class, and the
// serving fleet's quarantine/rebuild/degrade ladder on one shard — every
// completed request CPU-verified, every replay bit-reproducible.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "core/pagerank.hpp"
#include "core/retry_budget.hpp"
#include "core/traversal.hpp"
#include "cpu/reference.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "serve/router.hpp"
#include "serve/session.hpp"
#include "serve/trace.hpp"
#include "sim/device.hpp"
#include "sim/fault.hpp"

namespace eta {
namespace {

using sim::FaultConfig;
using sim::FaultInjector;
using sim::LaunchStatus;

graph::Csr SmallSocialGraph(uint64_t seed = 7) {
  graph::RmatParams params;
  params.scale = 9;
  params.num_edges = 4000;
  params.seed = seed;
  graph::Csr csr = graph::BuildCsr(graph::GenerateRmat(params));
  csr.DeriveWeights(99);
  return csr;
}

uint64_t CpuReached(const graph::Csr& csr, core::Algo algo, graph::VertexId source) {
  return cpu::CountReached(core::CpuReference(csr, algo, source),
                           core::IsWidest(algo));
}

/// Replays `trace` on a one-shard fleet — the plain single-device server.
serve::ServeReport ServeOneShard(const serve::ServeOptions& options,
                                 const graph::Csr& csr,
                                 const std::vector<serve::Request>& trace) {
  serve::ShardedOptions fleet;
  fleet.base = options;
  fleet.shards = 1;
  return serve::ShardedEngine(fleet).Serve(csr, trace);
}

bool SimIdentical(const core::RunReport& a, const core::RunReport& b) {
  return a.total_ms == b.total_ms && a.kernel_ms == b.kernel_ms &&
         a.iterations == b.iterations && a.labels == b.labels &&
         a.counters.warp_instructions == b.counters.warp_instructions &&
         a.counters.elapsed_cycles == b.counters.elapsed_cycles &&
         a.counters.dram_read_transactions == b.counters.dram_read_transactions &&
         a.counters.atomic_operations == b.counters.atomic_operations;
}

// --- FaultConfig parsing ------------------------------------------------------

TEST(FaultConfig, ParsesFullSpec) {
  std::string error;
  auto c = FaultConfig::Parse(
      "seed=7,ecc=0.5,uecc=0.25,hang=0.125,lost=0.0625,alloc=0.03125,"
      "watchdog=40,words=8,uecc_at=3,alloc_at=2",
      &error);
  ASSERT_TRUE(c.has_value()) << error;
  EXPECT_EQ(c->seed, 7u);
  EXPECT_DOUBLE_EQ(c->ecc_correctable_rate, 0.5);
  EXPECT_DOUBLE_EQ(c->ecc_uncorrectable_rate, 0.25);
  EXPECT_DOUBLE_EQ(c->hang_rate, 0.125);
  EXPECT_DOUBLE_EQ(c->device_loss_rate, 0.0625);
  EXPECT_DOUBLE_EQ(c->alloc_fail_rate, 0.03125);
  EXPECT_DOUBLE_EQ(c->watchdog_ms, 40.0);
  EXPECT_EQ(c->corrupt_words, 8u);
  EXPECT_EQ(c->uecc_at, 3u);
  EXPECT_EQ(c->alloc_fail_at, 2u);
  EXPECT_TRUE(c->Enabled());
}

TEST(FaultConfig, RejectsBadSpecs) {
  std::string error;
  EXPECT_FALSE(FaultConfig::Parse("bogus=1", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(FaultConfig::Parse("uecc=1.5", &error).has_value());
  EXPECT_FALSE(FaultConfig::Parse("hang=-0.1", &error).has_value());
  EXPECT_FALSE(FaultConfig::Parse("seed=", &error).has_value());
  EXPECT_FALSE(FaultConfig{}.Enabled());
}

TEST(FaultConfig, ParsesPlantKeysWithoutEnablingFaults) {
  std::string error;
  auto c = FaultConfig::Parse("rmw=reach_mask,short=act_set,dag=late-record", &error);
  ASSERT_TRUE(c.has_value()) << error;
  EXPECT_EQ(c->rmw_buffer, "reach_mask");
  EXPECT_EQ(c->short_buffer, "act_set");
  EXPECT_EQ(c->dag, FaultConfig::Dag::kLateRecord);
  EXPECT_TRUE(c->Planted());
  EXPECT_FALSE(c->Enabled());
  EXPECT_EQ(FaultConfig::Parse("dag=drop-wait", &error)->dag, FaultConfig::Dag::kDropWait);
  EXPECT_EQ(FaultConfig::Parse("dag=dup-copy", &error)->dag, FaultConfig::Dag::kDupCopy);
  // Plants ride along with hardware faults without changing them.
  auto both = FaultConfig::Parse("uecc=0.5,rmw=stamp", &error);
  ASSERT_TRUE(both.has_value()) << error;
  EXPECT_TRUE(both->Enabled());
  EXPECT_DOUBLE_EQ(both->ecc_uncorrectable_rate, 0.5);
  EXPECT_FALSE(FaultConfig{}.Planted());
}

TEST(FaultConfig, RejectsBadPlantsNamingTheKey) {
  std::string error;
  EXPECT_FALSE(FaultConfig::Parse("rmw=", &error).has_value());
  EXPECT_EQ(error, "--faults key 'rmw' needs a buffer name");
  EXPECT_FALSE(FaultConfig::Parse("short=,seed=1", &error).has_value());
  EXPECT_EQ(error, "--faults key 'short' needs a buffer name");
  EXPECT_FALSE(FaultConfig::Parse("dag=swap", &error).has_value());
  EXPECT_EQ(error, "--faults key 'dag' must be drop-wait, late-record or dup-copy (got 'swap')");
  EXPECT_FALSE(FaultConfig::Parse("dag=", &error).has_value());
  EXPECT_NE(error.find("'dag'"), std::string::npos);
}

// A planted run is a fault-free run: no injector is attached, so every
// FaultStats field stays zero while the plants themselves fire.
TEST(FaultConfig, PlantedSessionReportsAllZeroFaultStats) {
  std::vector<graph::Edge> edges{{0, 2}, {0, 3}, {1, 2}, {1, 3}};
  graph::BuildOptions build;
  build.min_vertices = 4;
  const graph::Csr csr = graph::BuildCsr(edges, build);
  core::EtaGraphOptions options;
  std::string error;
  options.faults = *FaultConfig::Parse("rmw=reach_mask,short=act_set", &error);
  core::ResidentGraph session(csr, options);
  const graph::VertexId sources[] = {0, 1};
  const core::RunReport report =
      session.RunMultiSource(core::Algo::kBfs, sources, /*attribute_sources=*/true);
  ASSERT_FALSE(report.oom);
  const core::FaultStats& f = report.faults;
  EXPECT_EQ(f.ecc_corrected, 0u);
  EXPECT_EQ(f.ecc_uncorrectable, 0u);
  EXPECT_EQ(f.hangs, 0u);
  EXPECT_EQ(f.launch_failures, 0u);
  EXPECT_EQ(f.retries, 0u);
  EXPECT_EQ(f.restaged_buffers, 0u);
  EXPECT_EQ(f.restaged_bytes, 0u);
  EXPECT_EQ(f.backoff_ms, 0.0);
  EXPECT_FALSE(f.device_lost);
  EXPECT_FALSE(f.exhausted);
}

// --- Injector determinism -----------------------------------------------------

TEST(FaultInjector, SameSeedSameSchedule) {
  FaultConfig config;
  config.seed = 42;
  config.ecc_uncorrectable_rate = 0.2;
  config.hang_rate = 0.2;
  FaultInjector a(config);
  FaultInjector b(config);
  for (int i = 0; i < 200; ++i) {
    sim::LaunchFault fa = a.NextLaunch();
    sim::LaunchFault fb = b.NextLaunch();
    EXPECT_EQ(fa.status, fb.status);
    EXPECT_EQ(fa.victim_entropy, fb.victim_entropy);
  }
  EXPECT_EQ(a.LaunchesDecided(), 200u);
}

TEST(FaultInjector, RateChangeInOneClassDoesNotShiftAnother) {
  // Each decision consumes a fixed number of draws, so cranking the hang
  // rate must not move *which* launches draw a device loss.
  FaultConfig base;
  base.seed = 5;
  base.device_loss_rate = 0.05;
  FaultConfig noisy = base;
  noisy.hang_rate = 0.0;  // identical
  FaultConfig cranked = base;
  cranked.ecc_correctable_rate = 0.9;  // very different ECC schedule

  FaultInjector a(noisy);
  FaultInjector b(cranked);
  std::vector<int> loss_a, loss_b;
  for (int i = 0; i < 500; ++i) {
    // Loss outranks hang/ECC in severity, so a loss decision is visible
    // regardless of what else fired.
    if (a.NextLaunch().status == LaunchStatus::kDeviceLost) loss_a.push_back(i);
    if (b.NextLaunch().status == LaunchStatus::kDeviceLost) loss_b.push_back(i);
  }
  ASSERT_FALSE(loss_a.empty());
  EXPECT_EQ(loss_a, loss_b);
}

// --- Device-level fates -------------------------------------------------------

TEST(DeviceFaults, ScriptedHangChargesWatchdogAndAborts) {
  sim::Device device;
  FaultConfig config;
  config.hang_at = 2;
  config.watchdog_ms = 12.5;
  FaultInjector injector(config);
  device.SetFaultInjector(&injector);

  auto ok = device.Launch("k1", {64, 64}, [&](sim::WarpCtx&) {});
  EXPECT_EQ(ok.status, LaunchStatus::kOk);
  double before = device.NowMs();
  auto hung = device.Launch("k2", {64, 64}, [&](sim::WarpCtx&) {});
  EXPECT_EQ(hung.status, LaunchStatus::kKernelTimeout);
  EXPECT_FALSE(hung.Ok());
  // The watchdog interval is charged to the simulated clock.
  EXPECT_DOUBLE_EQ(device.NowMs() - before, 12.5);
  // The device survives: the next launch is healthy.
  EXPECT_TRUE(device.Launch("k3", {64, 64}, [&](sim::WarpCtx&) {}).Ok());
}

TEST(DeviceFaults, ScriptedUeccCorruptsALiveBuffer) {
  sim::Device device;
  FaultConfig config;
  config.uecc_at = 1;
  FaultInjector injector(config);
  device.SetFaultInjector(&injector);

  auto buf = device.Alloc<uint32_t>(64, sim::MemKind::kDevice, "victim");
  std::vector<uint32_t> init(64, 0xabcd1234u);
  device.CopyToDevice(buf, std::span<const uint32_t>(init));

  auto r = device.Launch("k", {64, 64}, [&](sim::WarpCtx&) { FAIL(); });
  EXPECT_EQ(r.status, LaunchStatus::kEccUncorrectable);
  EXPECT_EQ(r.fault_buffer, "victim");

  std::vector<uint32_t> host(64);
  device.CopyToHost(std::span<uint32_t>(host), buf);
  uint32_t flipped = 0;
  for (uint32_t w : host) flipped += w != 0xabcd1234u ? 1 : 0;
  EXPECT_GT(flipped, 0u);  // real corruption, not just a flag
  EXPECT_LE(flipped, config.corrupt_words);
}

TEST(DeviceFaults, DeviceLossIsSticky) {
  sim::Device device;
  FaultConfig config;
  config.lost_at = 1;
  FaultInjector injector(config);
  device.SetFaultInjector(&injector);

  EXPECT_EQ(device.Launch("k1", {32, 32}, [&](sim::WarpCtx&) { FAIL(); }).status,
            LaunchStatus::kDeviceLost);
  EXPECT_TRUE(device.Lost());
  // Every later launch fails instantly without advancing the clock.
  double t = device.NowMs();
  EXPECT_EQ(device.Launch("k2", {32, 32}, [&](sim::WarpCtx&) { FAIL(); }).status,
            LaunchStatus::kDeviceLost);
  EXPECT_DOUBLE_EQ(device.NowMs(), t);
}

TEST(DeviceFaults, ScriptedAllocFailureThrowsOom) {
  sim::Device device;
  FaultConfig config;
  config.alloc_fail_at = 2;
  FaultInjector injector(config);
  device.SetFaultInjector(&injector);

  auto a = device.Alloc<uint32_t>(16, sim::MemKind::kDevice, "a");
  (void)a;
  EXPECT_THROW(device.Alloc<uint32_t>(16, sim::MemKind::kDevice, "b"),
               sim::OomError);
  // Later allocations succeed again (the one-shot fired).
  EXPECT_NO_THROW(device.Alloc<uint32_t>(16, sim::MemKind::kDevice, "c"));
}

// --- Zero-cost contract -------------------------------------------------------

TEST(FaultZeroCost, ArmedButSilentInjectorIsBitIdentical) {
  graph::Csr csr = SmallSocialGraph();
  core::EtaGraphOptions plain;
  core::EtaGraphOptions armed = plain;
  armed.faults.ecc_at = 1000000000;  // Enabled(), but unreachable

  for (core::Algo algo : {core::Algo::kBfs, core::Algo::kSssp, core::Algo::kSswp}) {
    auto off = core::EtaGraph(plain).Run(csr, algo, 3);
    auto on = core::EtaGraph(armed).Run(csr, algo, 3);
    ASSERT_FALSE(off.oom);
    EXPECT_TRUE(SimIdentical(off, on)) << core::AlgoName(algo);
    EXPECT_EQ(on.faults.launch_failures, 0u);
    EXPECT_EQ(on.faults.ecc_corrected, 0u);
  }
}

TEST(FaultZeroCost, CorrectableEccIsLoggedButFree) {
  graph::Csr csr = SmallSocialGraph();
  core::EtaGraphOptions plain;
  core::EtaGraphOptions ecc = plain;
  ecc.faults.ecc_at = 1;  // first launch logs one corrected event

  auto off = core::EtaGraph(plain).Run(csr, core::Algo::kBfs, 3);
  auto on = core::EtaGraph(ecc).Run(csr, core::Algo::kBfs, 3);
  EXPECT_TRUE(SimIdentical(off, on));
  EXPECT_EQ(on.faults.ecc_corrected, 1u);
  EXPECT_EQ(on.faults.launch_failures, 0u);
}

// --- ResidentGraph recovery ---------------------------------------------------

TEST(FaultRecovery, HangIsRetriedAndAnswerStaysCorrect) {
  graph::Csr csr = SmallSocialGraph();
  core::EtaGraphOptions options;
  options.faults.hang_at = 2;  // second launch of the session hangs

  auto report = core::EtaGraph(options).Run(csr, core::Algo::kBfs, 3);
  ASSERT_FALSE(report.DeviceFailed());
  EXPECT_EQ(report.faults.hangs, 1u);
  EXPECT_EQ(report.faults.launch_failures, 1u);
  EXPECT_EQ(report.faults.retries, 1u);
  EXPECT_GT(report.faults.backoff_ms, 0.0);
  EXPECT_EQ(report.labels, core::CpuReference(csr, core::Algo::kBfs, 3));

  // The failed attempt, watchdog, and backoff make the run strictly more
  // expensive than a faultless one.
  auto clean = core::EtaGraph().Run(csr, core::Algo::kBfs, 3);
  EXPECT_GT(report.total_ms, clean.total_ms);
}

TEST(FaultRecovery, UeccRestagesCorruptedTopologyThenSucceeds) {
  graph::Csr csr = SmallSocialGraph();
  core::EtaGraphOptions options;
  options.faults.seed = 11;
  options.faults.uecc_at = 3;
  options.faults.corrupt_words = 16;

  for (core::Algo algo : {core::Algo::kBfs, core::Algo::kSssp}) {
    auto report = core::EtaGraph(options).Run(csr, algo, 3);
    ASSERT_FALSE(report.DeviceFailed()) << core::AlgoName(algo);
    EXPECT_EQ(report.faults.ecc_uncorrectable, 1u);
    EXPECT_EQ(report.faults.retries, 1u);
    // Whatever the UECC hit, the answer is the CPU reference answer.
    EXPECT_EQ(report.labels, core::CpuReference(csr, algo, 3)) << core::AlgoName(algo);
  }
}

TEST(FaultRecovery, UeccRecoveryWorksInEveryMemoryMode) {
  graph::Csr csr = SmallSocialGraph();
  for (core::MemoryMode mode :
       {core::MemoryMode::kUnifiedPrefetch, core::MemoryMode::kUnifiedOnDemand,
        core::MemoryMode::kExplicitCopy, core::MemoryMode::kChunkedStream}) {
    core::EtaGraphOptions options;
    options.memory_mode = mode;
    options.faults.seed = 13;
    options.faults.uecc_at = 2;
    auto report = core::EtaGraph(options).Run(csr, core::Algo::kBfs, 3);
    ASSERT_FALSE(report.DeviceFailed()) << core::MemoryModeName(mode);
    EXPECT_EQ(report.labels, core::CpuReference(csr, core::Algo::kBfs, 3))
        << core::MemoryModeName(mode);
  }
}

TEST(FaultRecovery, RetryBudgetExhaustionIsReportedNotLooped) {
  graph::Csr csr = SmallSocialGraph();
  core::EtaGraphOptions options;
  options.faults.hang_rate = 1.0;  // every launch hangs
  options.recovery.max_retries = 2;

  auto report = core::EtaGraph(options).Run(csr, core::Algo::kBfs, 3);
  EXPECT_TRUE(report.DeviceFailed());
  EXPECT_TRUE(report.faults.exhausted);
  EXPECT_FALSE(report.faults.device_lost);
  // 1 initial attempt + 2 retries, each killed by its first launch.
  EXPECT_EQ(report.faults.launch_failures, 3u);
  EXPECT_EQ(report.faults.retries, 2u);
}

/// Regression: a UECC that aborts a query's last allowed attempt — retries
/// exhausted, or the retry budget denies one more — must still re-stage the
/// corrupted resident buffers. Recovery used to give up before re-staging,
/// so the damage stayed resident and later fault-free queries answered
/// wrong with status ok.
class UeccOnLastAttemptTest : public ::testing::TestWithParam<bool> {};

TEST_P(UeccOnLastAttemptTest, LaterCleanQueriesMatchTheCpuReference) {
  const bool budget_denies = GetParam();
  graph::Csr csr = SmallSocialGraph();
  uint64_t restaged = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    core::EtaGraphOptions options;
    options.faults.seed = seed;
    options.faults.uecc_at = 2;  // one-shot, inside the first query
    options.faults.corrupt_words = 64;
    if (budget_denies) {
      // An armed bucket with no tokens denies the first retry.
      options.recovery.budget =
          std::make_shared<core::RetryBudget>(core::RetryBudget::Config{1.0, 0.0});
    } else {
      options.recovery.max_retries = 0;  // the first attempt is the last
    }
    core::ResidentGraph session(csr, options);
    const core::RunReport failed = session.Run(core::Algo::kBfs, 3);
    ASSERT_TRUE(failed.DeviceFailed()) << "seed " << seed;
    ASSERT_TRUE(failed.faults.exhausted) << "seed " << seed;
    ASSERT_EQ(failed.faults.ecc_uncorrectable, 1u) << "seed " << seed;
    EXPECT_EQ(failed.faults.retries, 0u) << "seed " << seed;
    restaged += failed.faults.restaged_buffers;
    for (core::Algo algo : {core::Algo::kBfs, core::Algo::kSssp, core::Algo::kSswp}) {
      for (graph::VertexId source : {3u, 9u, 21u}) {
        const core::RunReport r = session.Run(algo, source);
        ASSERT_FALSE(r.DeviceFailed());
        EXPECT_EQ(r.labels, core::CpuReference(csr, algo, source))
            << "seed " << seed << " " << core::AlgoName(algo) << " from " << source;
      }
    }
  }
  // Some of the seeds must have hit a buffer with a host shadow.
  EXPECT_GT(restaged, 0u);
}

INSTANTIATE_TEST_SUITE_P(ExitPaths, UeccOnLastAttemptTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return std::string(param_info.param ? "BudgetDenied"
                                                               : "RetriesExhausted");
                         });

TEST(FaultRecovery, DeviceLossEndsTheSession) {
  graph::Csr csr = SmallSocialGraph();
  core::EtaGraphOptions options;
  options.faults.lost_at = 2;

  core::ResidentGraph session(csr, options);
  auto first = session.Run(core::Algo::kBfs, 3);
  EXPECT_TRUE(first.DeviceFailed());
  EXPECT_TRUE(first.faults.device_lost);
  EXPECT_TRUE(session.DeviceLost());
  // No retry storm after loss: the next query fails immediately.
  auto second = session.Run(core::Algo::kBfs, 4);
  EXPECT_TRUE(second.faults.device_lost);
  EXPECT_EQ(second.faults.retries, 0u);
}

TEST(FaultRecovery, SessionSurvivesFaultAndServesLaterQueries) {
  graph::Csr csr = SmallSocialGraph();
  core::EtaGraphOptions options;
  options.faults.seed = 17;
  options.faults.hang_at = 4;

  core::ResidentGraph session(csr, options);
  auto q1 = session.Run(core::Algo::kBfs, 3);
  auto q2 = session.Run(core::Algo::kSssp, 9);
  auto q3 = session.Run(core::Algo::kBfs, 21);
  EXPECT_EQ(q1.faults.hangs + q2.faults.hangs + q3.faults.hangs, 1u);
  ASSERT_FALSE(q1.DeviceFailed());
  ASSERT_FALSE(q2.DeviceFailed());
  ASSERT_FALSE(q3.DeviceFailed());
  EXPECT_EQ(q1.labels, core::CpuReference(csr, core::Algo::kBfs, 3));
  EXPECT_EQ(q2.labels, core::CpuReference(csr, core::Algo::kSssp, 9));
  EXPECT_EQ(q3.labels, core::CpuReference(csr, core::Algo::kBfs, 21));
}

// --- Resuming a hung launch ---------------------------------------------------

/// Hybrid BFS with an alpha high enough to force a pull phase on
/// SmallSocialGraph, and with it a compaction back to push.
constexpr core::HybridBfsOptions kPullingHybrid{.alpha = 32.0};

/// One profiled query of `algo` (from vertex 3 for the per-source
/// traversals) on a fresh session of `csr`; with `hybrid`, a kPullingHybrid
/// hybrid BFS from vertex 3 instead.
core::RunReport RunQuery(const graph::Csr& csr, core::Algo algo,
                         core::EtaGraphOptions options, bool hybrid = false) {
  options.profile = true;
  core::ResidentGraph session(csr, options);
  if (hybrid) return session.RunHybridBfs(3, kPullingHybrid);
  switch (algo) {
    case core::Algo::kCc: return session.RunConnectedComponents();
    case core::Algo::kPr: return session.RunPageRank();
    default: return session.Run(algo, 3);
  }
}

/// Device time the query paid for, launch by launch: a hung launch holds
/// the device for its whole watchdog window, any other one for its compute.
double PaidKernelMs(const core::RunReport& r) {
  double ms = 0;
  for (const sim::KernelProfile& p : r.kernel_profiles) {
    ms += p.status == LaunchStatus::kKernelTimeout ? p.DurationMs() : p.compute_ms;
  }
  return ms;
}

/// A seed whose 10% hang rate hangs exactly two launches of the SSSP
/// query in TwoHangsInOneQueryChargeTwoBackoffs.
constexpr uint64_t kTwoHangSeed = 5;

/// A query the hang sweep runs: RunQuery's `algo` and `hybrid`.
struct SweepQuery {
  core::Algo algo = core::Algo::kBfs;
  bool hybrid = false;
};

class HangResumeTest : public ::testing::TestWithParam<SweepQuery> {};

// A hang kills one launch before any warp runs, so the retry relaunches
// that kernel with the same grid and the query goes on. Wherever the hang
// lands, the query answers like its fault-free twin, with one launch more
// and exactly one watchdog window plus one backoff more on its clock.
TEST_P(HangResumeTest, EveryHungLaunchResumesToTheTwinsAnswer) {
  const auto [algo, hybrid] = GetParam();
  const graph::Csr csr = SmallSocialGraph();
  const core::RunReport twin = RunQuery(csr, algo, {}, hybrid);
  ASSERT_FALSE(twin.DeviceFailed());
  const uint64_t launches = twin.kernel_profiles.size();
  std::set<std::string> hung_kernels;
  for (uint64_t k = 1; k <= launches; ++k) {
    SCOPED_TRACE("hang_at=" + std::to_string(k));
    core::EtaGraphOptions options;
    options.faults.hang_at = k;
    options.faults.watchdog_ms = 2.0;
    const core::RunReport r = RunQuery(csr, algo, options, hybrid);
    ASSERT_FALSE(r.DeviceFailed());
    EXPECT_EQ(r.labels, twin.labels);
    EXPECT_EQ(r.ranks, twin.ranks);
    EXPECT_EQ(r.iterations, twin.iterations);
    EXPECT_EQ(r.bottom_up_iterations, twin.bottom_up_iterations);
    EXPECT_EQ(r.faults.hangs, 1u);
    EXPECT_EQ(r.faults.retries, 1u);
    ASSERT_EQ(r.kernel_profiles.size(), launches + 1);
    const sim::KernelProfile& hung = r.kernel_profiles[k - 1];
    ASSERT_EQ(hung.status, LaunchStatus::kKernelTimeout);
    hung_kernels.insert(hung.name);
    // Without the killed launch, the query ran the twin's launches: same
    // kernels, same grids, same device time.
    for (uint64_t i = 0, j = 0; i < r.kernel_profiles.size(); ++i) {
      if (i == k - 1) continue;
      EXPECT_EQ(r.kernel_profiles[i].name, twin.kernel_profiles[j].name) << "launch " << i;
      EXPECT_EQ(r.kernel_profiles[i].grid_threads, twin.kernel_profiles[j].grid_threads)
          << "launch " << i;
      EXPECT_EQ(r.kernel_profiles[i].compute_ms, twin.kernel_profiles[j].compute_ms)
          << "launch " << i;
      ++j;
    }
    EXPECT_NEAR(r.query_ms - twin.query_ms,
                options.faults.watchdog_ms + options.recovery.backoff_base_ms, 1e-9);
    EXPECT_NEAR(r.kernel_ms - twin.kernel_ms, options.faults.watchdog_ms, 1e-9);
    EXPECT_NEAR(r.kernel_ms, PaidKernelMs(r), 1e-9);
  }
  // The sweep hung every kernel of the query's loop.
  const std::set<std::string> loop_kernels =
      hybrid                  ? std::set<std::string>{"bfs_top_down", "bfs_bottom_up",
                                                      "bfs_compact"}
      : algo == core::Algo::kPr ? std::set<std::string>{"pr_init", "pr_push", "pr_delta"}
                                : std::set<std::string>{"udc", "traverse_full", "traverse_part"};
  EXPECT_EQ(hung_kernels, loop_kernels);
}

INSTANTIATE_TEST_SUITE_P(Algos, HangResumeTest,
                         ::testing::Values(SweepQuery{core::Algo::kBfs},
                                           SweepQuery{core::Algo::kSssp},
                                           SweepQuery{core::Algo::kSswp},
                                           SweepQuery{core::Algo::kCc},
                                           SweepQuery{core::Algo::kPr},
                                           SweepQuery{core::Algo::kBfs, true}),
                         [](const ::testing::TestParamInfo<SweepQuery>& param_info) {
                           return param_info.param.hybrid
                                      ? std::string("HybridBFS")
                                      : std::string(core::AlgoName(param_info.param.algo));
                         });

TEST(HangResume, TwoHangsInOneQueryChargeTwoBackoffs) {
  const graph::Csr csr = SmallSocialGraph();
  const core::RunReport twin = RunQuery(csr, core::Algo::kSssp, {});
  core::EtaGraphOptions options;
  options.faults.seed = kTwoHangSeed;
  options.faults.hang_rate = 0.1;
  options.faults.watchdog_ms = 2.0;
  const core::RunReport r = RunQuery(csr, core::Algo::kSssp, options);
  ASSERT_FALSE(r.DeviceFailed());
  ASSERT_EQ(r.faults.hangs, 2u);
  EXPECT_EQ(r.faults.retries, 2u);
  EXPECT_DOUBLE_EQ(r.faults.backoff_ms, 0.5 + 1.0);
  EXPECT_EQ(r.labels, twin.labels);
  EXPECT_EQ(r.kernel_profiles.size(), twin.kernel_profiles.size() + 2);
  EXPECT_NEAR(r.query_ms - twin.query_ms, 2 * 2.0 + 0.5 + 1.0, 1e-9);
  EXPECT_NEAR(r.kernel_ms - twin.kernel_ms, 2 * 2.0, 1e-9);
}

/// A hang on a query's last allowed attempt, retries exhausted or the retry
/// budget denying one more, still ends the query as exhausted. The stamps
/// its abandoned iterations wrote must not suppress a later query's
/// appends.
class HangOnLastAttemptTest : public ::testing::TestWithParam<bool> {};

TEST_P(HangOnLastAttemptTest, EndsExhaustedAndLaterQueriesStayExact) {
  const bool budget_denies = GetParam();
  const graph::Csr csr = SmallSocialGraph();
  for (uint64_t hang_at : {1u, 4u, 7u}) {
    SCOPED_TRACE("hang_at=" + std::to_string(hang_at));
    core::EtaGraphOptions options;
    options.faults.hang_at = hang_at;
    if (budget_denies) {
      options.recovery.budget =
          std::make_shared<core::RetryBudget>(core::RetryBudget::Config{1.0, 0.0});
    } else {
      options.recovery.max_retries = 0;
    }
    core::ResidentGraph session(csr, options);
    const core::RunReport failed = session.Run(core::Algo::kBfs, 3);
    ASSERT_TRUE(failed.DeviceFailed());
    EXPECT_TRUE(failed.faults.exhausted);
    EXPECT_EQ(failed.faults.hangs, 1u);
    EXPECT_EQ(failed.faults.retries, 0u);
    EXPECT_EQ(failed.faults.backoff_ms, 0.0);
    for (core::Algo algo : {core::Algo::kBfs, core::Algo::kSssp, core::Algo::kSswp}) {
      for (graph::VertexId source : {3u, 9u, 21u}) {
        const core::RunReport r = session.Run(algo, source);
        ASSERT_FALSE(r.DeviceFailed());
        EXPECT_EQ(r.labels, core::CpuReference(csr, algo, source))
            << core::AlgoName(algo) << " from " << source;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ExitPaths, HangOnLastAttemptTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return std::string(param_info.param ? "BudgetDenied"
                                                               : "RetriesExhausted");
                         });

// A UECC may have corrupted anything the query staged, so its retry starts
// the query over; the kernels the aborted attempt ran stay in kernel_ms.
TEST(HangResume, UeccStillRestartsTheQuery) {
  const graph::Csr csr = SmallSocialGraph();
  for (core::Algo algo : {core::Algo::kBfs, core::Algo::kPr}) {
    SCOPED_TRACE(core::AlgoName(algo));
    const core::RunReport twin = RunQuery(csr, algo, {});
    core::EtaGraphOptions options;
    options.faults.seed = 11;
    options.faults.uecc_at = 4;
    const core::RunReport r = RunQuery(csr, algo, options);
    ASSERT_FALSE(r.DeviceFailed());
    EXPECT_EQ(r.faults.ecc_uncorrectable, 1u);
    EXPECT_EQ(r.faults.retries, 1u);
    EXPECT_EQ(r.labels, twin.labels);
    EXPECT_EQ(r.ranks, twin.ranks);
    ASSERT_GT(r.kernel_profiles.size(), 4u);
    EXPECT_EQ(r.kernel_profiles[3].status, LaunchStatus::kEccUncorrectable);
    // The retry's first launch is the query's first launch again.
    EXPECT_EQ(r.kernel_profiles[4].name, twin.kernel_profiles[0].name);
    EXPECT_EQ(r.kernel_profiles[4].grid_threads, twin.kernel_profiles[0].grid_threads);
    EXPECT_EQ(r.kernel_profiles.size(), twin.kernel_profiles.size() + 4);
    EXPECT_NEAR(r.kernel_ms, PaidKernelMs(r), 1e-9);
    EXPECT_GT(r.kernel_ms, twin.kernel_ms);
  }
}

// A UECC during hybrid BFS may corrupt the query's transpose: the retry must
// run on trow/tcol equal to the host transpose again, and the session must
// answer exactly afterwards. Over these seeds the victim is the transpose at
// least once.
TEST(HangResume, HybridBfsUeccRestagesTheTransposeAndAnswersExactly) {
  const graph::Csr csr = SmallSocialGraph();
  bool hit_transpose = false;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    core::EtaGraphOptions options;
    options.faults.seed = seed;
    options.faults.uecc_at = 3;
    options.profile = true;
    core::ResidentGraph session(csr, options);
    const core::RunReport r = session.RunHybridBfs(3, kPullingHybrid);
    ASSERT_FALSE(r.DeviceFailed());
    EXPECT_EQ(r.faults.ecc_uncorrectable, 1u);
    EXPECT_EQ(r.labels, cpu::BfsLevels(csr, 3));
    ASSERT_GT(r.kernel_profiles.size(), 2u);
    const std::string& victim = r.kernel_profiles[2].fault_buffer;
    if (victim == "trow" || victim == "tcol") {
      hit_transpose = true;
      EXPECT_EQ(r.faults.restaged_buffers, 2u);  // the transpose array and the stamps
    }
    // Nothing corrupted stays behind: later queries of both kinds are exact.
    EXPECT_EQ(session.RunHybridBfs(21, kPullingHybrid).labels, cpu::BfsLevels(csr, 21));
    EXPECT_EQ(session.Run(core::Algo::kSssp, 9).labels,
              core::CpuReference(csr, core::Algo::kSssp, 9));
  }
  EXPECT_TRUE(hit_transpose);
}

// The watchdog window of a hung launch is device time the query paid for.
// On a 5-vertex star, PageRank's kernels take well under a millisecond, so
// a 1 ms window must show in kernel_ms.
TEST(HangResume, HungPageRankLaunchCountsItsWatchdogWindow) {
  std::vector<graph::Edge> edges;
  for (graph::VertexId leaf = 1; leaf < 5; ++leaf) {
    edges.push_back({0, leaf});
    edges.push_back({leaf, 0});
  }
  const graph::Csr star = graph::BuildCsr(edges);
  const core::RunReport twin = core::EtaGraph().RunPageRank(star);
  core::EtaGraphOptions options;
  options.faults.hang_at = 2;
  options.faults.watchdog_ms = 1.0;
  const core::RunReport r = core::EtaGraph(options).RunPageRank(star);
  ASSERT_FALSE(r.DeviceFailed());
  EXPECT_EQ(r.faults.hangs, 1u);
  EXPECT_GE(r.kernel_ms, 1.0);
  EXPECT_NEAR(r.kernel_ms - twin.kernel_ms, 1.0, 1e-9);
  EXPECT_EQ(r.ranks, twin.ranks);
}

// Per iteration, one H2D resets the three cursors and two D2H read back the
// shadow counts and the next active count; the query's staging uploads the
// labels, the active set and its stamps, and no active count.
TEST(CursorRoundTrip, OneResetAndTwoReadbacksPerIteration) {
  const graph::Csr csr = SmallSocialGraph();
  core::EtaGraphOptions options;
  options.memory_mode = core::MemoryMode::kExplicitCopy;
  core::ResidentGraph session(csr, options);
  const size_t staged = session.SessionTimeline().Spans().size();
  const core::RunReport r = session.Run(core::Algo::kBfs, 3);
  ASSERT_GT(r.iterations, 2u);
  const auto& spans = session.SessionTimeline().Spans();
  uint64_t h2d = 0, d2h = 0, since_udc = 0;
  std::vector<uint64_t> transfers_per_iteration;
  for (size_t i = staged; i < spans.size(); ++i) {
    const sim::Span& s = spans[i];
    if (s.kind == sim::SpanKind::kCompute && s.label == "udc") {
      transfers_per_iteration.push_back(since_udc);
      since_udc = 0;
    }
    if (s.kind == sim::SpanKind::kTransferH2D) ++h2d, ++since_udc;
    if (s.kind == sim::SpanKind::kTransferD2H) ++d2h, ++since_udc;
  }
  EXPECT_EQ(h2d, 3 + uint64_t{r.iterations});
  EXPECT_EQ(d2h, 2 * uint64_t{r.iterations} + 1);
  // Between two UDC launches: the previous iteration's two readbacks and
  // this iteration's reset (the first UDC follows the three staging
  // uploads and the first reset).
  ASSERT_EQ(transfers_per_iteration.size(), r.iterations);
  EXPECT_EQ(transfers_per_iteration.front(), 4u);
  for (size_t i = 1; i < transfers_per_iteration.size(); ++i) {
    EXPECT_EQ(transfers_per_iteration[i], 3u) << "iteration " << i + 1;
  }
}

// --- Serving under faults -----------------------------------------------------

/// Fault matrix: each class, each algorithm. Every request must complete
/// with the CPU-verified answer, through retry, re-stage, rebuild, or
/// degrade — and two identical replays must agree byte-for-byte.
struct MatrixCase {
  const char* name;
  const char* spec;
};

class FaultMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(FaultMatrixTest, AllRequestsCompleteWithVerifiedAnswers) {
  graph::Csr csr = SmallSocialGraph(19);
  serve::TraceOptions trace_options;
  trace_options.num_requests = 24;
  trace_options.bfs_fraction = 0.4;
  trace_options.sssp_fraction = 0.3;  // rest SSWP: all three algos present
  auto trace = serve::GenerateTrace(csr.NumVertices(), trace_options);

  std::string error;
  auto faults = sim::FaultConfig::Parse(GetParam().spec, &error);
  ASSERT_TRUE(faults.has_value()) << error;

  serve::ServeOptions options;
  options.graph.faults = *faults;
  auto report = ServeOneShard(options, csr, trace);

  // No deadlines and a large queue: every request must be answered.
  EXPECT_EQ(report.completed, trace.size()) << GetParam().name;
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_EQ(report.timed_out, 0u);
  for (const serve::QueryResult& q : report.results) {
    ASSERT_TRUE(q.status == serve::QueryStatus::kOk ||
                q.status == serve::QueryStatus::kDegraded)
        << GetParam().name << " request " << q.id;
    EXPECT_EQ(q.reached_vertices, CpuReached(csr, q.algo, q.source))
        << GetParam().name << " request " << q.id << " ("
        << serve::QueryStatusName(q.status) << ")";
  }

  // Determinism: replaying the identical trace reproduces everything.
  auto again = ServeOneShard(options, csr, trace);
  EXPECT_EQ(report.Json(), again.Json()) << GetParam().name;
  ASSERT_EQ(report.results.size(), again.results.size());
  for (size_t i = 0; i < report.results.size(); ++i) {
    EXPECT_EQ(report.results[i].status, again.results[i].status);
    EXPECT_DOUBLE_EQ(report.results[i].finish_ms, again.results[i].finish_ms);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Classes, FaultMatrixTest,
    ::testing::Values(MatrixCase{"ecc_correctable", "seed=3,ecc=0.3"},
                      MatrixCase{"ecc_uncorrectable", "seed=3,uecc=0.08"},
                      MatrixCase{"kernel_hang", "seed=3,hang=0.08,watchdog=5"},
                      MatrixCase{"device_loss", "seed=3,lost=0.01"},
                      MatrixCase{"alloc_failure", "seed=3,alloc=0.2"},
                      MatrixCase{"everything_at_once",
                                 "seed=3,ecc=0.1,uecc=0.04,hang=0.04,lost=0.005,"
                                 "alloc=0.1,watchdog=5"}),
    [](const ::testing::TestParamInfo<MatrixCase>& param_info) {
      return std::string(param_info.param.name);
    });

TEST(ServeFaults, DeviceLossTriggersRebuildThenRecovers) {
  graph::Csr csr = SmallSocialGraph();
  serve::TraceOptions trace_options;
  trace_options.num_requests = 16;
  auto trace = serve::GenerateTrace(csr.NumVertices(), trace_options);

  serve::ServeOptions options;
  options.graph.faults.lost_at = 3;  // each session's 3rd launch kills it
  options.max_session_rebuilds = 3;
  auto report = ServeOneShard(options, csr, trace);

  EXPECT_EQ(report.completed, trace.size());
  EXPECT_GE(report.session_rebuilds, 1u);
  EXPECT_TRUE(report.faults.device_lost);
  for (const serve::QueryResult& q : report.results) {
    EXPECT_EQ(q.reached_vertices, CpuReached(csr, q.algo, q.source));
  }
}

TEST(ServeFaults, PageRankRequestsRetryOnTheResidentSessionAndStayExact) {
  graph::Csr csr = SmallSocialGraph();
  std::vector<serve::Request> trace(3);
  for (uint64_t i = 0; i < trace.size(); ++i) {
    trace[i].id = i;
    trace[i].algo = core::Algo::kPr;
    trace[i].arrival_ms = 10.0 * static_cast<double>(i);
  }
  serve::ServeOptions options;
  options.graph.faults.uecc_at = 2;  // the first request's first pr_push
  options.graph.faults.hang_at = 9;
  options.graph.faults.watchdog_ms = 1.0;
  auto report = ServeOneShard(options, csr, trace);

  ASSERT_EQ(report.completed, trace.size());
  EXPECT_EQ(report.faults.ecc_uncorrectable, 1u);
  EXPECT_EQ(report.faults.hangs, 1u);
  EXPECT_EQ(report.faults.retries, 2u);
  EXPECT_GT(report.faults.backoff_ms, 0.0);
  EXPECT_EQ(report.degraded, 0u);
  const uint64_t expected = serve::CpuAnswer(csr, core::Algo::kPr, 0);
  for (const serve::QueryResult& q : report.results) {
    EXPECT_EQ(q.status, serve::QueryStatus::kOk) << "request " << q.id;
    EXPECT_EQ(q.reached_vertices, expected) << "request " << q.id;
  }
}

TEST(ServeFaults, DegradedPageRankAnswersLikeTheDevice) {
  // Four isolated 2-cycles rank exactly 1/n. f32 rounding puts them on
  // either side of 1/n, so at an exact threshold the device counts 132
  // vertices above uniform and the double CPU fallback 124.
  graph::RmatParams params;
  params.scale = 9;
  params.num_edges = 4000;
  params.seed = 7;
  std::vector<graph::Edge> edges = graph::GenerateRmat(params);
  const graph::VertexId base = 1u << params.scale;
  for (graph::VertexId c = 0; c < 4; ++c) {
    edges.push_back({base + 2 * c, base + 2 * c + 1});
    edges.push_back({base + 2 * c + 1, base + 2 * c});
  }
  const graph::Csr csr = graph::BuildCsr(std::move(edges));
  std::vector<serve::Request> trace(2);
  for (uint64_t i = 0; i < trace.size(); ++i) {
    trace[i].id = i;
    trace[i].algo = core::Algo::kPr;
    trace[i].arrival_ms = 10.0 * static_cast<double>(i);
  }
  const auto served = ServeOneShard({}, csr, trace);
  serve::ServeOptions lost;
  lost.graph.faults.device_loss_rate = 1.0;
  lost.max_session_rebuilds = 0;
  const auto degraded = ServeOneShard(lost, csr, trace);

  const core::PageRankOptions pr;
  const uint64_t expected = core::CountAboveUniform(
      cpu::PageRankReference(csr, pr.damping, pr.epsilon, pr.max_iterations));
  ASSERT_EQ(served.results.size(), trace.size());
  ASSERT_EQ(degraded.results.size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(served.results[i].status, serve::QueryStatus::kOk) << "request " << i;
    EXPECT_EQ(degraded.results[i].status, serve::QueryStatus::kDegraded) << "request " << i;
    EXPECT_EQ(served.results[i].reached_vertices, expected) << "request " << i;
    EXPECT_EQ(degraded.results[i].reached_vertices, expected) << "request " << i;
  }
}

TEST(ServeFaults, RebuildBudgetExhaustionDegradesToCpu) {
  graph::Csr csr = SmallSocialGraph();
  serve::TraceOptions trace_options;
  trace_options.num_requests = 8;
  auto trace = serve::GenerateTrace(csr.NumVertices(), trace_options);

  serve::ServeOptions options;
  options.graph.faults.device_loss_rate = 1.0;  // every launch loses the device
  options.max_session_rebuilds = 1;
  auto report = ServeOneShard(options, csr, trace);

  EXPECT_EQ(report.completed, trace.size());
  EXPECT_EQ(report.session_rebuilds, 1u);
  EXPECT_GT(report.degraded, 0u);
  for (const serve::QueryResult& q : report.results) {
    // The CPU fallback still answers exactly.
    EXPECT_EQ(q.reached_vertices, CpuReached(csr, q.algo, q.source));
    if (q.status == serve::QueryStatus::kDegraded) {
      EXPECT_EQ(q.batch_size, 0u);
      EXPECT_GT(q.finish_ms, q.start_ms);
    }
  }
}

// --- Kernel robustness against corrupted device data -------------------------
//
// An uncorrectable ECC hit rewrites live device bytes, and the corrupted
// values can be *executed* before recovery runs (the faulted launch aborts,
// but a buffer without a host shadow — or one owned by another session on
// the same device — keeps the damage). The simulator clamps global-memory
// accesses; this pins down the remaining host-unsafe surface, the per-lane
// staging area GatherBulk streams into.

TEST(FaultRobustness, GatherBulkClampsCorruptCountsToTheLaneStride) {
  sim::Device device;
  auto buf = device.Alloc<uint32_t>(256, sim::MemKind::kDevice, "col");
  std::vector<uint32_t> host(256);
  for (uint32_t i = 0; i < 256; ++i) host[i] = 1000 + i;
  device.CopyToDevice(buf, std::span<const uint32_t>(host));

  constexpr uint32_t kStride = 4;
  constexpr uint32_t kSentinel = 0xAAAAAAAAu;
  // Staging area plus a guard tail that must survive untouched.
  std::vector<uint32_t> out(sim::kWarpSize * kStride + 64, kSentinel);

  auto r = device.Launch("bulk", {sim::kWarpSize}, [&](sim::WarpCtx& w) {
    sim::LaneArray<uint64_t> start{};
    sim::LaneArray<uint32_t> count{};
    for (uint32_t lane = 0; lane < sim::kWarpSize; ++lane) {
      start[lane] = lane * kStride;
      count[lane] = 1000;  // corrupt degree: past the stride AND the buffer
    }
    w.GatherBulk(buf, start, count, w.ActiveMask(), out.data(), kStride);
  });
  ASSERT_EQ(r.status, sim::LaunchStatus::kOk);

  for (uint32_t lane = 0; lane < sim::kWarpSize; ++lane) {
    for (uint32_t j = 0; j < kStride; ++j) {
      EXPECT_EQ(out[lane * kStride + j], 1000 + lane * kStride + j);
    }
  }
  for (size_t i = sim::kWarpSize * kStride; i < out.size(); ++i) {
    EXPECT_EQ(out[i], kSentinel) << "guard word " << i << " was overwritten";
  }
}

TEST(ServeFaults, FaultsOffServeReportIsBitIdenticalToSeedBehavior) {
  graph::Csr csr = SmallSocialGraph();
  serve::TraceOptions trace_options;
  trace_options.num_requests = 24;
  auto trace = serve::GenerateTrace(csr.NumVertices(), trace_options);

  serve::ServeOptions plain;
  serve::ServeOptions armed = plain;
  armed.graph.faults.ecc_at = 1000000000;  // attached, never fires

  auto off = ServeOneShard(plain, csr, trace);
  auto on = ServeOneShard(armed, csr, trace);
  EXPECT_EQ(off.Json(), on.Json());
  EXPECT_EQ(off.makespan_ms, on.makespan_ms);
  ASSERT_EQ(off.results.size(), on.results.size());
  for (size_t i = 0; i < off.results.size(); ++i) {
    EXPECT_EQ(off.results[i].status, on.results[i].status);
    EXPECT_EQ(off.results[i].reached_vertices, on.results[i].reached_vertices);
    EXPECT_DOUBLE_EQ(off.results[i].finish_ms, on.results[i].finish_ms);
  }
}

}  // namespace
}  // namespace eta
