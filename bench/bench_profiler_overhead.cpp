// etaprof zero-cost contract bench: with profiling disabled (the default) no
// profiler is attached and the launch path does zero extra work, so every
// simulated counter, timestamp, and label must be bit-identical to a run
// before the profiler existed. With profiling *enabled* the recording is
// host-side only — the simulated run must still be bit-identical — and the
// per-launch profiles must tile the query exactly: launch count, summed
// per-launch counters, and summed kernel durations all reconcile against the
// query-level totals.
#include <algorithm>
#include <chrono>
#include <cmath>

#include "bench_common.hpp"
#include "core/framework.hpp"
#include "sim/profiler.hpp"

using namespace eta;

namespace {

template <typename F>
double WallMs(F&& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

bool Identical(const core::RunReport& a, const core::RunReport& b) {
  return a.total_ms == b.total_ms && a.kernel_ms == b.kernel_ms &&
         a.query_ms == b.query_ms && a.iterations == b.iterations &&
         a.activated == b.activated && a.labels == b.labels &&
         a.migrated_bytes == b.migrated_bytes &&
         a.device_bytes_peak == b.device_bytes_peak &&
         a.counters.warp_instructions == b.counters.warp_instructions &&
         a.counters.thread_instructions == b.counters.thread_instructions &&
         a.counters.l1_accesses == b.counters.l1_accesses &&
         a.counters.l1_hits == b.counters.l1_hits &&
         a.counters.l2_accesses == b.counters.l2_accesses &&
         a.counters.l2_hits == b.counters.l2_hits &&
         a.counters.dram_read_transactions == b.counters.dram_read_transactions &&
         a.counters.dram_write_transactions == b.counters.dram_write_transactions &&
         a.counters.shared_accesses == b.counters.shared_accesses &&
         a.counters.atomic_operations == b.counters.atomic_operations &&
         a.counters.elapsed_cycles == b.counters.elapsed_cycles &&
         a.counters.launches == b.counters.launches;
}

/// The per-launch profiles must add back up to the query totals: the profiler
/// observes the run, it never re-times it.
bool Reconciles(const core::RunReport& r) {
  if (r.kernel_profiles.size() != r.query_counters.launches) return false;
  uint64_t warp_instructions = 0;
  uint64_t launches = 0;
  double cycles = 0;
  double kernel_ms = 0;
  for (const sim::KernelProfile& p : r.kernel_profiles) {
    warp_instructions += p.counters.warp_instructions;
    launches += p.counters.launches;
    cycles += p.counters.elapsed_cycles;
    kernel_ms += p.DurationMs();
  }
  return warp_instructions == r.query_counters.warp_instructions &&
         launches == r.query_counters.launches &&
         std::fabs(cycles - r.query_counters.elapsed_cycles) < 1e-6 &&
         std::fabs(kernel_ms - r.kernel_ms) < 1e-6;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchEnv env = bench::ParseBenchArgs(argc, argv, {"slashdot", "rmat"});
  const core::Algo algo = bench::AlgoFlag(env);

  util::Table table({"Dataset", "Sim total (ms)", "Launches", "Identical?",
                     "Reconciles?", "Wall off (ms)", "Wall on (ms)",
                     "Host overhead"});
  bool all_ok = true;
  for (const std::string& name : env.datasets) {
    graph::Csr csr = bench::Load(env, name);

    core::EtaGraphOptions plain;
    core::EtaGraphOptions profiled = plain;
    profiled.profile = true;

    core::RunReport off;
    core::RunReport on;
    double wall_off = WallMs([&] {
      off = core::EtaGraph(plain).Run(csr, algo, graph::kQuerySource);
    });
    double wall_on = WallMs([&] {
      on = core::EtaGraph(profiled).Run(csr, algo, graph::kQuerySource);
    });

    // Off-run contract: no profiles and nothing else changed either (spot
    // check: off is what the profiled run also simulated).
    bool identical = off.kernel_profiles.empty() && Identical(off, on);
    bool reconciles = Reconciles(on);
    all_ok = all_ok && identical && reconciles;

    table.AddRow({graph::FindDataset(name)->paper_name,
                  util::FormatDouble(on.total_ms, 2),
                  std::to_string(on.kernel_profiles.size()),
                  identical ? "yes" : "NO", reconciles ? "yes" : "NO",
                  util::FormatDouble(wall_off, 1), util::FormatDouble(wall_on, 1),
                  util::FormatDouble(wall_on / std::max(wall_off, 1e-9), 2) + "x"});
  }
  std::printf("%s\n",
              table.Render("etaprof overhead (" + std::string(core::AlgoName(algo)) +
                           "); contract: profiling is host-side only — the "
                           "simulated run is bit-identical with it on or off, and "
                           "per-launch profiles tile the query exactly")
                  .c_str());
  if (!all_ok) {
    std::fprintf(stderr, "FAIL: profiler changed the simulated run or profiles "
                         "failed to reconcile\n");
    return 1;
  }
  return 0;
}
