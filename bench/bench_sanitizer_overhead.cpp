// etacheck overhead bench: the sanitizer's contract is that an instrumented
// run is *simulation-identical* to an unchecked one (same counters, same
// simulated clock, same labels) and costs only host wall time. This bench
// verifies the identity on real datasets and reports the wall-clock factor
// an operator pays for --check.
#include <algorithm>
#include <chrono>

#include "bench_common.hpp"
#include "core/framework.hpp"
#include "sanitizer/config.hpp"

using namespace eta;

namespace {

template <typename F>
double WallMs(F&& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchEnv env = bench::ParseBenchArgs(argc, argv, {"slashdot", "rmat"});
  const core::Algo algo = bench::AlgoFlag(env);

  util::Table table({"Dataset", "Sim total (ms)", "Identical?", "Wall off (ms)",
                     "Wall on (ms)", "Host overhead", "Accesses checked"});
  bool all_identical = true;
  for (const std::string& name : env.datasets) {
    graph::Csr csr = bench::Load(env, name);

    core::EtaGraphOptions plain;
    core::EtaGraphOptions checked = plain;
    checked.check = sanitizer::Config::All();

    core::RunReport off;
    core::RunReport on;
    double wall_off = WallMs([&] {
      off = core::EtaGraph(plain).Run(csr, algo, graph::kQuerySource);
    });
    double wall_on = WallMs([&] {
      on = core::EtaGraph(checked).Run(csr, algo, graph::kQuerySource);
    });

    // The identity the sanitizer promises: bit-equal simulated outcome.
    bool identical = off.total_ms == on.total_ms && off.kernel_ms == on.kernel_ms &&
                     off.iterations == on.iterations && off.labels == on.labels &&
                     off.counters.warp_instructions == on.counters.warp_instructions &&
                     off.counters.thread_instructions == on.counters.thread_instructions &&
                     off.counters.l1_accesses == on.counters.l1_accesses &&
                     off.counters.l2_accesses == on.counters.l2_accesses &&
                     off.counters.dram_read_transactions ==
                         on.counters.dram_read_transactions &&
                     off.counters.dram_write_transactions ==
                         on.counters.dram_write_transactions &&
                     off.counters.atomic_operations == on.counters.atomic_operations &&
                     off.counters.elapsed_cycles == on.counters.elapsed_cycles &&
                     on.check.findings.empty();
    all_identical = all_identical && identical;

    table.AddRow({graph::FindDataset(name)->paper_name,
                  util::FormatDouble(on.total_ms, 2), identical ? "yes" : "NO",
                  util::FormatDouble(wall_off, 1), util::FormatDouble(wall_on, 1),
                  util::FormatDouble(wall_on / std::max(wall_off, 1e-9), 2) + "x",
                  std::to_string(on.check.accesses_checked)});
  }
  std::printf("%s\n",
              table.Render("etacheck overhead (" + std::string(core::AlgoName(algo)) +
                           "); contract: simulated counters/clock identical, "
                           "host wall time is the only cost")
                  .c_str());
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: checked run diverged from unchecked run\n");
    return 1;
  }
  return 0;
}
