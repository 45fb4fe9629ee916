// Fault-injection zero-cost contract bench: with injection disabled the
// fault hooks must be invisible — every simulated counter, timestamp, and
// label of a run with no injector attached must be bit-identical to a run
// before the fault machinery existed. This bench goes one step further and
// also verifies the *armed-but-silent* case: an injector attached with a
// scripted fault that never fires (ecc_at far beyond the launch count) must
// still reproduce the plain run bit-for-bit, because fault decisions are
// drawn before any cost is charged and a kOk decision charges nothing.
#include <algorithm>
#include <chrono>

#include "bench_common.hpp"
#include "core/framework.hpp"
#include "sim/fault.hpp"

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
         a.counters.l2_accesses == b.counters.l2_accesses &&
         a.counters.dram_read_transactions == b.counters.dram_read_transactions &&
         a.counters.dram_write_transactions == b.counters.dram_write_transactions &&
         a.counters.atomic_operations == b.counters.atomic_operations &&
         a.counters.elapsed_cycles == b.counters.elapsed_cycles;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchEnv env = bench::ParseBenchArgs(argc, argv, {"slashdot", "rmat"});
  const core::Algo algo = bench::AlgoFlag(env);

  util::Table table({"Dataset", "Sim total (ms)", "Identical?", "Wall off (ms)",
                     "Wall armed (ms)", "Host overhead"});
  bool all_identical = true;
  for (const std::string& name : env.datasets) {
    graph::Csr csr = bench::Load(env, name);

    core::EtaGraphOptions plain;
    core::EtaGraphOptions armed = plain;
    // Enabled() holds (the injector attaches and draws per launch), but the
    // scripted decision index is unreachable, so no fault ever fires.
    armed.faults.ecc_at = 1000000000;

    core::RunReport off;
    core::RunReport on;
    double wall_off = WallMs([&] {
      off = core::EtaGraph(plain).Run(csr, algo, graph::kQuerySource);
    });
    double wall_on = WallMs([&] {
      on = core::EtaGraph(armed).Run(csr, algo, graph::kQuerySource);
    });

    bool identical = Identical(off, on) && on.faults.launch_failures == 0 &&
                     on.faults.ecc_corrected == 0 && !on.faults.Failed();
    all_identical = all_identical && identical;

    table.AddRow({graph::FindDataset(name)->paper_name,
                  util::FormatDouble(on.total_ms, 2), identical ? "yes" : "NO",
                  util::FormatDouble(wall_off, 1), util::FormatDouble(wall_on, 1),
                  util::FormatDouble(wall_on / std::max(wall_off, 1e-9), 2) + "x"});
  }
  std::printf("%s\n",
              table.Render("fault-injection overhead (" +
                           std::string(core::AlgoName(algo)) +
                           "); contract: an armed-but-silent injector leaves every "
                           "simulated counter bit-identical")
                  .c_str());
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: armed run diverged from plain run\n");
    return 1;
  }
  return 0;
}
