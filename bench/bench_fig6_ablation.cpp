// Fig 6 reproduction: normalized total runtimes of the EtaGraph setups —
// full EtaGraph vs 'w/o SMP' (shared-memory prefetch disabled) vs 'w/o UM'
// (cudaMalloc + cudaMemcpy) — per dataset. Paper shapes: w/o SMP costs
// 1.11-2.14x on the compute-bound datasets, w/o UM costs 1.02-1.26x and
// cannot run uk-2006 at all.
#include "bench_common.hpp"
#include "core/framework.hpp"

using namespace eta;

int main(int argc, char** argv) {
  std::vector<std::string> all;
  for (const auto& info : graph::AllDatasets()) all.push_back(info.name);
  bench::BenchEnv env = bench::ParseBenchArgs(argc, argv, all);
  const core::Algo algo = bench::AlgoFlag(env);

  util::Table table({"Dataset", "EtaGraph (ms)", "w/o SMP", "w/o UM", "w/o UMP"});
  for (const std::string& name : env.datasets) {
    graph::Csr csr = bench::Load(env, name);
    auto run = [&](bool smp, core::MemoryMode mode) {
      core::EtaGraphOptions options;
      options.use_smp = smp;
      options.memory_mode = mode;
      return core::EtaGraph(options).Run(csr, algo, graph::kQuerySource);
    };
    auto base = run(true, core::MemoryMode::kUnifiedPrefetch);
    auto no_smp = run(false, core::MemoryMode::kUnifiedPrefetch);
    auto no_um = run(true, core::MemoryMode::kExplicitCopy);
    auto no_ump = run(true, core::MemoryMode::kUnifiedOnDemand);
    auto norm = [&](const core::RunReport& r) {
      return r.oom ? std::string("O.O.M")
                   : util::FormatDouble(r.total_ms / base.total_ms, 2) + "x";
    };
    table.AddRow({graph::FindDataset(name)->paper_name,
                  util::FormatDouble(base.total_ms, 2), norm(no_smp), norm(no_um),
                  norm(no_ump)});
  }
  std::printf("%s\n", table.Render("Fig 6 - normalized runtimes of EtaGraph setups (" +
                                   std::string(core::AlgoName(algo)) +
                                   "); paper: w/o SMP 1.11-2.14x, w/o UM 1.02-1.26x "
                                   "and O.O.M on uk-2006")
                          .c_str());
  return 0;
}
