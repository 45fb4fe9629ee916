// Extension bench (beyond the paper's evaluation): the non-traversal
// workloads built on the same machinery — connected components via
// min-label propagation and PageRank — including the SMP on/off effect on
// PageRank's push kernel, supporting the paper's closing claim that SMP
// transfers to other vertex-centric frameworks.
#include "bench_common.hpp"
#include "core/framework.hpp"
#include "core/pagerank.hpp"
#include "graph/generators.hpp"

using namespace eta;

int main(int argc, char** argv) {
  bench::BenchEnv env = bench::ParseBenchArgs(argc, argv, {"livejournal", "orkut"});

  util::Table table({"Dataset", "CC iters", "CC total (ms)", "PR iters",
                     "PR total (ms)", "PR w/o SMP", "PR SMP speedup"});
  for (const std::string& name : env.datasets) {
    graph::Csr csr = bench::Load(env, name);

    auto cc = core::EtaGraph().RunConnectedComponents(csr);

    core::PageRankOptions pr_opts;
    pr_opts.epsilon = 1e-7;
    pr_opts.max_iterations = 30;
    auto pr = core::EtaGraph().RunPageRank(csr, pr_opts);
    core::EtaGraphOptions no_smp;
    no_smp.use_smp = false;
    auto pr_no_smp = core::EtaGraph(no_smp).RunPageRank(csr, pr_opts);

    table.AddRow({graph::FindDataset(name)->paper_name, std::to_string(cc.iterations),
                  util::FormatDouble(cc.total_ms, 2), std::to_string(pr.iterations),
                  util::FormatDouble(pr.total_ms, 2),
                  util::FormatDouble(pr_no_smp.total_ms, 2),
                  util::FormatDouble(pr_no_smp.total_ms / pr.total_ms, 2) + "x"});
  }
  std::printf("%s\n", table.Render("Extensions - connected components & PageRank on "
                                   "the EtaGraph substrate (SMP portability check)")
                          .c_str());
  return 0;
}
