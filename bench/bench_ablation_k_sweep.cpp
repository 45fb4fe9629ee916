// Ablation (beyond the paper's figures, motivated by Section III): sweep
// the Degree Limit K. Small K balances warps perfectly but multiplies
// shadow-vertex bookkeeping and atomics; large K degrades into plain
// vertex-centric imbalance. The sweet spot sits in the middle — this bench
// quantifies the U-shape that justifies the paper's moderate K.
#include "bench_common.hpp"
#include "core/framework.hpp"
#include "core/udc.hpp"

using namespace eta;

int main(int argc, char** argv) {
  bench::BenchEnv env = bench::ParseBenchArgs(argc, argv, {"livejournal", "rmat"});

  for (const std::string& name : env.datasets) {
    graph::Csr csr = bench::Load(env, name);
    util::Table table({"K", "Shadow vertices", "Shadow/|V|", "Kernel (ms)",
                       "Total (ms)", "vs K=16"});
    double base_total = 0;
    std::vector<std::vector<std::string>> rows;
    std::vector<double> totals;  // each row's total_ms, for the ratio column
    for (uint32_t k : {1u, 2u, 4u, 8u, 16u, 32u, 48u}) {
      core::EtaGraphOptions options;
      options.degree_limit = k;
      auto report = core::EtaGraph(options).Run(csr, core::Algo::kBfs,
                                                graph::kQuerySource);
      uint64_t shadows = core::ShadowCapacity(csr, k);
      if (k == 16) base_total = report.total_ms;
      totals.push_back(report.total_ms);
      if (report.oom) {
        // Tiny K multiplies the shadow bookkeeping until it no longer fits
        // device memory — itself a finding of the sweep.
        rows.push_back({std::to_string(k), std::to_string(shadows),
                        util::FormatDouble(double(shadows) / csr.NumVertices(), 2),
                        "O.O.M", "O.O.M", "-"});
        continue;
      }
      rows.push_back({std::to_string(k), std::to_string(shadows),
                      util::FormatDouble(double(shadows) / csr.NumVertices(), 2),
                      util::FormatDouble(report.kernel_ms, 3),
                      util::FormatDouble(report.total_ms, 3), ""});  // filled below
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      std::string& ratio = rows[i].back();
      if (ratio != "-") ratio = util::FormatDouble(totals[i] / base_total, 2) + "x";
      table.AddRow(std::move(rows[i]));
    }
    std::printf("%s\n", table.Render("Ablation - Degree Limit K sweep, BFS on " +
                                     graph::FindDataset(name)->paper_name)
                            .c_str());
  }
  return 0;
}
