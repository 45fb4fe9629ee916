// Extension bench: direction-optimizing (push/pull) BFS vs push-only BFS
// on the social stand-ins — the Beamer-style optimization the paper cites
// as related work [34], implemented on the same simulated substrate.
#include "bench_common.hpp"
#include "core/framework.hpp"

using namespace eta;

int main(int argc, char** argv) {
  bench::BenchEnv env =
      bench::ParseBenchArgs(argc, argv, {"slashdot", "livejournal", "orkut"});

  util::Table table({"Dataset", "Push-only kernel (ms)", "Hybrid kernel (ms)",
                     "Speedup", "Pull iterations"});
  for (const std::string& name : env.datasets) {
    graph::Csr csr = bench::Load(env, name);
    const core::EtaGraph eta;

    core::HybridBfsOptions push_only;
    push_only.alpha = 0.5;  // never switch
    const core::RunReport push = eta.RunHybridBfs(csr, graph::kQuerySource, push_only);

    const core::RunReport hybrid = eta.RunHybridBfs(csr, graph::kQuerySource);

    table.AddRow({graph::FindDataset(name)->paper_name,
                  util::FormatDouble(push.kernel_ms, 3),
                  util::FormatDouble(hybrid.kernel_ms, 3),
                  util::FormatDouble(push.kernel_ms / hybrid.kernel_ms, 2) + "x",
                  std::to_string(hybrid.bottom_up_iterations) + "/" +
                      std::to_string(hybrid.iterations)});
  }
  std::printf("%s\n", table.Render("Extension - direction-optimizing BFS (pull mode "
                                   "kicks in on the fat middle iterations of the "
                                   "social graphs)")
                          .c_str());
  return 0;
}
