// Social-network influence radius: the workload the paper's introduction
// motivates. Generates a LiveJournal-like social graph, runs BFS from a
// seed user, and reports how many accounts each "degree of separation"
// reaches — then shows why frontier-based execution matters by comparing
// EtaGraph's per-iteration activity against the flat per-iteration cost an
// edge-centric system (CuSha-style) would pay.
//
//   $ ./social_influence [--edges=N] [--seed-user=V]
//
#include <cstdio>
#include <map>

#include "baselines/cusha.hpp"
#include "core/framework.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"

using namespace eta;

int main(int argc, char** argv) {
  std::string error;
  auto cl = util::CommandLine::Parse(argc, argv, &error);
  if (!cl) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  const auto edges_target = static_cast<uint64_t>(cl->GetInt("edges", 400'000, 2, 1 << 24));
  const auto seed_user =
      static_cast<graph::VertexId>(cl->GetInt("seed-user", 0, 0, graph::kInvalidVertex - 1));

  // A social graph: power-law skew, high reciprocity.
  graph::RmatParams params;
  params.scale = 16;
  params.num_edges = edges_target / 2;
  params.a = 0.57;
  params.b = 0.19;
  params.c = 0.19;
  params.seed = 2024;
  auto edges = graph::MirrorEdges(graph::GenerateRmat(params), 0.7, 7);
  graph::VertexId n = 0;
  edges = graph::CompactVertexIds(std::move(edges), &n);
  graph::Csr csr = graph::BuildCsr(std::move(edges));
  csr.DeriveWeights(1);
  std::printf("social graph: %u accounts, %u follow edges\n", csr.NumVertices(),
              csr.NumEdges());
  if (seed_user >= csr.NumVertices()) {
    std::fprintf(stderr, "social_influence: --seed-user must be < %u\n", csr.NumVertices());
    return 2;
  }

  core::RunReport report = core::EtaGraph().Run(csr, core::Algo::kBfs, seed_user);

  // Degrees of separation histogram.
  std::map<graph::Weight, uint64_t> by_hops;
  for (graph::Weight level : report.labels) {
    if (level != core::kInf) ++by_hops[level];
  }
  std::printf("\ninfluence radius of account %u:\n", seed_user);
  uint64_t cumulative = 0;
  for (auto [hops, count] : by_hops) {
    cumulative += count;
    std::printf("  %u hop(s): %8llu accounts (cumulative %5.1f%%)\n", hops,
                static_cast<unsigned long long>(count),
                100.0 * cumulative / csr.NumVertices());
  }

  // Frontier economics: work EtaGraph actually scheduled per iteration vs
  // the |E| an edge-centric pass would stream every iteration.
  std::printf("\nper-iteration scheduled shadow vertices (vs %u edges/iter for an\n"
              "edge-centric framework):\n",
              csr.NumEdges());
  for (const auto& it : report.iteration_stats) {
    std::printf("  iter %2u: %8llu active, %8llu shadow vertices\n", it.iteration,
                static_cast<unsigned long long>(it.active_vertices),
                static_cast<unsigned long long>(it.shadow_vertices));
  }

  auto cusha = baselines::Cusha().Run(csr, core::Algo::kBfs, seed_user);
  std::printf("\nsimulated time: EtaGraph %.3f ms vs edge-centric CuSha %.3f ms "
              "(%.1fx)\n",
              report.total_ms, cusha.total_ms, cusha.total_ms / report.total_ms);
  return 0;
}
