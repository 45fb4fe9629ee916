// Concurrent multi-source queries (iBFS-style, see the paper's related
// work [10]): nearest-facility search. Given a delivery network and a set
// of warehouse locations, one multi-source SSSP labels every address with
// the distance to its *nearest* warehouse — one traversal instead of
// |warehouses| separate ones.
//
//   $ ./multi_query [--warehouses=N]
//
#include <cstdio>

#include "core/framework.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace eta;

int main(int argc, char** argv) {
  std::string error;
  auto cl = util::CommandLine::Parse(argc, argv, &error);
  if (!cl) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  const auto num_warehouses = static_cast<uint32_t>(cl->GetInt("warehouses", 8, 1, 1024));

  // A city-like network: mostly-local links with a few long-range roads.
  auto edges = graph::MirrorEdges(graph::GenerateErdosRenyi(60'000, 300'000, 77), 1.0, 7);
  graph::Csr csr = graph::BuildCsr(std::move(edges));
  csr.DeriveWeights(123, /*max_weight=*/30);
  std::printf("delivery network: %u addresses, %u road segments\n", csr.NumVertices(),
              csr.NumEdges());

  // Deterministically scattered warehouse sites.
  util::SplitMix64 rng(5);
  std::vector<graph::VertexId> warehouses;
  for (uint32_t i = 0; i < num_warehouses; ++i) {
    warehouses.push_back(static_cast<graph::VertexId>(rng.NextBounded(csr.NumVertices())));
  }

  core::EtaGraph framework;
  core::RunReport multi = framework.RunMultiSource(csr, core::Algo::kSssp, warehouses);

  // The same answer via N single-source runs (what you'd do without the
  // multi-source extension) — compare cost.
  double single_total = 0;
  std::vector<graph::Weight> merged(csr.NumVertices(), core::kInf);
  for (graph::VertexId w : warehouses) {
    core::RunReport r = framework.Run(csr, core::Algo::kSssp, w);
    single_total += r.total_ms;
    for (size_t v = 0; v < merged.size(); ++v) {
      merged[v] = std::min(merged[v], r.labels[v]);
    }
  }

  bool same = merged == multi.labels;
  uint64_t reachable = 0;
  double sum = 0;
  for (graph::Weight d : multi.labels) {
    if (d != core::kInf) {
      ++reachable;
      sum += d;
    }
  }
  std::printf("\n%u warehouses cover %llu addresses; mean distance to nearest "
              "warehouse: %.1f\n",
              num_warehouses, static_cast<unsigned long long>(reachable),
              sum / static_cast<double>(reachable));
  std::printf("one multi-source traversal: %8.3f ms (simulated)\n", multi.total_ms);
  std::printf("%u single-source traversals: %8.3f ms (%.1fx more)\n", num_warehouses,
              single_total, single_total / multi.total_ms);
  std::printf("results identical: %s\n", same ? "OK" : "MISMATCH");
  return same ? 0 : 1;
}
