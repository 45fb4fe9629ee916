// Widest-path routing (SSWP): given a transport network whose edge weights
// are link capacities, find the maximum bottleneck capacity from a depot to
// every destination — the paper's third traversal workload. Demonstrates
// weighted traversal, a non-zero source, and the Unified Memory modes.
//
//   $ ./route_width [--hubs=N]
//
#include <algorithm>
#include <cstdio>

#include "core/framework.hpp"
#include "graph/builder.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace eta;

namespace {

/// A hub-and-spoke freight network: `hubs` regional hubs in a ring of
/// high-capacity trunks; each hub serves a fan of local depots over
/// lower-capacity links; a few random cross-links add alternative routes.
graph::Csr BuildFreightNetwork(uint32_t hubs, uint32_t depots_per_hub, uint64_t seed) {
  util::SplitMix64 rng(seed);
  std::vector<graph::Edge> edges;
  std::vector<graph::Weight> weights;
  auto add = [&](graph::VertexId a, graph::VertexId b, graph::Weight cap) {
    edges.push_back({a, b});
    weights.push_back(cap);
    edges.push_back({b, a});
    weights.push_back(cap);
  };
  const auto depot = [&](uint32_t hub, uint32_t i) {
    return hubs + hub * depots_per_hub + i;
  };
  for (uint32_t h = 0; h < hubs; ++h) {
    add(h, (h + 1) % hubs, 80 + static_cast<graph::Weight>(rng.NextBounded(20)));
    for (uint32_t i = 0; i < depots_per_hub; ++i) {
      add(h, depot(h, i), 10 + static_cast<graph::Weight>(rng.NextBounded(30)));
    }
  }
  for (uint32_t k = 0; k < hubs * 2; ++k) {  // cross-links
    auto a = static_cast<graph::VertexId>(rng.NextBounded(hubs * (depots_per_hub + 1)));
    auto b = static_cast<graph::VertexId>(rng.NextBounded(hubs * (depots_per_hub + 1)));
    if (a != b) add(a, b, 5 + static_cast<graph::Weight>(rng.NextBounded(15)));
  }

  // Build CSR keeping the parallel weight array aligned (no dedup).
  graph::VertexId n = hubs * (depots_per_hub + 1);
  std::vector<graph::EdgeId> offsets(n + 1, 0);
  for (const auto& e : edges) ++offsets[e.src + 1];
  for (graph::VertexId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<graph::VertexId> targets(edges.size());
  std::vector<graph::Weight> out_weights(edges.size());
  std::vector<graph::EdgeId> cursor(offsets.begin(), offsets.end() - 1);
  for (size_t i = 0; i < edges.size(); ++i) {
    graph::EdgeId slot = cursor[edges[i].src]++;
    targets[slot] = edges[i].dst;
    out_weights[slot] = weights[i];
  }
  graph::Csr csr(std::move(offsets), std::move(targets));
  csr.SetWeights(std::move(out_weights));
  return csr;
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  auto cl = util::CommandLine::Parse(argc, argv, &error);
  if (!cl) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  const auto hubs = static_cast<uint32_t>(cl->GetInt("hubs", 64, 1, 1 << 16));
  graph::Csr csr = BuildFreightNetwork(hubs, /*depots_per_hub=*/30, /*seed=*/5);
  std::printf("freight network: %u sites, %u directed links\n", csr.NumVertices(),
              csr.NumEdges());

  const graph::VertexId depot0 = hubs;  // first depot of hub 0
  core::RunReport widest = core::EtaGraph().Run(csr, core::Algo::kSswp, depot0);
  core::RunReport shortest = core::EtaGraph().Run(csr, core::Algo::kSssp, depot0);

  // Distribution of guaranteed shipment capacity from the depot.
  std::vector<graph::Weight> widths;
  for (graph::Weight w : widest.labels) {
    if (w != 0 && w != core::kInf) widths.push_back(w);
  }
  std::sort(widths.begin(), widths.end());
  auto pct = [&](double q) { return widths[static_cast<size_t>(q * (widths.size() - 1))]; };
  std::printf("\nmax bottleneck capacity from depot %u to %zu reachable sites:\n",
              depot0, widths.size());
  std::printf("  p10=%u  p50=%u  p90=%u  max=%u tons\n", pct(0.1), pct(0.5), pct(0.9),
              widths.back());

  // Widest and shortest routes disagree — show a destination where the
  // high-capacity route is not the short one.
  for (graph::VertexId v = 0; v < csr.NumVertices(); ++v) {
    if (widest.labels[v] == 0 || widest.labels[v] == core::kInf) continue;
    if (widest.labels[v] >= 80 && shortest.labels[v] >= 40) {
      std::printf("\nsite %u: %u tons guaranteed via trunk ring, though the direct\n"
                  "route costs distance %u — widest != shortest.\n",
                  v, widest.labels[v], shortest.labels[v]);
      break;
    }
  }
  std::printf("\nsimulated: SSWP %.3f ms, SSSP %.3f ms (%u / %u iterations)\n",
              widest.total_ms, shortest.total_ms, widest.iterations,
              shortest.iterations);

  bool ok = widest.labels == core::CpuReference(csr, core::Algo::kSswp, depot0);
  std::printf("verified against CPU widest-path Dijkstra: %s\n", ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}
