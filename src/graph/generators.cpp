#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace eta::graph {

std::vector<Edge> GenerateRmat(const RmatParams& params) {
  ETA_CHECK(params.scale >= 1 && params.scale <= 30);
  ETA_CHECK(params.a >= 0 && params.b >= 0 && params.c >= 0 &&
            params.a + params.b + params.c <= 1.0 + 1e-9);

  util::SplitMix64 rng = util::SplitMix64::Stream(params.seed, /*tag=*/0xa11);

  // Per-level quadrant probabilities, optionally noised as in PaRMAT so the
  // degree distribution is smooth rather than lattice-like.
  struct LevelProbs {
    double a, ab, abc;  // cumulative thresholds: a | a+b | a+b+c
  };
  std::vector<LevelProbs> levels(params.scale);
  for (uint32_t l = 0; l < params.scale; ++l) {
    double a = params.a, b = params.b, c = params.c;
    if (params.noise) {
      auto wobble = [&rng](double p) { return p * (0.9 + 0.2 * rng.NextDouble()); };
      a = wobble(a);
      b = wobble(b);
      c = wobble(c);
      double d = wobble(1.0 - params.a - params.b - params.c);
      double sum = a + b + c + d;
      a /= sum;
      b /= sum;
      c /= sum;
    }
    levels[l] = {a, a + b, a + b + c};
  }

  std::vector<Edge> edges;
  edges.reserve(params.num_edges);
  for (uint64_t i = 0; i < params.num_edges; ++i) {
    VertexId u = 0, v = 0;
    // One bit per level, most significant first. Quadrants a | b | c | d
    // lie between the thresholds; u's bit is set in c and d, v's in b and
    // d, i.e. when an odd number of thresholds lie at or below r.
    for (const LevelProbs& p : levels) {
      double r = rng.NextDouble();
      bool past_a = r >= p.a, past_ab = r >= p.ab, past_abc = r >= p.abc;
      u = (u << 1) | past_ab;
      v = (v << 1) | (past_a ^ past_ab ^ past_abc);
    }
    edges.push_back({u, v});
  }
  return edges;
}

std::vector<Edge> GenerateErdosRenyi(VertexId n, uint64_t m, uint64_t seed) {
  ETA_CHECK(n > 1);
  util::SplitMix64 rng = util::SplitMix64::Stream(seed, /*tag=*/0xe4);
  std::vector<Edge> edges;
  edges.reserve(m);
  for (uint64_t i = 0; i < m; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(n));
    VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    edges.push_back({u, v});
  }
  return edges;
}

namespace {

/// Skewed pick in [0, size): squaring the uniform variate biases toward low
/// indices, giving web-like in-degree skew within a layer.
VertexId SkewedPick(util::SplitMix64& rng, VertexId base, VertexId size) {
  double r = rng.NextDouble();
  return base + static_cast<VertexId>(r * r * size);
}

}  // namespace

std::vector<Edge> GenerateWebGraph(const WebGraphParams& p) {
  ETA_CHECK(p.num_communities >= 1);
  ETA_CHECK(p.community_depth >= 1);
  ETA_CHECK(p.lcc_fraction > 0.0 && p.lcc_fraction <= 1.0);

  util::SplitMix64 rng = util::SplitMix64::Stream(p.seed, /*tag=*/0x3b);

  const VertexId chain_vertices =
      std::max<VertexId>(p.num_communities * p.community_depth,
                         static_cast<VertexId>(p.lcc_fraction * p.num_vertices));
  const VertexId comm_size = chain_vertices / p.num_communities;
  ETA_CHECK(comm_size >= p.community_depth);
  const VertexId layer_size = comm_size / p.community_depth;
  const uint64_t chain_edges =
      static_cast<uint64_t>(static_cast<double>(p.num_edges) *
                            (static_cast<double>(chain_vertices) / p.num_vertices));

  std::vector<Edge> edges;
  edges.reserve(p.num_edges + 8ULL * p.num_communities);

  // --- The reachable chain of communities -------------------------------
  // Community i owns [i*comm_size, (i+1)*comm_size), split into
  // community_depth layers. Edges inside a community either advance one
  // layer (probability 1/2) or land in the same-or-earlier layers, so the
  // BFS depth through one community is ~community_depth; shortcuts that
  // would shrink the diameter are structurally impossible.
  const uint64_t edges_per_comm = chain_edges / p.num_communities;
  for (uint32_t ci = 0; ci < p.num_communities; ++ci) {
    const VertexId base = ci * comm_size;
    for (uint64_t e = 0; e < edges_per_comm; ++e) {
      // Skewed source pick: a few vertices per layer become out-hubs.
      uint32_t src_layer = static_cast<uint32_t>(rng.NextBounded(p.community_depth));
      VertexId src = SkewedPick(rng, base + src_layer * layer_size, layer_size);
      uint32_t dst_layer;
      if (src_layer + 1 < p.community_depth && rng.NextDouble() < 0.5) {
        dst_layer = src_layer + 1;  // advance
      } else {
        dst_layer = static_cast<uint32_t>(rng.NextBounded(src_layer + 1));  // back/lateral
      }
      VertexId dst = SkewedPick(rng, base + dst_layer * layer_size, layer_size);
      edges.push_back({src, dst});
    }
    // Forward links: last layer of community ci to the entry (layer 0) of
    // community ci+1. A handful of links keeps the crossing narrow.
    if (ci + 1 < p.num_communities) {
      const VertexId next_base = (ci + 1) * comm_size;
      const VertexId last_layer = base + (p.community_depth - 1) * layer_size;
      for (int k = 0; k < 4; ++k) {
        VertexId src = last_layer + static_cast<VertexId>(rng.NextBounded(layer_size));
        VertexId dst = next_base + static_cast<VertexId>(rng.NextBounded(
                           std::max<VertexId>(1, layer_size / 4)));
        edges.push_back({src, dst});
      }
    }
  }

  // --- Unreachable side components ---------------------------------------
  // The remaining vertices form independent random clusters with no edges
  // to or from the chain; they count toward |V| and |E| but never activate,
  // which is exactly how the paper's web crawls behave (LCC 65-71%).
  const VertexId side_begin = p.num_communities * comm_size;
  const VertexId side_count = p.num_vertices > side_begin ? p.num_vertices - side_begin : 0;
  if (side_count > 1) {
    const uint64_t side_edges = p.num_edges > edges.size() ? p.num_edges - edges.size() : 0;
    const VertexId cluster = std::max<VertexId>(64, side_count / 64);
    for (uint64_t e = 0; e < side_edges; ++e) {
      VertexId u = side_begin + static_cast<VertexId>(rng.NextBounded(side_count));
      VertexId cluster_base = side_begin + ((u - side_begin) / cluster) * cluster;
      VertexId cluster_size = std::min<VertexId>(cluster, side_begin + side_count - cluster_base);
      VertexId v = cluster_base + static_cast<VertexId>(rng.NextBounded(cluster_size));
      edges.push_back({u, v});
    }
  }
  return edges;
}

std::vector<Edge> MirrorEdges(std::vector<Edge> edges, double fraction, uint64_t seed) {
  ETA_CHECK(fraction >= 0.0 && fraction <= 1.0);
  util::SplitMix64 rng = util::SplitMix64::Stream(seed, /*tag=*/0x313);
  size_t original = edges.size();
  edges.reserve(original + static_cast<size_t>(original * fraction) + 1);
  for (size_t i = 0; i < original; ++i) {
    if (rng.NextDouble() < fraction) {
      edges.push_back({edges[i].dst, edges[i].src});
    }
  }
  return edges;
}

std::vector<Edge> CompactVertexIds(std::vector<Edge> edges, VertexId* num_vertices) {
  VertexId max_id = 0;
  for (const Edge& e : edges) max_id = std::max({max_id, e.src, e.dst});
  std::vector<VertexId> remap(static_cast<size_t>(max_id) + 1, kInvalidVertex);
  for (const Edge& e : edges) {
    remap[e.src] = 0;
    remap[e.dst] = 0;
  }
  VertexId next = 0;
  for (VertexId& slot : remap) {
    if (slot != kInvalidVertex) slot = next++;
  }
  for (Edge& e : edges) {
    e.src = remap[e.src];
    e.dst = remap[e.dst];
  }
  if (num_vertices) *num_vertices = next;
  return edges;
}

std::vector<Edge> AppendTailChain(std::vector<Edge> edges, VertexId attach,
                                  VertexId first_new_id, uint32_t depth,
                                  uint32_t width, uint64_t seed) {
  ETA_CHECK(depth >= 1 && width >= 1);
  util::SplitMix64 rng = util::SplitMix64::Stream(seed, /*tag=*/0x7a11);
  auto layer_vertex = [&](uint32_t layer, uint32_t i) {
    return first_new_id + layer * width + i;
  };
  // attach -> layer 0.
  for (uint32_t i = 0; i < width; ++i) edges.push_back({attach, layer_vertex(0, i)});
  for (uint32_t layer = 0; layer + 1 < depth; ++layer) {
    for (uint32_t i = 0; i < width; ++i) {
      // Every next-layer vertex covered, plus a random extra for texture.
      edges.push_back({layer_vertex(layer, i), layer_vertex(layer + 1, i)});
      edges.push_back({layer_vertex(layer, i),
                       layer_vertex(layer + 1,
                                    static_cast<uint32_t>(rng.NextBounded(width)))});
    }
  }
  return edges;
}

std::vector<Edge> PlantTinySourceComponent(std::vector<Edge> edges,
                                           VertexId component_size,
                                           uint32_t depth, uint64_t seed) {
  ETA_CHECK(component_size >= depth + 1);
  util::SplitMix64 rng = util::SplitMix64::Stream(seed, /*tag=*/0x71);

  // Shift the host graph out of the way.
  for (Edge& e : edges) {
    e.src += component_size;
    e.dst += component_size;
  }

  // Layered mini-component on [0, component_size): layer 0 is just the
  // source (vertex 0); layers 1..depth share the remaining vertices. Every
  // layer fully covers the next, so BFS from the source visits the whole
  // component in exactly `depth` hops.
  const VertexId ls = (component_size - 1) / depth;
  ETA_CHECK(ls >= 1);
  auto layer_begin = [&](uint32_t j) -> VertexId { return j == 0 ? 0 : 1 + (j - 1) * ls; };
  auto layer_size = [&](uint32_t j) -> VertexId {
    if (j == 0) return 1;
    return j == depth ? component_size - 1 - (depth - 1) * ls : ls;
  };
  for (uint32_t j = 0; j < depth; ++j) {
    // Coverage: every next-layer vertex has a parent in this layer.
    for (VertexId d = 0; d < layer_size(j + 1); ++d) {
      VertexId src = layer_begin(j) + (d % layer_size(j));
      edges.push_back({src, layer_begin(j + 1) + d});
    }
    // Texture: a few extra random forward edges.
    for (VertexId v = layer_begin(j); v < layer_begin(j) + layer_size(j); ++v) {
      VertexId dst = layer_begin(j + 1) +
                     static_cast<VertexId>(rng.NextBounded(layer_size(j + 1)));
      edges.push_back({v, dst});
    }
  }
  return edges;
}

}  // namespace eta::graph
