#include "graph/datasets.hpp"

#include <unistd.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <filesystem>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace eta::graph {

namespace {

/// Social-network R-MAT parameters (Graph500-style skew).
constexpr double kSocialA = 0.57, kSocialB = 0.19, kSocialC = 0.19;

struct StandInRecipe {
  // Social/R-MAT knobs.
  uint32_t rmat_scale = 0;
  double a = kSocialA, b = kSocialB, c = kSocialC;
  /// Fraction of edges mirrored (social reciprocity; 1.0 = undirected).
  double reciprocal = 0.0;
  /// Drop untouched R-MAT IDs (real social graphs have no phantom IDs).
  bool compact = false;
  /// Long-tail chain depth (0 = none); reproduces the paper's BFS
  /// iteration counts on the social graphs (Table IV).
  uint32_t tail_depth = 0;
  // Web knobs.
  WebGraphParams web{};
  // Tiny source component (uk-2006 only).
  VertexId tiny_component = 0;
  uint32_t tiny_depth = 0;
  // Shared; web recipes keep their edge budget in `web`.
  uint64_t num_edges = 0;
  uint64_t seed = 0;
};

StandInRecipe RecipeFor(const std::string& name) {
  // Edge budgets are calibrated against the 144 MB simulated device memory
  // so that Table III's O.O.M pattern reproduces; see DESIGN.md §1.
  if (name == "slashdot") {
    return {.rmat_scale = 17, .reciprocal = 0.6, .compact = true, .tail_depth = 7,
            .num_edges = 570'000, .seed = 11};
  }
  if (name == "livejournal") {
    return {.rmat_scale = 17, .reciprocal = 0.5, .compact = true, .tail_depth = 14,
            .num_edges = 1'200'000, .seed = 12};
  }
  if (name == "orkut") {
    return {.rmat_scale = 16, .reciprocal = 1.0, .compact = true, .tail_depth = 7,
            .num_edges = 1'150'000, .seed = 13};
  }
  if (name == "rmat") {
    return {.rmat_scale = 19, .a = 0.45, .b = 0.22, .c = 0.22, .tail_depth = 8,
            .num_edges = 8'000'000, .seed = 14};
  }
  if (name == "uk2005") {
    return {.web = {.num_vertices = 300'000, .num_edges = 6'000'000, .num_communities = 66,
                    .lcc_fraction = 0.652, .community_depth = 3, .seed = 15},
            .seed = 15};
  }
  if (name == "sk2005") {
    return {.web = {.num_vertices = 500'000, .num_edges = 16'000'000, .num_communities = 19,
                    .lcc_fraction = 0.708, .community_depth = 3, .seed = 16},
            .seed = 16};
  }
  if (name == "uk2006") {
    return {.web = {.num_vertices = 1'100'000, .num_edges = 34'000'000, .num_communities = 30,
                    .lcc_fraction = 0.71, .community_depth = 3, .seed = 17},
            .tiny_component = 90, .tiny_depth = 4, .seed = 17};
  }
  ETA_CHECK(false && "unknown dataset name");
  return {};
}

}  // namespace

const std::vector<DatasetInfo>& AllDatasets() {
  static const std::vector<DatasetInfo> kDatasets = {
      {"slashdot", "Slashdot", "social", {0.077, 0.9, 11.7, 98, 8}},
      {"livejournal", "LiveJournal", "social", {5, 69, 14.2, 99, 15}},
      {"orkut", "com-Orkut", "social", {3, 117, 38.1, 99, 8}},
      {"rmat", "RMAT25", "rmat", {32, 512, 32, 81, 9}},
      {"uk2005", "uk-2005", "web", {39, 936, 23.7, 65.2, 200}},
      {"sk2005", "sk-2005", "web", {50, 1949, 38.5, 70.8, 57}},
      {"uk2006", "uk-2006", "web", {80, 2481, 30.7, 71, 4}},
  };
  return kDatasets;
}

std::optional<DatasetInfo> FindDataset(const std::string& name) {
  for (const DatasetInfo& info : AllDatasets()) {
    if (info.name == name) return info;
  }
  return std::nullopt;
}

std::vector<Edge> GenerateDatasetEdges(const std::string& name, double scale) {
  ETA_CHECK(scale > 0.0 && scale <= 1.0);
  ETA_CHECK(FindDataset(name).has_value());
  StandInRecipe recipe = RecipeFor(name);

  std::vector<Edge> edges;
  if (recipe.rmat_scale != 0) {
    RmatParams params;
    params.scale = recipe.rmat_scale;
    // Shrink vertices with sqrt so average degree stays roughly constant
    // when smoke tests scale down.
    while (scale < 0.6 && params.scale > 10) {
      --params.scale;
      scale *= 2;
    }
    params.num_edges = static_cast<uint64_t>(recipe.num_edges * scale);
    params.a = recipe.a;
    params.b = recipe.b;
    params.c = recipe.c;
    params.seed = recipe.seed;
    edges = GenerateRmat(params);
    if (recipe.reciprocal > 0) {
      edges = MirrorEdges(std::move(edges), recipe.reciprocal, recipe.seed + 5);
    }
    VertexId num_vertices = VertexId{1} << params.scale;
    if (recipe.compact) {
      edges = CompactVertexIds(std::move(edges), &num_vertices);
    }
    if (recipe.tail_depth > 0) {
      edges = AppendTailChain(std::move(edges), /*attach=*/0, num_vertices,
                              recipe.tail_depth, /*width=*/8, recipe.seed + 6);
    }
  } else {
    WebGraphParams params = recipe.web;
    params.num_vertices = static_cast<VertexId>(params.num_vertices * scale);
    params.num_edges = static_cast<uint64_t>(params.num_edges * scale);
    edges = GenerateWebGraph(params);
    if (recipe.tiny_component != 0) {
      edges = PlantTinySourceComponent(std::move(edges), recipe.tiny_component,
                                       recipe.tiny_depth, recipe.seed + 1);
    }
  }

  return edges;
}

Csr BuildDataset(const std::string& name, double scale) {
  Csr csr = BuildCsr(GenerateDatasetEdges(name, scale));
  csr.DeriveWeights(/*seed=*/RecipeFor(name).seed * 7919);
  ETA_CHECK(csr.Validate());
  return csr;
}

Csr BuildDatasetCached(const std::string& name, const std::string& cache_dir,
                       double scale) {
  namespace fs = std::filesystem;
  fs::create_directories(cache_dir);
  // The scale's exact bit pattern: scales that round alike get their own file.
  char key[64];
  std::snprintf(key, sizeof(key), "%s_s%016" PRIx64 "_v%u.gr", name.c_str(),
                std::bit_cast<uint64_t>(scale), kDatasetGeneratorVersion);
  fs::path path = fs::path(cache_dir) / key;
  if (fs::exists(path)) {
    std::string error;
    if (std::optional<Csr> cached = ReadGaloisGr(path.string(), &error)) return *std::move(cached);
    ETA_LOG(Warn) << "rebuilding dataset " << name << ": " << error;
  }
  Csr csr = BuildDataset(name, scale);
  // Write then rename, so a reader never sees a partly written file.
  const fs::path tmp = path.string() + ".tmp" + std::to_string(::getpid());
  WriteGaloisGr(csr, tmp.string());
  fs::rename(tmp, path);
  ETA_LOG(Info) << "cached dataset " << name << " at " << path.string();
  return csr;
}

}  // namespace eta::graph
