// Shared plumbing for the paper-reproduction bench binaries.
//
// Every bench accepts:
//   --datasets=a,b,c   restrict to named datasets (default: the bench's set)
//   --scale=0.25       shrink stand-ins for a quick pass, in (0,1] (default 1.0)
//   --cache=DIR        dataset cache directory (default ./eta_dataset_cache)
// Output is a plain-text table on stdout mirroring the paper's table or
// figure, plus a short "paper vs measured" note. The simulator is
// deterministic, so a single run replaces the paper's average-of-five.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "core/traversal.hpp"
#include "graph/csr.hpp"
#include "graph/datasets.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/number.hpp"
#include "util/table.hpp"

namespace eta::bench {

struct BenchEnv {
  util::CommandLine cl;
  std::vector<std::string> datasets;
  double scale = 1.0;
  std::string cache_dir;
};

/// Parses flags; exits on malformed or unknown-dataset input.
inline BenchEnv ParseBenchArgs(int argc, char** argv,
                               std::vector<std::string> default_datasets) {
  std::string error;
  auto cl = util::CommandLine::Parse(argc, argv, &error);
  if (!cl) {
    std::fprintf(stderr, "bad arguments: %s\n", error.c_str());
    std::exit(2);
  }
  BenchEnv env{.cl = *cl, .datasets = {}, .scale = 1.0, .cache_dir = {}};
  env.scale = cl->GetDouble("scale", 1.0, util::kAboveZero, 1.0);
  env.cache_dir = cl->GetString("cache", "eta_dataset_cache");
  std::string list = cl->GetString("datasets", "");
  if (list.empty()) {
    env.datasets = std::move(default_datasets);
  } else {
    for (std::string_view item : util::Split(list, ',')) {
      const std::string& name = env.datasets.emplace_back(item);
      if (!graph::FindDataset(name)) {
        std::fprintf(stderr, "unknown dataset '%s'\n", name.c_str());
        std::exit(2);
      }
    }
  }
  return env;
}

/// The --algo flag of the traversal benches: bfs, sssp (default) or sswp;
/// exits on anything else.
inline core::Algo AlgoFlag(const BenchEnv& env) {
  const std::string name = env.cl.GetString("algo", "sssp");
  if (name == "bfs") return core::Algo::kBfs;
  if (name == "sssp") return core::Algo::kSssp;
  if (name == "sswp") return core::Algo::kSswp;
  std::fprintf(stderr, "unknown --algo '%s' (bfs | sssp | sswp)\n", name.c_str());
  std::exit(2);
}

/// The dataset at the bench's scale, with edge weights for SSSP/SSWP.
inline graph::Csr Load(const BenchEnv& env, const std::string& name, double sub_scale = 1) {
  graph::Csr csr = graph::BuildDatasetCached(name, env.cache_dir, env.scale * sub_scale);
  if (!csr.HasWeights()) csr.DeriveWeights(1);
  return csr;
}

/// "12.3/45.6" — the t_kernel/t_total cell format of Table III.
inline std::string KernelTotalCell(double kernel_ms, double total_ms) {
  return util::FormatDouble(kernel_ms, kernel_ms < 10 ? 2 : 1) + "/" +
         util::FormatDouble(total_ms, total_ms < 10 ? 2 : 1);
}

/// Writes `reports` (anything with a Json() rendering, e.g. serve reports)
/// to `path` as one JSON array, a report per line, and says so on stdout.
template <typename Report>
void WriteJsonReports(const std::string& path, const std::vector<Report>& reports) {
  util::JsonWriter json;
  json.BeginArray();
  for (const Report& report : reports) json.Newline().Raw(report.Json());
  const std::string text = json.Newline().EndArray().Newline().Take();
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(text.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }
}

}  // namespace eta::bench
