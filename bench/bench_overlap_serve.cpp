// Staging/compute overlap under the stream dispatcher (DESIGN.md section
// 11): the same staging-heavy trace replayed sync vs async on one shard.
//
// Two mixes stress the two places staging lands on the critical path:
//
//   cold-burst    a burst over a 4-graph catalog with no memory budget —
//                 every graph staged once, cold, mid-replay. The async
//                 dispatcher pre-stages the next queued graph on the copy
//                 stream while the current batch computes.
//   evict-thrash  the same burst under a budget that fits only the two
//                 largest graphs, so the round-robin catalog evicts and
//                 re-stages continuously — the worst case the LRU layer
//                 can hand the dispatcher, and the best case for overlap.
//
// Answers are required bit-identical between the two dispatchers on both
// mixes (per-request status + reached counts); the throughput lift on at
// least one mix is the paper-motivated win (overlap excavated from the
// copy/compute engines) and gates the exit code.
//
// Emits BENCH_overlap_serve.json (one JSON object per row) next to the
// table.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/framework.hpp"
#include "serve/arrivals.hpp"
#include "serve/router.hpp"
#include "serve/trace.hpp"
#include "util/table.hpp"

using namespace eta;

namespace {

constexpr size_t kGraphs = 4;

bool SameAnswers(const serve::ServeReport& a, const serve::ServeReport& b) {
  if (a.results.size() != b.results.size()) return false;
  for (size_t i = 0; i < a.results.size(); ++i) {
    const serve::QueryResult& x = a.results[i];
    const serve::QueryResult& y = b.results[i];
    if (x.id != y.id || x.status != y.status ||
        x.reached_vertices != y.reached_vertices) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  auto env = bench::ParseBenchArgs(argc, argv, {"slashdot"});
  const auto requests =
      static_cast<uint32_t>(env.cl.GetInt("requests", 192, 1, serve::kMaxArrivalRequests));
  const uint64_t seed = static_cast<uint64_t>(env.cl.GetInt("seed", 1, 0));
  const std::string json_path = env.cl.GetString("json", "BENCH_overlap_serve.json");

  // A 4-graph catalog of shrinking stand-ins: distinct footprints make the
  // eviction mix thrash deterministically (the two largest fit, the rest
  // rotate through).
  const double sub_scales[kGraphs] = {1.0, 0.8, 0.65, 0.5};
  std::vector<graph::Csr> catalog;
  catalog.reserve(kGraphs);
  for (double sub : sub_scales) {
    catalog.push_back(bench::Load(env, env.datasets.front(), sub));
  }
  std::vector<const graph::Csr*> graphs;
  uint32_t min_vertices = catalog.front().NumVertices();
  for (const graph::Csr& g : catalog) {
    graphs.push_back(&g);
    min_vertices = std::min(min_vertices, g.NumVertices());
  }
  std::printf("catalog: %zu scaled %s stand-ins, %u..%u vertices\n", kGraphs,
              env.datasets.front().c_str(), min_vertices,
              catalog.front().NumVertices());

  // One saturating burst, round-robin across the catalog — every dispatch
  // is followed by a queued request for a different graph, so the async
  // dispatcher always has something to pre-stage. Sources are drawn below
  // the smallest catalog member so every request is valid on its graph.
  serve::TraceOptions trace_options;
  trace_options.num_requests = requests;
  trace_options.mean_interarrival_ms = 0.01;
  trace_options.seed = seed;
  std::vector<serve::Request> trace = serve::GenerateTrace(min_vertices, trace_options);
  for (size_t i = 0; i < trace.size(); ++i) {
    trace[i].graph_id = static_cast<uint32_t>(i % kGraphs);
  }

  // The thrash budget: the two largest graphs fit together (even with
  // weights staged, the fattest footprint a session takes), three never do.
  std::vector<uint64_t> est;
  for (const graph::Csr& g : catalog) {
    est.push_back(core::ResidentGraph::EstimateDeviceBytes(g, {}, /*stage_weights=*/true));
  }
  std::sort(est.begin(), est.end(), std::greater<>());
  const uint64_t thrash_budget = est[0] + est[1];

  struct Mix {
    const char* name;
    uint64_t budget;
  };
  const Mix mixes[] = {{"cold-burst", 0}, {"evict-thrash", thrash_budget}};

  std::vector<serve::ServeReport> reports;
  util::Table table({"Mix", "Dispatch", "Makespan (ms)", "Throughput (qps)",
                     "Prestages", "Overlap (ms)", "Reloads", "Completed"});
  bool answers_identical = true;
  double best_lift = 0;
  for (const Mix& mix : mixes) {
    serve::ServeReport pair[2];
    for (int async = 0; async < 2; ++async) {
      serve::ShardedOptions options;
      options.shards = 1;
      options.base.queue_capacity = trace.size();  // admit the whole burst
      options.device_mem_budget_bytes = mix.budget;
      options.async_dispatch = async == 1;
      pair[async] = serve::ShardedEngine(options).ServeMany(graphs, trace);
      const serve::ServeReport& r = pair[async];
      uint64_t prestages = 0;
      uint64_t reloads = 0;
      double overlap_ms = 0;
      for (const serve::ShardStat& s : r.shard_stats) {
        prestages += s.prestages;
        reloads += s.reloads;
        overlap_ms += s.overlap_ms;
      }
      table.AddRow({mix.name, async ? "async" : "sync",
                    util::FormatDouble(r.makespan_ms, 2),
                    util::FormatDouble(r.ThroughputQps(), 1),
                    std::to_string(prestages), util::FormatDouble(overlap_ms, 2),
                    std::to_string(reloads), std::to_string(r.completed)});
    }
    if (!SameAnswers(pair[0], pair[1])) {
      std::printf("FAIL: %s answers diverge between sync and async dispatch\n",
                  mix.name);
      answers_identical = false;
    }
    const double lift = pair[0].ThroughputQps() > 0
                            ? pair[1].ThroughputQps() / pair[0].ThroughputQps()
                            : 0;
    best_lift = std::max(best_lift, lift);
    std::printf("note: %s async dispatch clears %.3fx the sync throughput.\n",
                mix.name, lift);
    reports.push_back(std::move(pair[0]));
    reports.push_back(std::move(pair[1]));
  }
  std::printf("%s\n",
              table.Render("Staging overlap — sync vs async dispatch, 1 shard")
                  .c_str());

  bench::WriteJsonReports(json_path, reports);

  // Gates: async must answer exactly what sync answers, and the overlap
  // must buy throughput on at least one staging-heavy mix.
  if (!answers_identical) return 1;
  if (!(best_lift > 1.0)) {
    std::printf("FAIL: async dispatch lifted no mix (best %.3fx)\n", best_lift);
    return 1;
  }
  return 0;
}
