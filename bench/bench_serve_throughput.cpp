// Serving-throughput comparison: naive per-query vs persistent session vs
// session + multi-source batching, over the same deterministic 64-request
// trace — then the fleet at 1 and 4 shards on a burst trace. The serving
// layer's pitch in one table: the naive row (no serving layer, a FIFO loop
// of one-shot runs) pays allocation + full topology staging per query, the
// session row (one shard, max_batch = 1) stages once, the batched row (one
// shard, default max_batch) folds same-algorithm BFS, SSSP and SSWP
// requests into shared multi-source launches, and the sharded rows show
// the fleet's scaling under a saturating load (4 shards must clear at
// least twice the throughput of 1).
//
// Emits BENCH_serve.json (one JSON object per row) next to the table.
#include <algorithm>
#include <cmath>
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

/// The no-serving-layer baseline: each request, in arrival order, gets a
/// fresh device (allocate, stage the full topology, run, tear down) on one
/// timeline. RunReport::total_ms is that query's whole bill.
serve::ServeReport ServeNaive(const graph::Csr& csr, const std::vector<serve::Request>& trace) {
  serve::ServeReport report;
  report.mode = "naive";
  report.total_requests = trace.size();
  double now = 0;
  for (const serve::Request& r : trace) {
    now = std::max(now, r.arrival_ms);
    const core::RunReport run = core::EtaGraph().Run(csr, r.algo, r.source);
    const double latency_ms = now + run.total_ms - r.arrival_ms;
    report.latency_us.Add(static_cast<uint64_t>(std::llround(latency_ms * 1000.0)));
    report.batch_occupancy.Add(1);
    report.reached_total += run.activated;
    ++report.batches;
    ++report.completed;
    now += run.total_ms;
  }
  report.makespan_ms = now;
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  auto env = bench::ParseBenchArgs(argc, argv, {"slashdot"});
  const auto requests =
      static_cast<uint32_t>(env.cl.GetInt("requests", 64, 1, serve::kMaxArrivalRequests));
  // Default arrival rate saturates the server (mean inter-arrival well under
  // one query's service time) — the regime where a serving layer matters.
  const double mean_arrival = env.cl.GetDouble("mean-arrival", 0.25, util::kAboveZero);
  const uint64_t seed = static_cast<uint64_t>(env.cl.GetInt("seed", 1, 0));
  const std::string json_path = env.cl.GetString("json", "BENCH_serve.json");

  const graph::Csr csr = bench::Load(env, env.datasets.front());
  std::printf("dataset %s: %u vertices, %u edges\n", env.datasets.front().c_str(),
              csr.NumVertices(), csr.NumEdges());

  serve::TraceOptions trace_options;
  trace_options.num_requests = requests;
  trace_options.mean_interarrival_ms = mean_arrival;
  trace_options.seed = seed;
  const auto trace = serve::GenerateTrace(csr.NumVertices(), trace_options);

  std::vector<std::string> labels = {"naive"};
  std::vector<serve::ServeReport> reports;
  reports.push_back(ServeNaive(csr, trace));
  for (uint32_t max_batch : {1u, 16u}) {
    serve::ShardedOptions options;
    options.shards = 1;
    options.base.max_batch = max_batch;
    reports.push_back(serve::ShardedEngine(options).Serve(csr, trace));
    labels.push_back(reports.back().mode);
  }
  // The sharded rows replay a burst trace (near-simultaneous arrivals):
  // with the default arrival spacing the trace span itself floors the
  // makespan and hides fleet scaling.
  serve::TraceOptions burst_options = trace_options;
  burst_options.num_requests = requests * 4;  // long enough to amortize staging
  burst_options.mean_interarrival_ms = 0.01;
  const auto burst = serve::GenerateTrace(csr.NumVertices(), burst_options);
  for (uint32_t shard_count : {1u, 4u}) {
    serve::ShardedOptions options;
    options.shards = shard_count;
    // Admit the whole burst regardless of shard count, so both rows serve
    // identical work and the ratio is pure fleet scaling.
    options.base.queue_capacity = burst.size();
    labels.push_back("sharded x" + std::to_string(shard_count) + " (burst)");
    reports.push_back(serve::ShardedEngine(options).Serve(csr, burst));
  }

  util::Table table({"Mode", "Makespan (ms)", "Throughput (qps)", "p50 (ms)",
                     "p95 (ms)", "Mean batch", "Completed"});
  for (size_t i = 0; i < reports.size(); ++i) {
    const serve::ServeReport& r = reports[i];
    table.AddRow({labels[i], util::FormatDouble(r.makespan_ms, 2),
                  util::FormatDouble(r.ThroughputQps(), 1),
                  util::FormatDouble(r.LatencyPercentileMs(0.50), 2),
                  util::FormatDouble(r.LatencyPercentileMs(0.95), 2),
                  util::FormatDouble(r.MeanBatchOccupancy(), 2),
                  std::to_string(r.completed)});
  }
  std::printf("%s\n",
              table.Render("Query serving — same trace, three modes + shards").c_str());

  const double naive = reports[0].makespan_ms;
  const double session = reports[1].makespan_ms;
  const double batched = reports[2].makespan_ms;
  std::printf("note: session reuse is %.2fx faster than naive per-query; "
              "batching stretches that to %.2fx.\n",
              naive / session, naive / batched);
  const double one_shard_qps = reports[3].ThroughputQps();
  const double four_shard_qps = reports[4].ThroughputQps();
  std::printf("note: 4 shards clear %.2fx the throughput of 1 shard on the "
              "saturating trace.\n",
              four_shard_qps / one_shard_qps);

  bench::WriteJsonReports(json_path, reports);
  // Gates: the serving layer must beat naive, and the fleet must scale.
  if (!(batched < naive && session < naive)) return 1;
  if (!(four_shard_qps >= 2.0 * one_shard_qps)) {
    std::printf("FAIL: 4-shard throughput %.1f qps < 2x 1-shard %.1f qps\n",
                four_shard_qps, one_shard_qps);
    return 1;
  }
  return 0;
}
