// etagraph_serve — replay a deterministic synthetic query trace against the
// query-serving fleet and print the fleet report.
//
//   etagraph_serve --dataset=slashdot --requests=64
//   etagraph_serve --graph=path/to/graph.gr --max-batch=1 --deadline=5
//   etagraph_serve --dataset=rmat --scale=0.25 --shards=4 --requests=16
//
// Flags (every number is range-checked; a malformed or out-of-range value
// exits 2 with "etagraph_serve: --NAME must be ..."):
//   --dataset       one of the seven stand-ins  (or use --graph)
//   --graph         path to a Galois .gr or text edge-list file
//   --scale         dataset stand-in scale in (0,1]             (default 1)
//   --requests      trace length in [1, 1048576]                (default 64)
//   --mean-arrival  mean inter-arrival time in ms; > 0          (default 1.5)
//   --max-batch     max queued requests folded per dispatch;
//                   1 = one query per dispatch; in [1, 2^32-1]   (default 16)
//   --queue-cap     admission queue capacity; >= 1              (default 64)
//   --deadline      per-request queueing deadline in ms, >= 0;
//                   0 = none                                     (default 0)
//   --bfs-frac      fraction of BFS requests, in [0,1]          (default 0.5)
//   --sssp-frac     fraction of SSSP requests (rest are SSWP),
//                   in [0,1]; bfs-frac + sssp-frac <= 1          (default 0.35)
//   --seed          trace RNG seed, in [0, 2^63-1]              (default 1)
//   --detail        print one line per request
//   --trace         replay a text trace file instead of generating one
//                   (per line: arrival_ms algo source [deadline_ms] [priority])
//   --check         run etacheck on every device the replay touches: all, or
//                   a comma list of memcheck,racecheck,synccheck,leakcheck.
//                   Exit 1 on any error finding.
//   --check-json    also write the findings as JSON to this path
//   --faults        inject device faults (DESIGN.md section 8): a comma list
//                   of key=value pairs, e.g.
//                   --faults=seed=7,uecc=0.02,hang=0.01,lost=0.001
//                   keys: seed, ecc, uecc, hang, lost, alloc (rates in [0,1]),
//                   watchdog (ms, > 0), words (in [1, 1048576]), and scripted
//                   ecc_at/uecc_at/hang_at/lost_at/alloc_at one-shots (1-based
//                   decision index); seed and one-shots are uint64. Test
//                   plants (DESIGN.md section 12), which inject no hardware
//                   fault: rmw=<buffer> runs the buffer's atomics as
//                   unsynchronized read-modify-writes (rmw=reach_mask: a
//                   racecheck finding on attributed waves), short=<buffer>
//                   allocates it one element short (short=act_set: a
//                   memcheck finding), and dag=drop-wait|late-record|dup-copy
//                   plants an ordering bug in every shard's stream DAG
//                   (requires --async; --verify-dag reports it). Answers
//                   stay bit-identical under a dag plant
//   --replay-out    write per-request terminal outcomes (id status algo source
//                   reached batch start finish) to this path — diffable across
//                   identical replays
//   --profile       run etaprof (DESIGN.md section 9): record per-launch
//                   kernel profiles and serve-layer spans during the replay
//   --trace-json    with --profile: write the merged serve+device
//                   Chrome/Perfetto trace-event JSON (open at
//                   https://ui.perfetto.dev) to this path
//   --metrics-out   write the serve metrics registry (latency split, batch
//                   sizes, cost-model error) as Prometheus text exposition
//                   to this path
//   --shards        serve on a fleet of N device sessions behind one
//                   load/fault-aware admission front (DESIGN.md section 10);
//                   in [1, 64] (serve::kMaxShards)               (default 1)
//   --device-mem-budget  per-shard resident-graph budget in bytes, >= 0,
//                   LRU-evicting past it; 0 = unlimited          (default 0)
//   --async         stream-based async dispatch (DESIGN.md
//                   section 11) — staging runs on a copy stream overlapping
//                   compute, dispatches pipeline as event DAGs. Answers are
//                   bit-identical to the sync dispatcher; on a single-graph
//                   replay the whole report is byte-identical
//   --catalog       serve N graphs instead of one: graphs 1..N-1 are
//                   scaled-down variants of the primary --dataset and the
//                   generated trace round-robins graph ids across them, so
//                   staging/eviction/pre-staging actually exercise.
//                   In [1, 16]; requires --dataset                 (default 1)
//   --verify-dag    with --async: run etaverify (DESIGN.md section 12) over
//                   every shard's recorded stream DAG — static
//                   happens-before checks for unordered conflicting
//                   accesses, use-before-ready consumers, unbound waits,
//                   wait cycles, and orphan streams. Exit 1 on any finding.
//   --verify-json   also write the etaverify findings as JSON to this path
//   --arrivals      replace the generated trace with a seeded open-loop
//                   arrival process (DESIGN.md section 13):
//                   profile:key=value,... with profile one of poisson,
//                   bursty, diurnal. Keys: rate (avg qps), n, on, off,
//                   offscale, period, trough, hot, tenants, slo (0/1),
//                   gold, silver, gd/sd/bd (per-class deadlines ms),
//                   cc/pr (whole-graph query fractions), seed. Integer
//                   keys (n <= 1048576, graphs, tenants <= 1024, slo, seed)
//                   take integers only.
//                   e.g. --arrivals=poisson:rate=2000,n=512,gold=0.25
//                   The catalog size (--catalog) supplies the graph count;
//                   graph 0 is hot. Incompatible with --trace.
//   --slo-shed      enable the SLO admission controller —
//                   predictively shed classed requests that provably cannot
//                   meet their class target (gold is never shed)
//   --slo-targets   gold[,silver[,bronze]] class targets in ms, each > 0
//                   (default 50,200,1000)
//   --shed-backlog, --brownout, --retry-budget and --breaker take
//                   comma lists whose values are each >= 0.
//   --shed-backlog  bronze[,silver] backlog thresholds in ms for
//                   class-ordered pressure shedding (hysteretic; 0=off)
//   --brownout      bronze[,silver] backlog thresholds in ms for the
//                   brownout ladder: past level 1 bronze is served degraded
//                   from the CPU fallback, past level 2 silver too (0=off)
//   --retry-budget  rate[,burst]: fleet-wide retry/rebuild token bucket,
//                   tokens per simulated second (0=unbounded)
//   --breaker       cooldown_ms[,backoff]: per-shard circuit breaker —
//                   a failed dispatch quarantines the shard for the
//                   cooldown, then a single half-open probe decides
//                   between closing and re-opening with backoff
//   --edf           EDF pop order (DESIGN.md section 15): within a priority
//                   class the scheduler pops earliest effective deadline
//                   (start deadline minus the running-mean service estimate,
//                   frozen at admission) first. Off: (priority, seq) order
//   --memo-window   whole-graph memo window in simulated ms, >= 0 —
//                   identical CC/PageRank requests against the same graph
//                   inside the window are answered from the per-shard memo
//                   table at zero device cost (0 = off). Arrivals gain
//                   whole-graph traffic via the cc=/pr= arrival keys
//   --autoscale     min_shards,backlog_ms — min_shards an integer in
//                   [1, --shards), backlog_ms > 0; backlog
//                   autoscaling (DESIGN.md section 15): start with
//                   min_shards active, scale the active count through a
//                   hysteresis ladder over the mean active-shard backlog
//                   (thresholds backlog_ms * 1, * 2, ...); standbys stay
//                   warm (sessions resident)
//   --trace-requests  etatrace (DESIGN.md section 14): record a per-request
//                   causal span tree — admit/shed/brownout decisions, route
//                   choices with per-shard backlog estimates, dispatch
//                   attempts with stream-DAG op ids, faults/retries/
//                   rebuilds, CPU fallbacks, completion. Off by default;
//                   with it off no output carries trace vocabulary
//   --trace-request-out  with --trace-requests: write the per-request span
//                   trees as JSON (one entry per request id) to this path
//   --blackbox-out  write the always-on flight recorder's event ring
//                   (last ~4096 lifecycle events, plus any device-loss /
//                   breaker-open / shard-death dumps) as text to this path
//   --slo-alerts    evaluate multi-window SLO burn-rate alerts over the
//                   replay: objective[,fast_ms[,slow_ms[,burn]]] with
//                   objective in (0,1), 0 < fast_ms <= slow_ms, burn > 0, e.g.
//                   --slo-alerts=0.999,50,500,2 — alert fires when both
//                   trailing windows burn error budget >= `burn`x. Adds an
//                   alert table/JSON block and serve_alert_* metrics
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "graph/datasets.hpp"
#include "graph/io.hpp"
#include "prof/trace_export.hpp"
#include "sanitizer/config.hpp"
#include "serve/arrivals.hpp"
#include "serve/router.hpp"
#include "sim/fault.hpp"
#include "serve/trace.hpp"
#include "serve/trace_file.hpp"
#include "trace/alerts.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/number.hpp"
#include "util/units.hpp"

using namespace eta;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "etagraph_serve: %s\n", message.c_str());
  return 2;
}

// Catalog graphs are host-built dataset variants, all in memory at once.
constexpr uint32_t kMaxCatalog = 16;
constexpr double kMaxMs = std::numeric_limits<double>::max();

/// Parses the value of a list flag ("A[,B...]") into `slots`, each value
/// in [lo, kMaxMs]. Returns an empty string or the error to report.
std::string ListFlag(const std::string& name, const std::string& spec, double lo,
                     const std::vector<double*>& slots, const char* want) {
  std::string why;
  if (spec.empty() || util::ParseDoubleList(spec, slots, lo, kMaxMs, &why)) return "";
  return "bad --" + name + " '" + spec + "': " + why + " (want " + want + ")";
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  auto cl = util::CommandLine::Parse(argc, argv, &error);
  if (!cl) return Fail(error);

  const std::string dataset = cl->GetString("dataset", "");
  const std::string graph_path = cl->GetString("graph", "");
  const double scale = cl->GetDouble("scale", 1.0, util::kAboveZero, 1.0);
  const auto requests =
      static_cast<uint32_t>(cl->GetInt("requests", 64, 1, serve::kMaxArrivalRequests));
  const double mean_arrival = cl->GetDouble("mean-arrival", 1.5, util::kAboveZero);
  const auto max_batch = static_cast<uint32_t>(
      cl->GetInt("max-batch", 16, 1, std::numeric_limits<uint32_t>::max()));
  const auto queue_cap = static_cast<size_t>(cl->GetInt("queue-cap", 64, 1));
  const double deadline = cl->GetDouble("deadline", 0.0, 0.0);
  const double bfs_frac = cl->GetDouble("bfs-frac", 0.5, 0.0, 1.0);
  const double sssp_frac = cl->GetDouble("sssp-frac", 0.35, 0.0, 1.0);
  const auto seed = static_cast<uint64_t>(cl->GetInt("seed", 1, 0));
  const bool detail = cl->GetBool("detail", false);
  const std::string trace_path = cl->GetString("trace", "");
  const std::string check_spec = cl->GetString("check", "");
  const std::string check_json = cl->GetString("check-json", "");
  const std::string faults_spec = cl->GetString("faults", "");
  const std::string replay_out = cl->GetString("replay-out", "");
  const bool profile = cl->GetBool("profile", false);
  const std::string trace_json = cl->GetString("trace-json", "");
  const std::string metrics_out = cl->GetString("metrics-out", "");
  const auto shards = static_cast<uint32_t>(cl->GetInt("shards", 1, 1, serve::kMaxShards));
  const auto mem_budget = static_cast<uint64_t>(cl->GetInt("device-mem-budget", 0, 0));
  const bool async = cl->GetBool("async", false);
  const auto catalog_n = static_cast<uint32_t>(cl->GetInt("catalog", 1, 1, kMaxCatalog));
  const bool verify_dag = cl->GetBool("verify-dag", false);
  const std::string verify_json = cl->GetString("verify-json", "");
  const std::string arrivals_spec = cl->GetString("arrivals", "");
  const bool slo_shed = cl->GetBool("slo-shed", false);
  const std::string slo_targets = cl->GetString("slo-targets", "");
  const std::string shed_backlog = cl->GetString("shed-backlog", "");
  const std::string brownout_spec = cl->GetString("brownout", "");
  const std::string retry_budget_spec = cl->GetString("retry-budget", "");
  const std::string breaker_spec = cl->GetString("breaker", "");
  const bool edf = cl->GetBool("edf", false);
  const double memo_window = cl->GetDouble("memo-window", 0, 0.0);
  const std::string autoscale_spec = cl->GetString("autoscale", "");
  const bool trace_requests = cl->GetBool("trace-requests", false);
  const std::string trace_request_out = cl->GetString("trace-request-out", "");
  const std::string blackbox_out = cl->GetString("blackbox-out", "");
  const bool slo_alerts = cl->Has("slo-alerts");
  const std::string slo_alerts_spec = cl->GetString("slo-alerts", "");
  if (auto unused = cl->UnusedFlags(); !unused.empty()) {
    return Fail("unknown flag --" + unused.front());
  }
  if (!trace_request_out.empty() && !trace_requests) {
    return Fail("--trace-request-out requires --trace-requests");
  }
  if (!trace_json.empty() && !profile) {
    return Fail("--trace-json requires --profile");
  }
  if (verify_dag && !async) {
    return Fail("--verify-dag requires --async");
  }
  if (!verify_json.empty() && !verify_dag) {
    return Fail("--verify-json requires --verify-dag");
  }
  if (bfs_frac + sssp_frac > 1.0 + 1e-9) return Fail("--bfs-frac + --sssp-frac must be <= 1");
  if (catalog_n > 1 && dataset.empty()) {
    return Fail("--catalog requires --dataset (scaled variants of one dataset)");
  }
  if (catalog_n > 1 && !trace_path.empty()) {
    return Fail("--catalog works with a generated trace, not --trace");
  }

  const std::optional<sanitizer::Config> check = check_spec.empty()
                                                    ? sanitizer::Config{}
                                                    : sanitizer::Config::Parse(check_spec);
  if (!check) {
    return Fail("bad --check '" + check_spec +
                "' (want all, or a comma list of memcheck,racecheck,synccheck,leakcheck)");
  }
  const sanitizer::Config& check_cfg = *check;
  if (!check_json.empty() && !check_cfg.Enabled()) {
    return Fail("--check-json requires --check");
  }

  std::string fault_error;
  const std::optional<sim::FaultConfig> faults = sim::FaultConfig::Parse(faults_spec, &fault_error);
  if (!faults) return Fail("bad --faults: " + fault_error);
  const sim::FaultConfig& fault_cfg = *faults;
  if (fault_cfg.dag != sim::FaultConfig::Dag::kNone && !async) {
    return Fail("--faults key 'dag' requires --async");
  }

  // Validate flags before the (potentially slow) graph load.
  serve::ServeOptions options;
  serve::ShardedOptions::AutoscaleOptions autoscale{};
  if (!autoscale_spec.empty()) {
    const size_t comma = autoscale_spec.find(',');
    const auto min_shards =
        util::ParseNumber<uint32_t>(autoscale_spec.substr(0, comma), 1, shards - 1);
    if (!min_shards) return Fail("--autoscale min_shards must be an integer in [1, --shards)");
    autoscale.min_shards = min_shards.value;
    if (comma != std::string::npos) {
      const auto backlog =
          util::ParseNumber(autoscale_spec.substr(comma + 1), util::kAboveZero, kMaxMs);
      if (!backlog) return Fail("--autoscale backlog_ms " + backlog.error);
      autoscale.backlog_ms = backlog.value;
    }
  }
  if (!arrivals_spec.empty() && !trace_path.empty()) {
    return Fail("--arrivals and --trace are mutually exclusive");
  }
  serve::OverloadOptions& ov = options.overload;
  ov.slo_admission = slo_shed;
  for (const std::string& bad : {
           ListFlag("slo-targets", slo_targets, util::kAboveZero,
                    {&ov.gold_slo_ms, &ov.silver_slo_ms, &ov.bronze_slo_ms},
                    "gold[,silver[,bronze]] ms"),
           ListFlag("shed-backlog", shed_backlog, 0,
                    {&ov.shed_bronze_backlog_ms, &ov.shed_silver_backlog_ms},
                    "bronze[,silver] ms"),
           ListFlag("brownout", brownout_spec, 0,
                    {&ov.brownout_bronze_backlog_ms, &ov.brownout_silver_backlog_ms},
                    "bronze[,silver] ms"),
           ListFlag("retry-budget", retry_budget_spec, 0,
                    {&ov.retry_tokens_per_s, &ov.retry_burst}, "rate[,burst]"),
           ListFlag("breaker", breaker_spec, 0,
                    {&ov.breaker_cooldown_ms, &ov.breaker_backoff}, "cooldown_ms[,backoff]")}) {
    if (!bad.empty()) return Fail(bad);
  }
  if (slo_alerts) {
    // Bare --slo-alerts keeps the evaluator defaults (0.999,50,500,2).
    const std::string spec = slo_alerts_spec == "true" ? "" : slo_alerts_spec;
    std::string alert_error;
    if (!trace::ParseAlertSpec(spec, &options.slo_alerts, &alert_error)) {
      return Fail("bad --slo-alerts: " + alert_error);
    }
  }
  options.queue_capacity = queue_cap;
  options.max_batch = max_batch;
  options.edf = edf;
  options.memo_window_ms = memo_window;
  options.graph.check = check_cfg;
  options.graph.faults = fault_cfg;
  options.graph.profile = profile;
  options.graph.verify_dag = verify_dag;
  options.graph.trace_requests = trace_requests;

  graph::Csr csr;
  if (!graph_path.empty()) {
    std::string load_error;
    std::optional<graph::Csr> loaded = graph_path.size() > 3 && graph_path.ends_with(".gr")
                                           ? graph::ReadGaloisGr(graph_path, &load_error)
                                           : graph::ReadEdgeListText(graph_path, &load_error);
    if (!loaded) return Fail("bad --graph: " + load_error);
    csr = *std::move(loaded);
  } else if (!dataset.empty()) {
    if (!graph::FindDataset(dataset)) return Fail("unknown dataset '" + dataset + "'");
    csr = graph::BuildDatasetCached(dataset, "eta_dataset_cache", scale);
  } else {
    return Fail("pass --dataset=<name> or --graph=<path>; datasets: slashdot, "
                "livejournal, orkut, rmat, uk2005, sk2005, uk2006");
  }
  // Weighted requests (SSSP/SSWP) need edge weights on the resident graph.
  if (!csr.HasWeights()) csr.DeriveWeights(1);
  std::printf("graph: %u vertices, %u edges, topology %s\n", csr.NumVertices(),
              csr.NumEdges(), util::FormatBytes(csr.TopologyBytes()).c_str());

  // Multi-graph catalog: graph 0 is the primary load above; 1..N-1 are
  // scaled-down variants of the same dataset (the bench_overlap_serve
  // idiom), so the fleet actually stages, evicts, and pre-stages.
  std::vector<graph::Csr> extra_graphs;
  for (uint32_t g = 1; g < catalog_n; ++g) {
    static constexpr double kSubScales[] = {0.8, 0.65, 0.5};
    extra_graphs.push_back(graph::BuildDatasetCached(
        dataset, "eta_dataset_cache", scale * kSubScales[(g - 1) % 3]));
    if (!extra_graphs.back().HasWeights()) extra_graphs.back().DeriveWeights(1);
  }
  std::vector<const graph::Csr*> graphs = {&csr};
  for (const graph::Csr& g : extra_graphs) graphs.push_back(&g);
  uint32_t min_vertices = csr.NumVertices();
  for (const graph::Csr* g : graphs) {
    min_vertices = std::min(min_vertices, g->NumVertices());
  }
  if (catalog_n > 1) {
    std::printf("catalog: %u graph(s), smallest %u vertices\n", catalog_n,
                min_vertices);
  }

  std::vector<serve::Request> trace;
  if (!trace_path.empty()) {
    std::string trace_error;
    auto loaded = serve::LoadTraceFile(trace_path, &trace_error);
    if (!loaded) return Fail(trace_error);
    trace = std::move(*loaded);
    for (const serve::Request& r : trace) {
      if (r.source >= csr.NumVertices()) {
        return Fail("trace request #" + std::to_string(r.id) + " source " +
                    std::to_string(r.source) + " is out of range (graph has " +
                    std::to_string(csr.NumVertices()) + " vertices)");
      }
    }
    std::printf("trace: %zu request(s) from %s\n", trace.size(), trace_path.c_str());
  } else if (!arrivals_spec.empty()) {
    serve::ArrivalOptions arrival_options;
    std::string arrival_error;
    if (!serve::ParseArrivalSpec(arrivals_spec, &arrival_options, &arrival_error)) {
      return Fail("bad --arrivals: " + arrival_error);
    }
    // The loaded catalog is the ground truth for valid graph ids; the
    // spec's own `graphs` key cannot exceed it.
    arrival_options.num_graphs = static_cast<uint32_t>(graphs.size());
    trace = serve::GenerateArrivals(min_vertices, arrival_options);
    std::printf("arrivals: %s, %zu request(s), %.6g qps average, seed %llu\n",
                serve::ArrivalProfileName(arrival_options.profile), trace.size(),
                arrival_options.rate_qps,
                static_cast<unsigned long long>(arrival_options.seed));
  } else {
    serve::TraceOptions trace_options;
    trace_options.num_requests = requests;
    trace_options.mean_interarrival_ms = mean_arrival;
    trace_options.bfs_fraction = bfs_frac;
    trace_options.sssp_fraction = sssp_frac;
    trace_options.deadline_ms = deadline > 0 ? deadline : serve::kNoDeadline;
    trace_options.seed = seed;
    trace = serve::GenerateTrace(min_vertices, trace_options);
    if (catalog_n > 1) {
      // Round-robin the catalog so every shard cycles through graphs
      // (sources stay valid: they were drawn below min_vertices).
      for (size_t i = 0; i < trace.size(); ++i) {
        trace[i].graph_id = static_cast<uint32_t>(i % graphs.size());
      }
    }
  }

  serve::ShardedOptions sharded;
  sharded.base = options;
  sharded.shards = shards;
  sharded.device_mem_budget_bytes = mem_budget;
  sharded.async_dispatch = async;
  sharded.autoscale = autoscale;
  const serve::ServeReport report = serve::ShardedEngine(sharded).ServeMany(graphs, trace);
  std::printf("%s\n", report.Render("etagraph serve — trace replay").c_str());

  if (detail) {
    for (const auto& q : report.results) {
      std::printf("  #%-4llu %-5s %-9s src=%-8u batch=%-2u queue=%8.3f ms "
                  "latency=%8.3f ms reached=%llu\n",
                  static_cast<unsigned long long>(q.id), core::AlgoName(q.algo),
                  serve::QueryStatusName(q.status), q.source, q.batch_size,
                  q.status == serve::QueryStatus::kOk ||
                          q.status == serve::QueryStatus::kDegraded
                      ? q.QueueMs()
                      : 0.0,
                  q.status == serve::QueryStatus::kOk ||
                          q.status == serve::QueryStatus::kDegraded
                      ? q.LatencyMs()
                      : 0.0,
                  static_cast<unsigned long long>(q.reached_vertices));
    }
  }

  if (!replay_out.empty()) {
    std::ofstream out(replay_out);
    out << serve::RenderReplayText(report.results);
    if (!out) return Fail("cannot write --replay-out file '" + replay_out + "'");
    std::printf("replay outcomes written to %s\n", replay_out.c_str());
  }

  if (!trace_request_out.empty()) {
    const std::string json = report.RenderRequestTraceJson();
    std::string parse_error;
    if (!util::JsonParse(json, &parse_error)) {
      return Fail("request-trace JSON failed self-validation: " + parse_error);
    }
    std::ofstream out(trace_request_out);
    out << json;
    if (!out) {
      return Fail("cannot write --trace-request-out file '" + trace_request_out + "'");
    }
    std::printf("request traces: %zu request(s) -> %s\n",
                report.request_traces.size(), trace_request_out.c_str());
  }

  if (!blackbox_out.empty()) {
    std::ofstream out(blackbox_out);
    out << report.RenderBlackbox();
    if (!out) return Fail("cannot write --blackbox-out file '" + blackbox_out + "'");
    std::printf("flight-recorder dump(s): %zu -> %s\n", report.blackbox.size(),
                blackbox_out.c_str());
  }

  if (!trace_json.empty()) {
    const std::string json = prof::RenderChromeTrace(
        report.trace_spans,
        {{"dataset", !dataset.empty() ? dataset : graph_path},
         {"mode", report.mode}});
    std::string parse_error;
    if (!util::JsonParse(json, &parse_error)) {
      return Fail("trace JSON failed self-validation: " + parse_error);
    }
    std::ofstream out(trace_json);
    out << json;
    if (!out) return Fail("cannot write --trace-json file '" + trace_json + "'");
    std::printf("trace: %zu spans -> %s (open at https://ui.perfetto.dev)\n",
                report.trace_spans.size(), trace_json.c_str());
  }

  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    out << report.metrics.RenderPrometheus();
    if (!out) return Fail("cannot write --metrics-out file '" + metrics_out + "'");
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }

  if (check_cfg.Enabled()) {
    std::printf("%s", report.check.Render(/*verbose=*/true).c_str());
    if (!check_json.empty()) {
      std::ofstream out(check_json);
      out << report.check.Json() << "\n";
      if (!out) return Fail("cannot write --check-json file '" + check_json + "'");
    }
    if (report.check.ErrorCount() > 0) return 1;
  }
  if (verify_dag) {
    std::printf("%s", report.verify.Render(/*verbose=*/true).c_str());
    if (!verify_json.empty()) {
      std::ofstream out(verify_json);
      out << report.verify.Json() << "\n";
      if (!out) return Fail("cannot write --verify-json file '" + verify_json + "'");
    }
    if (!report.verify.Clean()) return 1;
  }
  return 0;
}
