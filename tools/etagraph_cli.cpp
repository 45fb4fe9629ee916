// etagraph — command-line driver for the library.
//
// Run any framework / algorithm / dataset combination and print the run
// report, without writing code:
//
//   etagraph --framework=etagraph --algo=bfs --dataset=livejournal
//   etagraph --framework=tigr --algo=sssp --graph=path/to/graph.gr --source=5
//   etagraph --framework=etagraph --algo=cc --dataset=orkut
//   etagraph --algo=pagerank --dataset=livejournal
//
// Flags (every number is range-checked; a malformed or out-of-range value
// exits 2 with "etagraph_cli: --NAME must be ..."):
//   --framework   etagraph | tigr | gunrock | cusha          (default etagraph)
//                 (cc, pagerank and hybrid-bfs run on etagraph only)
//   --algo        bfs | sssp | sswp | cc | pagerank | hybrid-bfs (default bfs)
//   --dataset     one of the seven stand-ins  (or use --graph)
//   --graph       path to a Galois .gr or text edge-list file
//   --source      source vertex, below the vertex count       (default 0)
//   --k           EtaGraph degree limit in [1, 48]            (default 16)
//   --mode        um+prefetch | um | explicit | chunked       (default um+prefetch)
//                 (pagerank and hybrid-bfs: not chunked)
//   --no-smp      disable shared-memory prefetch
//   --scale       dataset stand-in scale in (0,1]             (default 1)
//   --verify      check labels against the CPU reference      (default true;
//                 cc against the min-label fixpoint, pagerank
//                 compares its above-uniform-rank count)
//   --timeline    print the transfer/compute strip chart
//   --check       run etacheck: all, or a comma list of
//                 memcheck,racecheck,synccheck,leakcheck (etagraph
//                 framework). Exit 1 on any error finding.
//   --check-json  also write the findings as JSON to this path
//   --faults      inject device faults (DESIGN.md section 8): comma list of
//                 key=value pairs, e.g. --faults=seed=7,uecc=0.02,hang=0.01
//                 keys: seed, ecc, uecc, hang, lost, alloc (rates in [0,1]),
//                 watchdog (ms, > 0), words (in [1, 1048576]), ecc_at/
//                 uecc_at/hang_at/lost_at/alloc_at one-shots. Test plants
//                 (DESIGN.md section 12), which inject no hardware fault:
//                 rmw=<buffer> runs the buffer's atomics as unsynchronized
//                 read-modify-writes (e.g. rmw=reach_mask), short=<buffer>
//                 allocates it one element short (e.g. short=act_set),
//                 dag=drop-wait|late-record|dup-copy plants an ordering bug
//                 in the --async stream DAG (requires --async). etagraph
//                 framework only.
//                 Exit 1 when the device path fails despite recovery.
//   --profile     run etaprof (DESIGN.md section 9): record per-launch
//                 kernel profiles and print the nvprof-style summary table.
//                 etagraph framework only.
//   --trace-json  with --profile: also write the merged Chrome/Perfetto
//                 trace-event JSON (open at https://ui.perfetto.dev) to
//                 this path.
//   --async       run the query through the stream scheduler (DESIGN.md
//                 section 11): staging + topology prefetch as a copy-stream
//                 op, the traversal as a compute op gated on the stage
//                 event, then print the stream schedule. Answers and
//                 counters are bit-identical to the synchronous run.
//                 etagraph framework traversals only.
//   --verify-dag  with --async: run etaverify (DESIGN.md section 12) over
//                 the recorded stream DAG — static happens-before checks
//                 for unordered conflicting accesses, use-before-ready
//                 consumers, unbound waits, wait cycles, and orphan
//                 streams. Exit 1 on any finding.
//   --trace-requests  etatrace (DESIGN.md section 14): record the query's
//                 per-attempt fault/retry/rebuild timeline and print it.
//                 etagraph framework only. Off by
//                 default; with it off the run's output is byte-identical.
//   --trace-request-out  with --trace-requests: write the attempt timeline
//                 as JSON to this path (self-validated before writing).
//   --blackbox-out  with --trace-requests: write a flight-recorder style
//                 dump of the attempt events to this path. (SLO burn-rate
//                 alerts — --slo-alerts — live in etagraph_serve, which
//                 has per-class completion series to evaluate.)
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "baselines/cusha.hpp"
#include "baselines/gunrock.hpp"
#include "baselines/tigr.hpp"
#include "core/framework.hpp"
#include "core/pagerank.hpp"
#include "cpu/reference.hpp"
#include "graph/datasets.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "prof/summary.hpp"
#include "prof/trace_export.hpp"
#include "sanitizer/config.hpp"
#include "sanitizer/report.hpp"
#include "sim/fault.hpp"
#include "sim/stream.hpp"
#include "trace/events.hpp"
#include "trace/flight_recorder.hpp"
#include "util/cli.hpp"
#include "verify/verify.hpp"
#include "util/json.hpp"
#include "util/number.hpp"
#include "util/units.hpp"

using namespace eta;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "etagraph: %s\n", message.c_str());
  return 2;
}

void PrintFaults(const core::FaultStats& f) {
  if (f.launch_failures == 0 && f.ecc_corrected == 0 && !f.Failed()) return;
  std::printf("  faults      %llu launch failure(s) (%llu uecc, %llu hang), "
              "%llu ecc corrected\n",
              static_cast<unsigned long long>(f.launch_failures),
              static_cast<unsigned long long>(f.ecc_uncorrectable),
              static_cast<unsigned long long>(f.hangs),
              static_cast<unsigned long long>(f.ecc_corrected));
  std::printf("  recovery    %llu retr%s, %llu buffer(s) re-staged (%s), "
              "backoff %.3f ms%s%s\n",
              static_cast<unsigned long long>(f.retries), f.retries == 1 ? "y" : "ies",
              static_cast<unsigned long long>(f.restaged_buffers),
              util::FormatBytes(f.restaged_bytes).c_str(), f.backoff_ms,
              f.device_lost ? ", DEVICE LOST" : "",
              f.exhausted ? ", RETRIES EXHAUSTED" : "");
}

void PrintReport(const core::RunReport& r, bool timeline) {
  if (r.oom) {
    std::printf("%s: O.O.M (requested %s)\n", r.framework.c_str(),
                util::FormatBytes(r.oom_request_bytes).c_str());
    PrintFaults(r.faults);
    return;
  }
  if (r.faults.Failed()) {
    std::printf("%s %s: device path FAILED after recovery\n", r.framework.c_str(),
                core::AlgoName(r.algo));
    PrintFaults(r.faults);
    return;
  }
  std::printf("%s %s\n", r.framework.c_str(), core::AlgoName(r.algo));
  std::printf("  kernel      %10.3f ms (simulated)\n", r.kernel_ms);
  std::printf("  total       %10.3f ms (transfers + kernels + stalls)\n", r.total_ms);
  std::printf("  iterations  %10u\n", r.iterations);
  if (r.bottom_up_iterations > 0) {
    std::printf("  bottom-up   %10u iterations (pull mode)\n", r.bottom_up_iterations);
  }
  std::printf("  activated   %10llu (%.2f%%)\n",
              static_cast<unsigned long long>(r.activated),
              r.activated_fraction * 100);
  std::printf("  device mem  %10s peak explicit\n",
              util::FormatBytes(r.device_bytes_peak).c_str());
  if (r.migrated_bytes > 0) {
    std::printf("  UM migrated %10s in %zu ops\n",
                util::FormatBytes(r.migrated_bytes).c_str(), r.migration_sizes.size());
  }
  std::printf("  counters    ipc/sm=%.3f l1=%.1f%% l2=%.1f%% warp-eff=%.2f "
              "dramRd=%llu\n",
              r.counters.IpcPerSm(28), 100 * r.counters.L1HitRate(),
              100 * r.counters.L2HitRate(), r.counters.WarpEfficiency(),
              static_cast<unsigned long long>(r.counters.dram_read_transactions));
  PrintFaults(r.faults);
  if (timeline) {
    std::printf("  timeline    [%s]\n",
                r.timeline.RenderAscii(r.total_ms, 80).c_str());
  }
}

/// Prints the etaprof kernel summary and writes --trace-json if asked (the
/// emitted document is round-trip parsed before it hits disk, so a broken
/// trace can never be written silently). Returns 0, or 2 on a write/
/// validation failure.
int EmitProfile(const core::RunReport& r, const std::string& dataset_label,
                const std::string& trace_path) {
  std::printf("%s",
              prof::RenderKernelSummary(r.kernel_profiles, "etaprof kernel summary")
                  .c_str());
  if (trace_path.empty()) return 0;
  std::vector<prof::TraceSpan> spans;
  prof::AppendTimelineSpans(r.timeline, "device", 0, &spans);
  prof::AppendKernelSpans(r.kernel_profiles, "device", 0, &spans);
  const std::string json =
      prof::RenderChromeTrace(spans, {{"dataset", dataset_label}});
  std::string parse_error;
  if (!util::JsonParse(json, &parse_error)) {
    return Fail("trace JSON failed self-validation: " + parse_error);
  }
  std::ofstream out(trace_path);
  out << json;
  if (!out) return Fail("cannot write --trace-json file '" + trace_path + "'");
  std::printf("trace: %zu spans -> %s (open at https://ui.perfetto.dev)\n",
              spans.size(), trace_path.c_str());
  return 0;
}

/// etatrace (DESIGN.md section 14), single-query form: prints the per-attempt
/// fault/retry timeline the core retry loop recorded under --trace-requests,
/// and writes the optional JSON / flight-recorder artifacts. Returns 0, or 2
/// on a write/validation failure.
int EmitRequestTrace(const core::RunReport& r, const std::string& json_path,
                     const std::string& blackbox_path) {
  std::printf("etatrace attempt timeline (%zu attempt(s)):\n", r.attempts.size());
  for (const core::AttemptRecord& a : r.attempts) {
    std::printf("  attempt %-2u %-9s fault=%-6s backoff=%7.3f ms%s%s\n", a.attempt,
                a.succeeded ? "ok" : "failed",
                a.succeeded ? "-"
                            : trace::EventStatusName(trace::EventKind::kFault, a.fault),
                a.backoff_ms, a.budget_denied ? " BUDGET-DENIED" : "",
                a.restaged ? " restaged" : "");
  }
  if (!json_path.empty()) {
    util::JsonWriter w;
    w.BeginObject().Key("attempts").BeginArray();
    for (const core::AttemptRecord& a : r.attempts) {
      w.BeginObject().Key("attempt").Uint(a.attempt).Key("succeeded").Bool(a.succeeded);
      w.Key("fault").String(
          a.succeeded ? "" : trace::EventStatusName(trace::EventKind::kFault, a.fault));
      w.Key("backoff_ms").Double(a.backoff_ms, 4).Key("budget_denied").Bool(a.budget_denied);
      w.Key("restaged").Bool(a.restaged).EndObject();
    }
    const std::string json = w.EndArray().EndObject().Newline().Take();
    std::string parse_error;
    if (!util::JsonParse(json, &parse_error)) {
      return Fail("request-trace JSON failed self-validation: " + parse_error);
    }
    std::ofstream out(json_path);
    out << json;
    if (!out) return Fail("cannot write --trace-request-out file '" + json_path + "'");
    std::printf("attempt timeline written to %s\n", json_path.c_str());
  }
  if (!blackbox_path.empty()) {
    trace::FlightRecorder recorder;
    for (const core::AttemptRecord& a : r.attempts) {
      trace::TraceEvent e;
      e.request_id = 0;
      e.kind = trace::EventKind::kFault;
      e.status = a.fault;
      e.a = static_cast<double>(a.attempt);
      e.b = a.backoff_ms;
      e.c = a.budget_denied ? 1 : 0;
      if (!a.succeeded) recorder.Record(e);
    }
    std::ofstream out(blackbox_path);
    out << recorder.Dump("cli-exit", r.total_ms, 0);
    if (!out) return Fail("cannot write --blackbox-out file '" + blackbox_path + "'");
    std::printf("flight-recorder dump written to %s\n", blackbox_path.c_str());
  }
  return 0;
}

/// Prints the etacheck block and writes --check-json if asked. Returns the
/// process exit code contribution: 1 when any error finding fired.
int EmitCheck(const sanitizer::SanitizerReport& check, const std::string& json_path) {
  std::printf("%s", check.Render(/*verbose=*/true).c_str());
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << check.Json() << "\n";
    if (!out) return Fail("cannot write --check-json file '" + json_path + "'");
  }
  return check.ErrorCount() > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  auto cl = util::CommandLine::Parse(argc, argv, &error);
  if (!cl) return Fail(error);

  const std::string framework = cl->GetString("framework", "etagraph");
  const std::string algo_name = cl->GetString("algo", "bfs");
  const std::string dataset = cl->GetString("dataset", "");
  const std::string graph_path = cl->GetString("graph", "");
  const auto source =
      static_cast<graph::VertexId>(cl->GetInt("source", 0, 0, graph::kInvalidVertex - 1));
  const auto k = static_cast<uint32_t>(cl->GetInt("k", 16, 1, core::kMaxDegreeLimit));
  const std::string mode_name = cl->GetString("mode", "um+prefetch");
  const bool smp = !cl->GetBool("no-smp", false);
  const double scale = cl->GetDouble("scale", 1.0, util::kAboveZero, 1.0);
  const bool verify = cl->GetBool("verify", true);
  const bool timeline = cl->GetBool("timeline", false);
  const std::string check_spec = cl->GetString("check", "");
  const std::string check_json = cl->GetString("check-json", "");
  const std::string faults_spec = cl->GetString("faults", "");
  const bool profile = cl->GetBool("profile", false);
  const std::string trace_json = cl->GetString("trace-json", "");
  const bool async = cl->GetBool("async", false);
  const bool verify_dag = cl->GetBool("verify-dag", false);
  const bool trace_requests = cl->GetBool("trace-requests", false);
  const std::string trace_request_out = cl->GetString("trace-request-out", "");
  const std::string blackbox_out = cl->GetString("blackbox-out", "");
  if (auto unused = cl->UnusedFlags(); !unused.empty()) {
    return Fail("unknown flag --" + unused.front());
  }
  if (!trace_json.empty() && !profile) {
    return Fail("--trace-json requires --profile");
  }
  if (verify_dag && !async) {
    return Fail("--verify-dag requires --async");
  }
  if (!trace_request_out.empty() && !trace_requests) {
    return Fail("--trace-request-out requires --trace-requests");
  }
  if (!blackbox_out.empty() && !trace_requests) {
    return Fail("--blackbox-out requires --trace-requests");
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
  const bool faulted = fault_cfg.Enabled() || fault_cfg.Planted();

  // --- Flag combinations, before the (potentially slow) graph load -----------
  const bool traversal = algo_name == "bfs" || algo_name == "sssp" || algo_name == "sswp";
  if (!traversal && algo_name != "cc" && algo_name != "pagerank" &&
      algo_name != "hybrid-bfs") {
    return Fail("unknown --algo '" + algo_name + "'");
  }
  if (framework != "etagraph" && framework != "tigr" && framework != "gunrock" &&
      framework != "cusha") {
    return Fail("unknown --framework '" + framework + "'");
  }
  if (!traversal && framework != "etagraph") {
    return Fail("--algo=" + algo_name + " supports --framework=etagraph only");
  }
  // One set of EtaGraph options for traversals, CC, PageRank and hybrid BFS.
  core::EtaGraphOptions options;
  options.degree_limit = k;
  options.use_smp = smp;
  options.check = check_cfg;
  options.faults = fault_cfg;
  options.profile = profile;
  options.trace_requests = trace_requests;
  if (mode_name == "um+prefetch") {
    options.memory_mode = core::MemoryMode::kUnifiedPrefetch;
  } else if (mode_name == "um") {
    options.memory_mode = core::MemoryMode::kUnifiedOnDemand;
  } else if (mode_name == "explicit") {
    options.memory_mode = core::MemoryMode::kExplicitCopy;
  } else if (mode_name == "chunked") {
    options.memory_mode = core::MemoryMode::kChunkedStream;
  } else {
    return Fail("unknown --mode '" + mode_name + "'");
  }
  if ((algo_name == "pagerank" || algo_name == "hybrid-bfs") &&
      options.memory_mode == core::MemoryMode::kChunkedStream) {
    return Fail("--mode=chunked does not support " + algo_name);
  }
  if (async && !traversal) {
    return Fail("--async supports etagraph traversals (bfs, sssp, sswp) only");
  }
  if (fault_cfg.dag != sim::FaultConfig::Dag::kNone && !async) {
    return Fail("--faults key 'dag' requires --async");
  }
  if (framework != "etagraph") {
    if (check_cfg.Enabled()) return Fail("--check supports --framework=etagraph only");
    if (faulted) return Fail("--faults supports --framework=etagraph only");
    if (profile) return Fail("--profile supports --framework=etagraph only");
    if (async) return Fail("--async supports --framework=etagraph only");
    if (trace_requests) return Fail("--trace-requests supports --framework=etagraph only");
  }

  // --- Load the graph -------------------------------------------------------
  graph::Csr csr;
  if (!graph_path.empty()) {
    std::string load_error;
    std::optional<graph::Csr> loaded = graph_path.size() > 3 && graph_path.ends_with(".gr")
                                           ? graph::ReadGaloisGr(graph_path, &load_error)
                                           : graph::ReadEdgeListText(graph_path, &load_error);
    if (!loaded) return Fail("bad --graph: " + load_error);
    csr = *std::move(loaded);
    if (!csr.HasWeights()) csr.DeriveWeights(1);
  } else if (!dataset.empty()) {
    if (!graph::FindDataset(dataset)) return Fail("unknown dataset '" + dataset + "'");
    csr = graph::BuildDatasetCached(dataset, "eta_dataset_cache", scale);
  } else {
    return Fail("pass --dataset=<name> or --graph=<path>; datasets: slashdot, "
                "livejournal, orkut, rmat, uk2005, sk2005, uk2006");
  }
  if (source >= csr.NumVertices()) return Fail("--source out of range");
  std::printf("graph: %u vertices, %u edges, topology %s\n", csr.NumVertices(),
              csr.NumEdges(), util::FormatBytes(csr.TopologyBytes()).c_str());

  // --- Run ------------------------------------------------------------------
  const core::Algo algo = algo_name == "bfs" || algo_name == "hybrid-bfs" ? core::Algo::kBfs
                          : algo_name == "sssp" ? core::Algo::kSssp
                          : algo_name == "sswp" ? core::Algo::kSswp
                          : algo_name == "cc"   ? core::Algo::kCc
                                                : core::Algo::kPr;
  const core::PageRankOptions pr;
  core::RunReport report;
  bool dag_clean = true;
  if (algo_name == "hybrid-bfs") {
    report = core::EtaGraph(options).RunHybridBfs(csr, source);
  } else if (algo == core::Algo::kCc) {
    report = core::EtaGraph(options).RunConnectedComponents(csr);
  } else if (algo == core::Algo::kPr) {
    report = core::EtaGraph(options).RunPageRank(csr, pr);
    if (!report.DeviceFailed()) {
      report.activated = core::CountAboveUniform(report.ranks);
      report.activated_fraction = static_cast<double>(report.activated) / csr.NumVertices();
    }
  } else if (framework == "etagraph") {
    if (async) {
      // Stream-scheduled one-shot (DESIGN.md section 11): staging plus the
      // hoisted topology prefetch run as one copy-stream op, the traversal
      // as a compute op gated on the stage event. The functional run is
      // exactly the synchronous one — only the schedule view is new (and a
      // single query has nothing to overlap with; the serving layer's
      // --async pipelines real work across these streams).
      core::ResidentGraph resident(csr, options,
                                   /*stage_weights=*/core::IsWeighted(algo));
      sim::StreamScheduler streams(options.spec, options.faults);
      if (verify_dag) streams.EnableDagLog();
      const uint32_t topo_alloc = streams.RegisterAlloc("graph/topo");
      const uint32_t state_alloc = streams.RegisterAlloc("graph/state");
      const sim::Stream copy = streams.CreateStream("copy");
      const sim::Stream compute = streams.CreateStream("compute");
      const double stage_ms = resident.LoadMs() + resident.PrefetchTopology();
      streams.CopyAsync(copy, sim::StreamOpKind::kCopyH2D, stage_ms, "stage",
                        /*earliest_ms=*/0, resident.DeviceBytesPeak());
      streams.AnnotateLastOp({{topo_alloc, true}, {state_alloc, true}});
      const sim::Event staged = streams.CreateEvent();
      streams.Record(copy, staged);
      streams.Wait(compute, staged);
      streams.LaunchAsync(compute, algo_name, [&](double) {
        report = resident.Run(algo, source);
        return sim::StreamScheduler::LaunchOutcome{report.query_ms,
                                                   report.DeviceFailed()};
      });
      streams.AnnotateLastOp({{topo_alloc, false}, {state_alloc, true}});
      resident.Shutdown();
      if (const sanitizer::SanitizerReport* c = resident.CheckReport()) {
        report.check = *c;
      }
      std::printf("stream schedule (simulated):\n");
      for (const sim::StreamOp& op : streams.Ops()) {
        std::printf("  %-8s %-9s %-12s %9.3f -> %9.3f ms\n",
                    sim::StreamOpKindName(op.kind),
                    sim::StreamOpStatusName(op.status), op.label.c_str(),
                    op.start_ms, op.end_ms);
      }
      std::printf("  device sync %.3f ms, copy/compute overlap %.3f ms\n",
                  streams.SynchronizeMs(), streams.OverlapMs());
      if (verify_dag) {
        // Printing the schedule above was the host's synchronize.
        streams.HostJoinAll();
        const verify::DagReport dag = verify::VerifyDag(streams);
        std::printf("%s", dag.Render(/*verbose=*/true).c_str());
        dag_clean = dag.Clean();
      }
    } else {
      report = core::EtaGraph(options).Run(csr, algo, source);
    }
  } else if (framework == "tigr") {
    report = baselines::Tigr().Run(csr, algo, source);
  } else if (framework == "gunrock") {
    report = baselines::Gunrock().Run(csr, algo, source);
  } else {
    report = baselines::Cusha().Run(csr, algo, source);
  }

  PrintReport(report, timeline);
  if (profile) {
    if (int rc = EmitProfile(report, !dataset.empty() ? dataset : graph_path,
                             trace_json);
        rc != 0) {
      return rc;
    }
  }
  if (trace_requests) {
    if (int rc = EmitRequestTrace(report, trace_request_out, blackbox_out); rc != 0) {
      return rc;
    }
  }
  if (!report.DeviceFailed() && verify) {
    const bool ok = algo == core::Algo::kPr
                        ? report.activated ==
                              core::CountAboveUniform(cpu::PageRankReference(
                                  csr, pr.damping, pr.epsilon, pr.max_iterations))
                        : report.labels == core::CpuReference(csr, algo, source);
    std::printf("  verify      %10s vs CPU reference\n", ok ? "OK" : "MISMATCH");
    if (!ok) return 1;
  }
  if (check_cfg.Enabled()) {
    if (int rc = EmitCheck(report.check, check_json); rc != 0) return rc;
  }
  if (!dag_clean) return 1;
  return report.DeviceFailed() ? 1 : 0;
}
