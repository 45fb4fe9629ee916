// etatrace overhead bench (DESIGN.md §14): the tracer's contract is that an
// instrumented replay is *simulation-identical* to an untraced one — same
// terminal outcomes, same timestamps, same counters, same rendered replay
// text — and costs only host wall time and memory. This bench verifies the
// identity on a sharded, faulted, SLO-classed replay (the emission-heaviest
// configuration) and reports the wall-clock factor an operator pays for
// --trace-requests. It also replays the traced run twice and requires the
// per-request trace JSON and the flight-recorder dumps to come back
// byte-identical — determinism is half the observability contract.
//
// Emits BENCH_trace_overhead.json (one object per dataset). Exit 1 on any
// divergence.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench_common.hpp"
#include "serve/arrivals.hpp"
#include "serve/router.hpp"
#include "serve/trace_file.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

using namespace eta;

namespace {

template <typename F>
double WallMs(F&& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  auto env = bench::ParseBenchArgs(argc, argv, {"slashdot", "rmat"});
  const auto requests =
      static_cast<uint32_t>(env.cl.GetInt("requests", 400, 1, serve::kMaxArrivalRequests));
  const auto shards = static_cast<uint32_t>(env.cl.GetInt("shards", 2, 1, serve::kMaxShards));
  const uint64_t seed = static_cast<uint64_t>(env.cl.GetInt("seed", 1, 0));
  const std::string json_path = env.cl.GetString("json", "BENCH_trace_overhead.json");

  util::Table table({"Dataset", "Requests", "Identical?", "Traces deterministic?",
                     "Wall off (ms)", "Wall on (ms)", "Host overhead", "Events"});
  util::JsonWriter json;
  json.BeginArray();
  bool all_ok = true;

  for (const std::string& name : env.datasets) {
    graph::Csr csr = bench::Load(env, name);

    serve::ShardedOptions fleet;
    fleet.shards = shards;
    fleet.base.queue_capacity = 64;
    fleet.base.overload.slo_admission = true;
    fleet.base.overload.shed_bronze_backlog_ms = 20;
    fleet.base.overload.brownout_bronze_backlog_ms = 10;
    fleet.base.graph.faults.seed = seed + 7;
    fleet.base.graph.faults.ecc_uncorrectable_rate = 0.01;
    fleet.base.graph.faults.hang_rate = 0.005;

    serve::ArrivalOptions arrivals;
    arrivals.profile = serve::ArrivalProfile::kPoisson;
    arrivals.num_requests = requests;
    arrivals.rate_qps = 2000;
    arrivals.seed = seed;
    const auto trace = serve::GenerateArrivals(csr.NumVertices(), arrivals);

    serve::ShardedOptions traced = fleet;
    traced.base.graph.trace_requests = true;

    serve::ServeReport off;
    serve::ServeReport on;
    serve::ServeReport on2;
    const double wall_off =
        WallMs([&] { off = serve::ShardedEngine(fleet).Serve(csr, trace); });
    const double wall_on =
        WallMs([&] { on = serve::ShardedEngine(traced).Serve(csr, trace); });
    on2 = serve::ShardedEngine(traced).Serve(csr, trace);

    // The identity the tracer promises: the simulation is untouched. The
    // rendered replay text covers every terminal outcome and timestamp
    // byte-for-byte; the untraced Prometheus exposition must come back as
    // an exact prefix of the traced one (tracing only *appends* the
    // exemplar family — every shared family is byte-identical).
    const std::string replay_off = serve::RenderReplayText(off.results);
    const std::string replay_on = serve::RenderReplayText(on.results);
    const std::string prom_off = off.metrics.RenderPrometheus();
    const std::string prom_on = on.metrics.RenderPrometheus();
    const bool identical = replay_off == replay_on &&
                           off.makespan_ms == on.makespan_ms &&
                           off.faults.launch_failures == on.faults.launch_failures &&
                           off.faults.retries == on.faults.retries &&
                           prom_on.rfind(prom_off, 0) == 0;
    // Determinism: the traced double run reproduces the trace JSON and the
    // flight-recorder dumps byte-for-byte.
    const bool deterministic =
        on.RenderRequestTraceJson() == on2.RenderRequestTraceJson() &&
        on.RenderBlackbox() == on2.RenderBlackbox();
    all_ok = all_ok && identical && deterministic;

    size_t events = 0;
    for (const auto& [id, evs] : on.request_traces) events += evs.size();

    const double overhead = wall_off > 0 ? wall_on / wall_off : 0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2fx", overhead);
    table.AddRow({name, std::to_string(trace.size()), identical ? "yes" : "NO",
                  deterministic ? "yes" : "NO", util::FormatDouble(wall_off, 1),
                  util::FormatDouble(wall_on, 1), buf, std::to_string(events)});

    json.BeginObject().Key("dataset").String(name).Key("requests").Uint(trace.size());
    json.Key("identical").Bool(identical).Key("deterministic").Bool(deterministic);
    json.Key("wall_off_ms").Double(wall_off, 3).Key("wall_on_ms").Double(wall_on, 3);
    json.Key("events").Uint(events).EndObject();
  }

  std::printf("%s", table.Render("bench: etatrace overhead (off vs on)").c_str());
  std::printf("\ncontract: traced replay simulation-identical to untraced; traces "
              "byte-identical across double runs\n");
  std::ofstream out(json_path);
  out << json.EndArray().Newline().Take();
  std::printf("json: %s\n", json_path.c_str());
  if (!all_ok) {
    std::printf("FAIL: tracing changed the simulation (or traces were "
                "nondeterministic)\n");
    return 1;
  }
  return 0;
}
