// Overload-control benchmark (DESIGN.md §13): the sharded fleet under an
// open-loop Poisson arrival stream at 0.8x, 1.2x, and 2.0x of its measured
// capacity, with the full control stack on — SLO classes, predictive and
// pressure shedding, and the brownout ladder.
//
// Capacity is calibrated first from a saturating classless burst on the
// same fleet configuration, so the multiples mean the same thing on any
// machine and dataset. The headline claim: under 2x offered load the fleet
// degrades by *policy*, not by collapse — gold goodput stays >= 95%, the
// queues stay bounded, every request is accounted for, and a double run
// replays byte-identically.
//
// Emits BENCH_overload.json (one report object per load multiple).
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/arrivals.hpp"
#include "serve/router.hpp"
#include "serve/trace.hpp"
#include "util/table.hpp"

using namespace eta;

int main(int argc, char** argv) {
  auto env = bench::ParseBenchArgs(argc, argv, {"slashdot"});
  const auto requests =
      static_cast<uint32_t>(env.cl.GetInt("requests", 600, 1, serve::kMaxArrivalRequests));
  const auto shards = static_cast<uint32_t>(env.cl.GetInt("shards", 2, 1, serve::kMaxShards));
  const uint64_t seed = static_cast<uint64_t>(env.cl.GetInt("seed", 1, 0));
  const std::string json_path = env.cl.GetString("json", "BENCH_overload.json");

  const graph::Csr csr = bench::Load(env, env.datasets.front());
  std::printf("dataset %s: %u vertices, %u edges\n", env.datasets.front().c_str(),
              csr.NumVertices(), csr.NumEdges());

  serve::ShardedOptions fleet;
  fleet.shards = shards;
  fleet.base.queue_capacity = 64;

  // Calibrate: a near-simultaneous classless burst with an unbounded queue
  // saturates the fleet; its throughput is the capacity the load multiples
  // are measured against.
  serve::TraceOptions burst_options;
  burst_options.num_requests = 256;
  burst_options.mean_interarrival_ms = 0.01;
  burst_options.seed = seed;
  const auto burst = serve::GenerateTrace(csr.NumVertices(), burst_options);
  serve::ShardedOptions calibration = fleet;
  calibration.base.queue_capacity = burst.size();
  const double capacity_qps =
      serve::ShardedEngine(calibration).Serve(csr, burst).ThroughputQps();
  std::printf("calibrated capacity: %.1f qps (%u shard%s, saturating burst)\n\n",
              capacity_qps, shards, shards == 1 ? "" : "s");

  // The control stack under test. Thresholds sit well inside the gold
  // target (50 ms): bronze browns out first, then sheds; silver follows at
  // higher rungs; gold is never shed and must keep its SLO.
  fleet.base.overload.slo_admission = true;
  fleet.base.overload.brownout_bronze_backlog_ms = 10;
  fleet.base.overload.brownout_silver_backlog_ms = 30;
  fleet.base.overload.shed_bronze_backlog_ms = 20;
  fleet.base.overload.shed_silver_backlog_ms = 40;

  const double multiples[] = {0.8, 1.2, 2.0};
  util::Table table({"Load", "Class", "Offered", "Ok", "Degraded", "Shed",
                     "Goodput %", "p50 (ms)", "p99 (ms)"});
  std::vector<serve::ServeReport> reports;
  bool gates_ok = true;
  auto fail = [&](const char* what, double multiple) {
    std::printf("FAIL at %.1fx: %s\n", multiple, what);
    gates_ok = false;
  };

  for (double multiple : multiples) {
    serve::ArrivalOptions arrivals;
    arrivals.profile = serve::ArrivalProfile::kPoisson;
    arrivals.rate_qps = capacity_qps * multiple;
    arrivals.num_requests = requests;
    arrivals.gold_fraction = 0.2;
    arrivals.silver_fraction = 0.3;
    arrivals.seed = seed;
    const auto trace = serve::GenerateArrivals(csr.NumVertices(), arrivals);

    serve::ServeReport report = serve::ShardedEngine(fleet).Serve(csr, trace);
    serve::ServeReport replay = serve::ShardedEngine(fleet).Serve(csr, trace);
    if (report.Render("r") != replay.Render("r") || report.Json() != replay.Json() ||
        report.metrics.RenderPrometheus() != replay.metrics.RenderPrometheus()) {
      fail("double run is not byte-identical", multiple);
    }

    const std::string load = util::FormatDouble(multiple, 1) + "x";
    double gold_goodput = 0;
    for (const serve::SloStat& s : report.slo_stats) {
      table.AddRow({load, serve::SloClassName(s.slo), std::to_string(s.offered),
                    std::to_string(s.ok), std::to_string(s.degraded),
                    std::to_string(s.shedded),
                    util::FormatDouble(100.0 * s.Goodput(), 1),
                    util::FormatDouble(s.p50_ms, 2), util::FormatDouble(s.p99_ms, 2)});
      if (s.slo == serve::SloClass::kGold) gold_goodput = s.Goodput();
    }

    // Gates, at every multiple: nothing unaccounted, queues bounded by the
    // admission cap, and gold inside its SLO even at 2x.
    if (report.completed + report.rejected + report.timed_out + report.shedded !=
        trace.size()) {
      fail("request unaccounted for", multiple);
    }
    if (report.queue_depth.Max() > fleet.base.queue_capacity) {
      fail("queue depth exceeded the admission cap", multiple);
    }
    if (gold_goodput < 0.95) fail("gold goodput below 95%", multiple);
    reports.push_back(std::move(report));
  }
  std::printf("%s\n",
              table.Render("Overload control — Poisson load vs calibrated capacity")
                  .c_str());

  // EDF vs FIFO+priority at 1.2x calibrated capacity: the same trace on the
  // same control stack (whole-graph memo window and backlog autoscaling
  // armed on both), only the pop order differs. Gates: EDF meets at least
  // as many per-class deadlines as FIFO+priority, keeps gold goodput
  // >= 95%, and its memo hits and scale events replay deterministically.
  {
    const double multiple = 1.2;
    serve::ArrivalOptions arrivals;
    arrivals.profile = serve::ArrivalProfile::kPoisson;
    arrivals.rate_qps = capacity_qps * multiple;
    arrivals.num_requests = requests;
    arrivals.gold_fraction = 0.2;
    arrivals.silver_fraction = 0.3;
    arrivals.cc_fraction = 0.1;  // whole-graph traffic the memo can absorb
    arrivals.seed = seed;
    const auto trace = serve::GenerateArrivals(csr.NumVertices(), arrivals);

    serve::ShardedOptions edf_fleet = fleet;
    edf_fleet.base.edf = true;
    edf_fleet.base.memo_window_ms = 50;
    if (shards > 1) {
      edf_fleet.autoscale.min_shards = 1;
      edf_fleet.autoscale.backlog_ms = 20;
    }
    serve::ShardedOptions fifo_fleet = edf_fleet;
    fifo_fleet.base.edf = false;

    serve::ServeReport fifo = serve::ShardedEngine(fifo_fleet).Serve(csr, trace);
    serve::ServeReport edf = serve::ShardedEngine(edf_fleet).Serve(csr, trace);
    serve::ServeReport replay = serve::ShardedEngine(edf_fleet).Serve(csr, trace);
    if (edf.Render("r") != replay.Render("r") || edf.Json() != replay.Json() ||
        edf.metrics.RenderPrometheus() != replay.metrics.RenderPrometheus()) {
      fail("EDF double run is not byte-identical", multiple);
    }
    if (edf.memo_hits != replay.memo_hits ||
        edf.scale_events.size() != replay.scale_events.size()) {
      fail("memo/scale accounting is not deterministic across runs", multiple);
    }
    if (edf.completed + edf.rejected + edf.timed_out + edf.shedded != trace.size()) {
      fail("request unaccounted for under EDF", multiple);
    }

    util::Table edf_table(
        {"Sched", "Class", "Offered", "Deadlines met", "Goodput %"});
    auto add_rows = [&](const char* sched, const serve::ServeReport& r) {
      for (const serve::SloStat& s : r.slo_stats) {
        edf_table.AddRow({sched, serve::SloClassName(s.slo), std::to_string(s.offered),
                          std::to_string(s.slo_met),
                          util::FormatDouble(100.0 * s.Goodput(), 1)});
      }
    };
    add_rows("fifo", fifo);
    add_rows("edf", edf);
    std::printf("%s\n",
                edf_table.Render("EDF vs FIFO+priority at 1.2x calibrated capacity")
                    .c_str());

    for (const serve::SloStat& f : fifo.slo_stats) {
      for (const serve::SloStat& e : edf.slo_stats) {
        if (e.slo == f.slo && e.slo_met < f.slo_met) {
          fail("EDF met fewer deadlines than FIFO+priority in a class", multiple);
        }
        if (e.slo == serve::SloClass::kGold && e.Goodput() < 0.95) {
          fail("EDF gold goodput below 95%", multiple);
        }
      }
    }
    std::printf("1.2x edf: memo hits %llu, scale events %llu, shards active %u\n\n",
                static_cast<unsigned long long>(edf.memo_hits),
                static_cast<unsigned long long>(edf.scale_events.size()),
                edf.shards_active);
    reports.push_back(std::move(edf));
  }
  for (size_t i = 0; i < reports.size(); ++i) {
    const serve::ServeReport& r = reports[i];
    const std::string load = i < std::size(multiples)
                                 ? util::FormatDouble(multiples[i], 1) + "x"
                                 : std::string("1.2x-edf");
    std::printf("%s: makespan %.1f ms, served %.1f qps, shed %llu, degraded %llu, "
                "brownout max level %u\n",
                load.c_str(), r.makespan_ms, r.ThroughputQps(),
                static_cast<unsigned long long>(r.shedded),
                static_cast<unsigned long long>(r.degraded),
                r.overload.brownout_max_level);
  }

  bench::WriteJsonReports(json_path, reports);
  return gates_ok ? 0 : 1;
}
