// perfbench — the repository's benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-out FILE] [--calibrate]
//
// One process runs one workload on one thread. It sets the workload up
// several times (setup_s is the median), then repeats checked passes over
// the workload's simulated work for S seconds of host time. With --trace 0
// it reports the end-to-end metrics; with --trace 1 it runs untraced passes
// for half the budget and etaprof/etatrace-traced passes for the rest, then
// the host micro-probes, and reports the per-layer metrics. Every pass must
// reproduce the first pass's simulated-output fingerprint. The last stdout
// line is one JSON object: {"correct","attempted","failed","metrics"}.
// Exit 0 only when every answer matched the CPU reference.
//
// --calibrate prints serve_overload's saturating-burst capacity and exits
// (how its fixed rate was chosen; see README.md).
#include <sys/resource.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Host clock: host_*, setup_s. Simulated clock: sim_*.
constexpr MetricDef kEndToEnd[] = {
    {"host_wall_s", "s"},          {"setup_s", "s"},
    {"host_peak_rss_mb", "MB"},    {"answered_share", "share"},
    {"sim_total_ms", "ms"},        {"sim_kernel_ms", "ms"},
    {"sim_speedup", "x"},          {"sim_latency_p50_ms", "ms"},
    {"sim_latency_p95_ms", "ms"},  {"sim_throughput_qps", "1/s"},
    {"sim_goodput", "share"},
};

// `*_host_s`, `*_ns`, cache_host_share_est and trace.host_overhead are host
// clock; every other per-layer metric is simulated (counts or sim ms).
constexpr MetricDef kPerLayer[] = {
    {"graph.build_host_s", "s"},
    {"cpu.reference_host_s", "s"},
    {"serve.arrivals_host_s", "s"},
    {"baselines.cusha_host_s", "s"},
    {"baselines.gunrock_host_s", "s"},
    {"baselines.tigr_host_s", "s"},
    {"baselines.oom_host_s", "s"},
    {"core.eta_host_s", "s"},
    {"core.iterations", "count"},
    {"core.activated", "count"},
    {"core.shadow_vertices", "count"},
    {"core.ondemand_total_ms", "ms"},
    {"core.retries", "count"},
    {"core.backoff_ms", "ms"},
    {"core.restaged_bytes", "bytes"},
    {"serve.session_rebuilds", "count"},
    {"serve.launch_failures", "count"},
    {"sim.warp_instructions", "count"},
    {"sim.warp_efficiency", "share"},
    {"sim.l1_accesses", "count"},
    {"sim.l1_hit_rate", "share"},
    {"sim.l2_accesses", "count"},
    {"sim.l2_hit_rate", "share"},
    {"sim.dram_read_tx", "count"},
    {"sim.dram_write_tx", "count"},
    {"sim.atomic_ops", "count"},
    {"sim.um_migrated_mb", "MB"},
    {"sim.um_migrations", "count"},
    {"sim.um_mean_migration_kb", "KB"},
    {"sim.compute_ms", "ms"},
    {"sim.h2d_ms", "ms"},
    {"sim.d2h_ms", "ms"},
    {"sim.stall_ms", "ms"},
    {"sim.overlap_ms", "ms"},
    {"sim.cache_access_ns", "ns"},
    {"sim.coalesce_ns", "ns"},
    {"sim.um_touch_ns", "ns"},
    {"sim.cache_host_share_est", "share"},
    {"serve.replay_host_s", "s"},
    {"serve.render_host_s", "s"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p95_ms", "ms"},
    {"serve.batches", "count"},
    {"serve.batch_occupancy_mean", "count"},
    {"serve.shard_busy_ms", "ms"},
    {"serve.shard_busy_imbalance", "x"},
    {"serve.degraded", "count"},
    {"serve.brownout_degraded", "count"},
    {"serve.shedded", "count"},
    {"serve.rejected", "count"},
    {"serve.timed_out", "count"},
    {"serve.memo_hits", "count"},
    {"serve.cost_error_ms", "ms"},
    {"serve.service_p50_ms", "ms"},
    {"serve.service_p95_ms", "ms"},
    {"serve.load_ms", "ms"},
    {"serve.reloads", "count"},
    {"serve.evictions", "count"},
    {"serve.prestages", "count"},
    {"serve.prestage_ms", "ms"},
    {"serve.overlap_ms", "ms"},
    {"prof.launches", "count"},
    {"prof.udc_ms", "ms"},
    {"prof.traverse_ms", "ms"},
    {"prof.other_kernel_ms", "ms"},
    {"trace.events", "count"},
    {"trace.host_overhead", "x"},
};

constexpr int kSetupReps = 5;
constexpr int kMinPasses = 2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool calibrate = false;
  std::string spans_out;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans-out FILE] [--calibrate]\n",
               error.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key == "--calibrate") {
      args.calibrate = true;
      continue;
    }
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage("missing value for " + key);
    }
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (!(args.seconds > 0)) Usage("--seconds must be positive");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (key == "--spans-out") {
      args.spans_out = value;
    } else {
      Usage("unknown flag " + key);
    }
    if (end != nullptr && *end != '\0') Usage("bad number for " + key + ": " + value);
  }
  return args;
}

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  // table3_social keeps the stand-ins' full 144 MB device (slashdot fits, as
  // in the paper); table3_oversub shrinks it so the uk2006 stand-in's
  // topology and weights (~13 MB) nearly fill it: CuSha and Gunrock O.O.M.
  if (args.workload == "table3_social") {
    return MakeTable3("slashdot", 0.05, 144, args.seed);
  }
  if (args.workload == "table3_oversub") {
    return MakeTable3("uk2006", 0.05, 16, args.seed);
  }
  if (args.workload == "serve_overload") return MakeServeOverload(args.seed);
  if (args.workload == "serve_catalog") return MakeServeCatalog(args.seed);
  Usage("unknown workload '" + args.workload + "'");
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Runs passes in phase `phase` while another pass as long as the last one
/// still ends before `until_s` (host clock), and at least `min_passes`.
/// Returns per-pass host seconds; folds outcomes into *total.
std::vector<double> RunPasses(Workload& w, SpanLog& spans, const char* phase, bool traced,
                              double until_s, int min_passes, PassOutcome* total,
                              bool* deterministic) {
  std::vector<double> walls;
  while (static_cast<int>(walls.size()) < min_passes ||
         HostSeconds() + walls.back() <= until_s) {
    spans.SetPhase(std::string(phase) + "#" + std::to_string(walls.size()));
    const double t0 = HostSeconds();
    PassOutcome o;
    {
      SpanLog::Scope span(spans, "pass");
      o = w.Pass(spans, traced);
    }
    walls.push_back(HostSeconds() - t0);
    if (total->attempted == 0) total->fingerprint = o.fingerprint;
    if (o.fingerprint != total->fingerprint) *deterministic = false;
    total->attempted += o.attempted;
    total->wrong += o.wrong;
  }
  return walls;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (args.calibrate) {
    std::printf("serve_overload burst capacity: %.1f qps\n",
                CalibrateOverloadCapacity(args.seed));
    return 0;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args);
  SpanLog spans(args.workload + "/seed" + std::to_string(args.seed) + "/trace" +
                (args.trace ? "1" : "0"));

  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    spans.SetPhase("setup#" + std::to_string(rep));
    const double t0 = HostSeconds();
    SpanLog::Scope span(spans, "setup");
    workload->Setup(spans);
    setups.push_back(HostSeconds() - t0);
  }

  PassOutcome total;
  bool deterministic = true;
  const double start = HostSeconds();
  MetricMap metrics;
  std::vector<double> walls;
  if (!args.trace) {
    walls = RunPasses(*workload, spans, "pass", false, start + args.seconds, kMinPasses,
                      &total, &deterministic);
    workload->EndToEnd(&metrics);
    metrics["host_wall_s"] = Median(walls);
    metrics["setup_s"] = Median(setups);
    metrics["host_peak_rss_mb"] = PeakRssMb();
  } else {
    walls = RunPasses(*workload, spans, "pass", false, start + args.seconds / 2, 1, &total,
                      &deterministic);
    const std::vector<double> traced_walls =
        RunPasses(*workload, spans, "traced", true, start + args.seconds, 1, &total,
                  &deterministic);
    workload->PerLayer(&metrics);
    spans.SetPhase("probe");
    const double probes = workload->CacheProbes(spans);
    const ProbeCosts costs = RunProbes(spans, workload->FootprintBytes());
    std::printf("probe checksum %" PRIu64 "\n", costs.checksum);
    metrics["sim.cache_access_ns"] = costs.cache_access_ns;
    metrics["sim.coalesce_ns"] = costs.coalesce_ns;
    metrics["sim.um_touch_ns"] = costs.um_touch_ns;
    metrics["sim.cache_host_share_est"] =
        probes * costs.cache_access_ns * 1e-9 / Median(walls);
    metrics["trace.host_overhead"] = Median(traced_walls) / Median(walls);

    const std::map<std::string, double> setup_self = spans.MedianSelfSeconds("setup#");
    const std::map<std::string, double> pass_self = spans.MedianSelfSeconds("pass#");
    auto self = [](const std::map<std::string, double>& m, const char* name) {
      auto it = m.find(name);
      return it == m.end() ? 0.0 : it->second;
    };
    metrics["graph.build_host_s"] = self(setup_self, "graph.BuildDataset");
    metrics["cpu.reference_host_s"] = self(setup_self, "cpu.CpuReference");
    metrics["serve.arrivals_host_s"] = self(setup_self, "serve.GenerateArrivals");
    metrics["baselines.cusha_host_s"] = self(pass_self, "baselines.Cusha.Run");
    metrics["baselines.gunrock_host_s"] = self(pass_self, "baselines.Gunrock.Run");
    metrics["baselines.tigr_host_s"] = self(pass_self, "baselines.Tigr.Run");
    metrics["baselines.oom_host_s"] = self(pass_self, "baselines.oom");
    metrics["core.eta_host_s"] = self(pass_self, "core.EtaGraph.Run");
    metrics["serve.replay_host_s"] = self(pass_self, "serve.ServeMany");
    metrics["serve.render_host_s"] = self(pass_self, "serve.Render") +
                                     self(pass_self, "serve.Json") +
                                     self(pass_self, "serve.RenderPrometheus");
    // Benchmark spans plus whatever the library traced.
    metrics["trace.events"] += static_cast<double>(spans.Size());
  }

  if (!args.spans_out.empty()) {
    std::ofstream(args.spans_out) << spans.Json();
  }

  // Emit the full metric table for the mode; anything the workload does not
  // exercise is 0.
  bool finite = true;
  std::string json;
  std::printf("perfbench workload=%s seed=%" PRIu64 " trace=%d passes=%zu setups=%d\n",
              args.workload.c_str(), args.seed, args.trace ? 1 : 0, walls.size(),
              kSetupReps);
  std::printf("fingerprint %016" PRIx64 "%s\n", total.fingerprint,
              deterministic ? "" : " (NOT REPRODUCED ACROSS PASSES)");
  for (const MetricDef& def : args.trace ? std::span<const MetricDef>(kPerLayer)
                                         : std::span<const MetricDef>(kEndToEnd)) {
    double value = metrics.count(def.name) != 0 ? metrics.at(def.name) : 0.0;
    if (!std::isfinite(value)) {
      finite = false;
      value = 0;
    }
    std::printf("  %-28s %-.6g %s\n", def.name, value, def.unit);
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  json.empty() ? "" : ",", def.name, value, def.unit);
    json += buf;
  }
  const bool correct = total.wrong == 0 && deterministic && finite;
  std::printf("{\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"metrics\":{%s}}\n",
              correct ? "true" : "false", total.attempted, total.wrong, json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
