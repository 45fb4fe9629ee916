#include "serve/report.hpp"

#include <algorithm>

#include "trace/tracer.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace eta::serve {

double ServeReport::ThroughputQps() const {
  return makespan_ms > 0 ? static_cast<double>(completed) / (makespan_ms / 1000.0) : 0;
}

double ServeReport::LatencyPercentileMs(double q) const {
  if (latency_us.Count() == 0) return 0;
  return static_cast<double>(latency_us.Percentile(q)) / 1000.0;
}

std::string ServeReport::Render(const std::string& title) const {
  util::Table table({"Metric", "Value"});
  auto row = [&](const std::string& name, const std::string& value) {
    table.AddRow({name, value});
  };
  row("mode", mode);
  if (async_dispatch) row("dispatch", "async (streams)");
  if (edf) row("queue order", "edf (deadline - service estimate)");
  if (traced) row("traced requests", std::to_string(request_traces.size()));
  row("requests", std::to_string(total_requests));
  row("completed", std::to_string(completed));
  row("rejected", std::to_string(rejected));
  row("timed out", std::to_string(timed_out));
  if (overload.Active()) row("shedded", std::to_string(shedded));
  row("degraded (cpu fallback)", std::to_string(degraded));
  row("dispatches", std::to_string(batches));
  if (memo_configured) row("memo hits", std::to_string(memo_hits));
  if (autoscale_configured) {
    row("shards active (final)", std::to_string(shards_active));
    row("scale events", std::to_string(scale_events.size()));
  }
  if (session_rebuilds > 0) row("session rebuilds", std::to_string(session_rebuilds));
  if (overload.brownout_configured) {
    row("brownout level (final/max)", std::to_string(overload.brownout_level) + "/" +
                                          std::to_string(overload.brownout_max_level));
    row("brownout transitions",
        std::to_string(overload.brownout_transitions.size()));
    row("brownout degraded", std::to_string(overload.brownout_degraded));
  }
  if (overload.budget_configured) {
    row("retry budget granted (retry/rebuild)",
        std::to_string(overload.retry_granted) + "/" +
            std::to_string(overload.rebuild_granted));
    row("retry budget denied (retry/rebuild)",
        std::to_string(overload.retry_denied) + "/" +
            std::to_string(overload.rebuild_denied));
  }
  if (overload.breaker_configured) {
    row("breaker opens", std::to_string(overload.breaker_opens));
    row("breaker probes (failed)", std::to_string(overload.breaker_probes) + " (" +
                                       std::to_string(overload.breaker_probe_failures) +
                                       ")");
  }
  if (faults.launch_failures > 0 || faults.ecc_corrected > 0) {
    row("launch failures", std::to_string(faults.launch_failures));
    row("query retries", std::to_string(faults.retries));
    row("ecc corrected", std::to_string(faults.ecc_corrected));
    row("restaged buffers", std::to_string(faults.restaged_buffers));
    row("restaged bytes", std::to_string(faults.restaged_bytes));
    row("backoff (ms)", util::FormatDouble(faults.backoff_ms, 3));
    row("device lost", faults.device_lost ? "yes" : "no");
  }
  row("graph load (ms)", util::FormatDouble(load_ms, 3));
  row("makespan (ms)", util::FormatDouble(makespan_ms, 3));
  row("throughput (qps, simulated)", util::FormatDouble(ThroughputQps(), 1));
  row("latency p50 (ms)", util::FormatDouble(LatencyPercentileMs(0.50), 3));
  row("latency p95 (ms)", util::FormatDouble(LatencyPercentileMs(0.95), 3));
  row("latency p99 (ms)", util::FormatDouble(LatencyPercentileMs(0.99), 3));
  row("latency p99.9 (ms)", util::FormatDouble(LatencyPercentileMs(0.999), 3));
  row("mean queue wait (ms)", util::FormatDouble(queue_wait_us.Mean() / 1000.0, 3));
  row("max queue depth", std::to_string(queue_depth.Max()));
  row("mean batch occupancy", util::FormatDouble(MeanBatchOccupancy(), 2));
  row("max batch occupancy", std::to_string(batch_occupancy.Max()));
  row("reached vertices (sum)", std::to_string(reached_total));
  if (check.launches_checked > 0) {
    row("etacheck launches", std::to_string(check.launches_checked));
    row("etacheck errors", std::to_string(check.ErrorCount()));
    row("etacheck warnings", std::to_string(check.WarningCount()));
  }
  std::string out = table.Render(title);

  // Per-algo latency split (queue wait vs device service) with exact
  // percentiles, straight from the metrics registry.
  std::vector<std::string> algos;
  for (const CostObservation& c : cost_observations) algos.push_back(c.algo);
  if (!algos.empty()) {
    // The exemplar column (trace id of the slowest request, linking the
    // p99 row to its span tree) appears only on traced runs, keeping
    // untraced output byte-identical.
    std::vector<std::string> split_header = {"Algo",        "Queue p50",   "Queue p95",
                                             "Queue p99",   "Queue p99.9", "Service p50",
                                             "Service p95", "Service p99", "Service p99.9"};
    if (traced) split_header.push_back("Exemplar req");
    util::Table split(split_header);
    for (const std::string& algo : algos) {
      const FixedHistogram* queue =
          metrics.FindHistogram("serve_queue_wait_ms", {{"algo", algo}});
      const FixedHistogram* service =
          metrics.FindHistogram("serve_service_ms", {{"algo", algo}});
      if (queue == nullptr || service == nullptr) continue;
      std::vector<std::string> cells = {algo,
                                        util::FormatDouble(queue->Percentile(50), 3),
                                        util::FormatDouble(queue->Percentile(95), 3),
                                        util::FormatDouble(queue->Percentile(99), 3),
                                        util::FormatDouble(queue->Percentile(99.9), 3),
                                        util::FormatDouble(service->Percentile(50), 3),
                                        util::FormatDouble(service->Percentile(95), 3),
                                        util::FormatDouble(service->Percentile(99), 3),
                                        util::FormatDouble(service->Percentile(99.9), 3)};
      if (traced) {
        auto it = latency_exemplars.find(algo);
        cells.push_back(it == latency_exemplars.end() ? "-" : std::to_string(it->second));
      }
      split.AddRow(cells);
    }
    out += "\n";
    out += split.Render("Latency split (ms)");

    util::Table cost({"Algo", "Queries", "Mean service ms", "Mean |est err| ms",
                      "Mean cycles"});
    for (const CostObservation& c : cost_observations) {
      cost.AddRow({c.algo, std::to_string(c.queries),
                   util::FormatDouble(c.mean_service_ms, 3),
                   util::FormatDouble(c.mean_abs_error_ms, 3),
                   util::FormatDouble(c.mean_cycles, 0)});
    }
    out += "\n";
    out += cost.Render("Cost model observations");
  }

  if (!slo_stats.empty()) {
    util::Table slo({"Class", "Target ms", "Offered", "Ok", "Degraded", "Shed",
                     "Timed out", "Rejected", "Goodput %", "p50 ms", "p99 ms"});
    for (const SloStat& s : slo_stats) {
      slo.AddRow({SloClassName(s.slo), util::FormatDouble(s.slo_target_ms, 1),
                  std::to_string(s.offered), std::to_string(s.ok),
                  std::to_string(s.degraded), std::to_string(s.shedded),
                  std::to_string(s.timed_out), std::to_string(s.rejected),
                  util::FormatDouble(100.0 * s.Goodput(), 1),
                  util::FormatDouble(s.p50_ms, 3), util::FormatDouble(s.p99_ms, 3)});
    }
    out += "\n";
    out += slo.Render("SLO classes");
  }

  // Burn-rate alert evaluations; present only under --slo-alerts.
  if (!alerts.empty()) {
    util::Table alert({"Class", "Samples", "Bad", "Fired", "Max fast burn", "State"});
    for (const trace::AlertSeries& a : alerts) {
      alert.AddRow({a.name, std::to_string(a.samples), std::to_string(a.bad),
                    std::to_string(a.fired), util::FormatDouble(a.max_fast_burn, 2),
                    a.firing_at_end ? "FIRING" : "ok"});
    }
    out += "\n";
    out += alert.Render("SLO burn-rate alerts");
  }

  if (!shard_stats.empty()) {
    // The stream-dispatch columns appear only on async replays, keeping
    // sync fleet output byte-identical to the pre-stream layout.
    std::vector<std::string> header = {"Shard",    "Dispatches", "Served", "Degraded",
                                       "In",       "Out",        "Rebuilds", "Evict",
                                       "Reload",   "Faults",     "Busy ms"};
    if (async_dispatch) {
      header.insert(header.end(), {"Prestage", "Prestage ms", "Overlap ms"});
    }
    header.push_back("State");
    util::Table shards(header);
    for (const ShardStat& s : shard_stats) {
      std::vector<std::string> cells = {
          std::to_string(s.shard),        std::to_string(s.dispatches),
          std::to_string(s.served),       std::to_string(s.degraded),
          std::to_string(s.rerouted_in),  std::to_string(s.rerouted_out),
          std::to_string(s.rebuilds),     std::to_string(s.evictions),
          std::to_string(s.reloads),      std::to_string(s.launch_failures),
          util::FormatDouble(s.busy_ms, 3)};
      if (async_dispatch) {
        cells.push_back(std::to_string(s.prestages));
        cells.push_back(util::FormatDouble(s.prestage_ms, 3));
        cells.push_back(util::FormatDouble(s.overlap_ms, 3));
      }
      cells.push_back(s.dead ? "dead" : "up");
      shards.AddRow(cells);
    }
    out += "\n";
    out += shards.Render("Shards");
  }
  return out;
}

std::string ServeReport::Json() const {
  util::JsonWriter w;
  w.BeginObject().Key("mode").String(mode).Key("requests").Uint(total_requests);
  w.Key("completed").Uint(completed).Key("rejected").Uint(rejected);
  w.Key("timed_out").Uint(timed_out).Key("degraded").Uint(degraded);
  w.Key("dispatches").Uint(batches).Key("session_rebuilds").Uint(session_rebuilds);
  w.Key("load_ms").Double(load_ms, 4).Key("makespan_ms").Double(makespan_ms, 4);
  w.Key("throughput_qps").Double(ThroughputQps(), 3);
  w.Key("latency_p50_ms").Double(LatencyPercentileMs(0.50), 4);
  w.Key("latency_p95_ms").Double(LatencyPercentileMs(0.95), 4);
  w.Key("latency_p99_ms").Double(LatencyPercentileMs(0.99), 4);
  w.Key("latency_p999_ms").Double(LatencyPercentileMs(0.999), 4);
  w.Key("mean_batch_occupancy").Double(MeanBatchOccupancy(), 3);
  w.Key("reached_total").Uint(reached_total);
  w.Key("launch_failures").Uint(faults.launch_failures);
  w.Key("query_retries").Uint(faults.retries).Key("ecc_corrected").Uint(faults.ecc_corrected);
  w.Key("restaged_buffers").Uint(faults.restaged_buffers);
  w.Key("restaged_bytes").Uint(faults.restaged_bytes);
  w.Key("backoff_ms").Double(faults.backoff_ms, 4).Key("device_lost").Bool(faults.device_lost);
  w.Key("check_launches").Uint(check.launches_checked);
  w.Key("check_errors").Uint(check.ErrorCount()).Key("check_warnings").Uint(check.WarningCount());
  // Emitted only on async replays so sync JSON stays byte-identical.
  if (async_dispatch) w.Key("async_dispatch").Bool(true);
  // Same contract for the million-user scheduler features (section 15):
  // keys appear only when the feature was configured.
  if (edf) w.Key("edf").Bool(true);
  if (memo_configured) w.Key("memo_hits").Uint(memo_hits);
  if (autoscale_configured) {
    w.Key("autoscale").BeginObject().Key("shards_active").Uint(shards_active);
    w.Key("scale_events").BeginArray();
    for (const LadderTransition& tr : scale_events) {
      w.BeginObject().Key("at_ms").Double(tr.at_ms, 4).Key("from").Uint(tr.from_level);
      w.Key("to").Uint(tr.to_level).EndObject();
    }
    w.EndArray().EndObject();
  }
  // Emitted only on traced replays (same contract).
  if (traced) w.Key("traced").Bool(true).Key("traced_requests").Uint(request_traces.size());
  // Overload-control block: emitted only when an overload feature was
  // configured or the trace carried SLO classes, so features-off JSON
  // carries no overload key (same contract as async_dispatch).
  if (overload.Active()) {
    w.Key("shedded").Uint(shedded).Key("overload").BeginObject();
    w.Key("brownout_level").Uint(overload.brownout_level);
    w.Key("brownout_max_level").Uint(overload.brownout_max_level);
    w.Key("brownout_transitions").Uint(overload.brownout_transitions.size());
    w.Key("brownout_degraded").Uint(overload.brownout_degraded);
    w.Key("retry_granted").Uint(overload.retry_granted);
    w.Key("retry_denied").Uint(overload.retry_denied);
    w.Key("rebuild_granted").Uint(overload.rebuild_granted);
    w.Key("rebuild_denied").Uint(overload.rebuild_denied);
    w.Key("breaker_opens").Uint(overload.breaker_opens);
    w.Key("breaker_probes").Uint(overload.breaker_probes);
    w.Key("breaker_probe_failures").Uint(overload.breaker_probe_failures).EndObject();
  }
  if (!slo_stats.empty()) {
    w.Key("slo").BeginArray();
    for (const SloStat& s : slo_stats) {
      w.BeginObject().Key("class").String(SloClassName(s.slo));
      w.Key("target_ms").Double(s.slo_target_ms, 1).Key("offered").Uint(s.offered);
      w.Key("ok").Uint(s.ok).Key("degraded").Uint(s.degraded).Key("shedded").Uint(s.shedded);
      w.Key("timed_out").Uint(s.timed_out).Key("rejected").Uint(s.rejected);
      w.Key("slo_met").Uint(s.slo_met).Key("goodput").Double(s.Goodput(), 4);
      w.Key("p50_ms").Double(s.p50_ms, 4).Key("p99_ms").Double(s.p99_ms, 4).EndObject();
    }
    w.EndArray();
  }

  // Per-algo latency split + cost-model observations.
  w.Key("algos").BeginArray();
  for (const CostObservation& c : cost_observations) {
    w.BeginObject().Key("algo").String(c.algo).Key("queries").Uint(c.queries);
    w.Key("mean_service_ms").Double(c.mean_service_ms, 4);
    w.Key("mean_abs_cost_error_ms").Double(c.mean_abs_error_ms, 4);
    w.Key("mean_cycles").Double(c.mean_cycles, 1);
    const FixedHistogram* queue =
        metrics.FindHistogram("serve_queue_wait_ms", {{"algo", c.algo}});
    const FixedHistogram* service =
        metrics.FindHistogram("serve_service_ms", {{"algo", c.algo}});
    if (queue != nullptr && service != nullptr) {
      w.Key("queue_wait_p50_ms").Double(queue->Percentile(50), 4);
      w.Key("queue_wait_p95_ms").Double(queue->Percentile(95), 4);
      w.Key("queue_wait_p99_ms").Double(queue->Percentile(99), 4);
      w.Key("queue_wait_p999_ms").Double(queue->Percentile(99.9), 4);
      w.Key("service_p50_ms").Double(service->Percentile(50), 4);
      w.Key("service_p95_ms").Double(service->Percentile(95), 4);
      w.Key("service_p99_ms").Double(service->Percentile(99), 4);
      w.Key("service_p999_ms").Double(service->Percentile(99.9), 4);
    }
    if (traced) {
      auto it = latency_exemplars.find(c.algo);
      if (it != latency_exemplars.end()) w.Key("exemplar_request").Uint(it->second);
    }
    w.EndObject();
  }
  w.EndArray();
  if (!shard_stats.empty()) {
    w.Key("shards").BeginArray();
    for (const ShardStat& s : shard_stats) {
      w.BeginObject().Key("shard").Uint(s.shard).Key("dispatches").Uint(s.dispatches);
      w.Key("served").Uint(s.served).Key("degraded").Uint(s.degraded);
      w.Key("rerouted_in").Uint(s.rerouted_in).Key("rerouted_out").Uint(s.rerouted_out);
      w.Key("rebuilds").Uint(s.rebuilds).Key("evictions").Uint(s.evictions);
      w.Key("reloads").Uint(s.reloads).Key("launch_failures").Uint(s.launch_failures);
      w.Key("dead").Bool(s.dead).Key("busy_ms").Double(s.busy_ms, 4);
      w.Key("peak_resident_bytes").Uint(s.peak_resident_bytes);
      if (async_dispatch) {
        w.Key("prestages").Uint(s.prestages).Key("prestage_ms").Double(s.prestage_ms, 4);
        w.Key("overlap_ms").Double(s.overlap_ms, 4);
      }
      w.EndObject();
    }
    w.EndArray();
  }
  // Burn-rate alert block: present only under --slo-alerts.
  if (!alerts.empty()) {
    w.Key("alerts").BeginArray();
    for (const trace::AlertSeries& a : alerts) {
      w.BeginObject().Key("class").String(a.name).Key("samples").Uint(a.samples);
      w.Key("bad").Uint(a.bad).Key("fired").Uint(a.fired).Key("firing").Bool(a.firing_at_end);
      w.Key("max_fast_burn").Double(a.max_fast_burn, 4).Key("transitions").BeginArray();
      for (const trace::AlertTransition& tr : a.transitions) {
        w.BeginObject().Key("at_ms").Double(tr.at_ms, 4).Key("firing").Bool(tr.firing);
        w.Key("fast_burn").Double(tr.fast_burn, 4);
        w.Key("slow_burn").Double(tr.slow_burn, 4).EndObject();
      }
      w.EndArray().EndObject();
    }
    w.EndArray();
  }
  return w.EndObject().Take();
}

std::string ServeReport::RenderRequestTraceJson() const {
  if (!traced) return "";
  util::JsonWriter w;
  w.BeginObject().Key("traces").BeginArray();
  for (const auto& [id, events] : request_traces) {
    w.Newline().BeginObject().Key("id").Uint(id).Key("events").BeginArray();
    for (const trace::TraceEvent& e : events) w.Newline().Raw(trace::RenderTraceEventJson(e));
    w.EndArray().EndObject();
  }
  return w.Newline().EndArray().EndObject().Newline().Take();
}

std::string ServeReport::RenderBlackbox() const {
  std::string out;
  for (const trace::FlightDump& d : blackbox) out += d.text;
  return out;
}

}  // namespace eta::serve
