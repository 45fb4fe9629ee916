// Label upload and report epilogue shared by the three baseline runners.
#pragma once

#include <span>
#include <vector>

#include "core/run_report.hpp"
#include "cpu/reference.hpp"
#include "sim/device.hpp"

namespace eta::baselines {

/// Uploads `algo`'s single-source initial labels into `labels`.
inline void UploadInitLabels(sim::Device& device, sim::Buffer<graph::Weight>& labels,
                             core::Algo algo, graph::VertexId source) {
  std::vector<graph::Weight> init(labels.count, core::InitLabel(algo, false));
  init[source] = core::InitLabel(algo, true);
  device.CopyToDevice(labels, std::span<const graph::Weight>(init));
}

/// Reads the final labels back and fills the report's clocks, iteration and
/// reach counts, counters and timeline.
inline void FinishReport(sim::Device& device, const sim::Buffer<graph::Weight>& labels,
                         double kernel_ms, core::RunReport& report) {
  const uint64_t n = labels.count;
  report.labels.resize(n);
  device.CopyToHost(std::span<graph::Weight>(report.labels), labels);
  report.kernel_ms = kernel_ms;
  report.total_ms = device.NowMs();
  report.iterations = static_cast<uint32_t>(report.iteration_stats.size());
  report.activated = cpu::CountReached(report.labels, core::IsWidest(report.algo));
  report.activated_fraction = n ? static_cast<double>(report.activated) / n : 0;
  report.counters = device.TotalCounters();
  report.timeline = device.GetTimeline();
}

}  // namespace eta::baselines
