// Table III one-shot matrix: CuSha, Gunrock, Tigr, EtaGraph and EtaGraph
// w/o UMP x BFS/SSSP/SSWP from graph::kQuerySource, every non-O.O.M cell's
// labels checked against core::CpuReference.
//
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/cusha.hpp"
#include "baselines/gunrock.hpp"
#include "baselines/tigr.hpp"
#include "bench.hpp"
#include "core/framework.hpp"
#include "graph/datasets.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using eta::core::Algo;
using eta::core::RunReport;

enum class Fw { kCusha, kGunrock, kTigr, kEta, kEtaNoUmp };
constexpr std::array<Fw, 5> kFrameworks = {Fw::kCusha, Fw::kGunrock, Fw::kTigr, Fw::kEta,
                                           Fw::kEtaNoUmp};
constexpr std::array<Algo, 3> kAlgos = {Algo::kBfs, Algo::kSssp, Algo::kSswp};

const char* SpanName(Fw fw) {
  switch (fw) {
    case Fw::kCusha: return "baselines.Cusha.Run";
    case Fw::kGunrock: return "baselines.Gunrock.Run";
    case Fw::kTigr: return "baselines.Tigr.Run";
    case Fw::kEta: return "core.EtaGraph.Run";
    case Fw::kEtaNoUmp: return "core.EtaGraph.Run";
  }
  return "";
}

bool IsBaseline(Fw fw) { return fw == Fw::kCusha || fw == Fw::kGunrock || fw == Fw::kTigr; }

/// Everything the metrics need from one pass over the matrix.
struct PassStats {
  std::vector<double> eta_total_ms;     // per algo, EtaGraph (with UMP)
  std::vector<double> eta_kernel_ms;
  std::vector<double> speedups;         // best non-O.O.M baseline / EtaGraph
  uint64_t cells = 0;
  uint64_t oom_cells = 0;
  uint64_t wrong_cells = 0;
  eta::sim::Counters counters;          // summed over every run
  double compute_ms = 0, h2d_ms = 0, d2h_ms = 0, stall_ms = 0, overlap_ms = 0;
  uint64_t migrated_bytes = 0, migrations = 0;
  uint64_t iterations = 0, activated = 0, shadow_vertices = 0;  // EtaGraph runs
  double ondemand_total_ms = 0;         // EtaGraph w/o UMP totals
  uint64_t launches = 0;                // etaprof records (traced)
  double udc_ms = 0, traverse_ms = 0, other_kernel_ms = 0;
  uint64_t profile_records = 0;
};

class Table3 : public Workload {
 public:
  Table3(std::string dataset, double scale, double device_mb, uint64_t seed)
      : dataset_(std::move(dataset)), scale_(scale), device_mb_(device_mb), seed_(seed) {}

  void Setup(SpanLog& spans) override {
    {
      SpanLog::Scope span(spans, "graph.BuildDataset");
      // The seed sizes the stand-in within +-2% of the workload's scale and
      // re-derives its edge weights: every cell sees a different input.
      eta::util::SplitMix64 rng = eta::util::SplitMix64::Stream(seed_, /*tag=*/0x73);
      csr_ = eta::graph::BuildDataset(dataset_, scale_ * (0.98 + 0.04 * rng.NextDouble()));
      csr_.DeriveWeights(seed_);
    }
    for (size_t a = 0; a < kAlgos.size(); ++a) {
      SpanLog::Scope span(spans, "cpu.CpuReference");
      refs_[a] = eta::core::CpuReference(csr_, kAlgos[a], eta::graph::kQuerySource);
    }
  }

  PassOutcome Pass(SpanLog& spans, bool traced) override {
    stats_ = PassStats{};
    Digest digest;
    PassOutcome out;
    for (size_t a = 0; a < kAlgos.size(); ++a) {
      const Algo algo = kAlgos[a];
      double best_baseline_ms = 0;
      double eta_total_ms = 0;
      for (Fw fw : kFrameworks) {
        RunReport r;
        {
          SpanLog::Scope span(spans, SpanName(fw));
          r = Run(fw, algo, traced);
          if (r.oom && IsBaseline(fw)) span.Rename("baselines.oom");
        }
        ++out.attempted;
        if (!r.oom && r.labels != refs_[a]) {
          ++out.wrong;
          std::fprintf(stderr, "WRONG ANSWER: %s %s on %s\n", SpanName(fw),
                       eta::core::AlgoName(algo), dataset_.c_str());
        }
        Fold(fw, r, &digest);
        if (r.oom) continue;
        if (IsBaseline(fw) && (best_baseline_ms == 0 || r.total_ms < best_baseline_ms)) {
          best_baseline_ms = r.total_ms;
        }
        if (fw == Fw::kEta) {
          eta_total_ms = r.total_ms;
          stats_.eta_total_ms.push_back(r.total_ms);
          stats_.eta_kernel_ms.push_back(r.kernel_ms);
        }
      }
      if (best_baseline_ms > 0 && eta_total_ms > 0) {
        stats_.speedups.push_back(best_baseline_ms / eta_total_ms);
      }
    }
    out.fingerprint = digest.Value();
    stats_.wrong_cells = out.wrong;
    return out;
  }

  void EndToEnd(MetricMap* out) const override {
    const PassStats& s = stats_;
    double eta_sum_ms = 0;
    for (double ms : s.eta_total_ms) eta_sum_ms += ms;
    (*out)["sim_total_ms"] = GeoMean(s.eta_total_ms);
    (*out)["sim_kernel_ms"] = GeoMean(s.eta_kernel_ms);
    (*out)["sim_speedup"] = GeoMean(s.speedups);
    (*out)["sim_latency_p50_ms"] = Percentile(s.eta_total_ms, 0.5);
    (*out)["sim_latency_p95_ms"] = Percentile(s.eta_total_ms, 0.95);
    (*out)["sim_throughput_qps"] =
        eta_sum_ms > 0 ? 1000.0 * static_cast<double>(s.eta_total_ms.size()) / eta_sum_ms : 0;
    (*out)["sim_goodput"] =
        static_cast<double>(s.cells - s.oom_cells) / static_cast<double>(s.cells);
    // O.O.M is an answer: the expected Table III outcome for that cell.
    (*out)["answered_share"] =
        static_cast<double>(s.cells - s.wrong_cells) / static_cast<double>(s.cells);
  }

  void PerLayer(MetricMap* out) const override {
    const PassStats& s = stats_;
    const eta::sim::Counters& c = s.counters;
    MetricMap& m = *out;
    m["core.iterations"] = static_cast<double>(s.iterations);
    m["core.activated"] = static_cast<double>(s.activated);
    m["core.shadow_vertices"] = static_cast<double>(s.shadow_vertices);
    m["core.ondemand_total_ms"] = s.ondemand_total_ms;
    m["sim.warp_instructions"] = static_cast<double>(c.warp_instructions);
    m["sim.warp_efficiency"] = c.WarpEfficiency();
    m["sim.l1_accesses"] = static_cast<double>(c.l1_accesses);
    m["sim.l1_hit_rate"] = c.L1HitRate();
    m["sim.l2_accesses"] = static_cast<double>(c.l2_accesses);
    m["sim.l2_hit_rate"] = c.L2HitRate();
    m["sim.dram_read_tx"] = static_cast<double>(c.dram_read_transactions);
    m["sim.dram_write_tx"] = static_cast<double>(c.dram_write_transactions);
    m["sim.atomic_ops"] = static_cast<double>(c.atomic_operations);
    m["sim.um_migrated_mb"] = static_cast<double>(s.migrated_bytes) / (1024.0 * 1024.0);
    m["sim.um_migrations"] = static_cast<double>(s.migrations);
    m["sim.um_mean_migration_kb"] =
        s.migrations == 0
            ? 0
            : static_cast<double>(s.migrated_bytes) / 1024.0 / static_cast<double>(s.migrations);
    m["sim.compute_ms"] = s.compute_ms;
    m["sim.h2d_ms"] = s.h2d_ms;
    m["sim.d2h_ms"] = s.d2h_ms;
    m["sim.stall_ms"] = s.stall_ms;
    m["sim.overlap_ms"] = s.overlap_ms;
    m["prof.launches"] = static_cast<double>(s.launches);
    m["prof.udc_ms"] = s.udc_ms;
    m["prof.traverse_ms"] = s.traverse_ms;
    m["prof.other_kernel_ms"] = s.other_kernel_ms;
    m["trace.events"] = static_cast<double>(s.profile_records);
  }

  uint64_t FootprintBytes() const override {
    return csr_.TopologyBytes() + 4ull * csr_.NumEdges() + 4ull * csr_.NumVertices();
  }

  double CacheProbes(SpanLog&) override {
    return static_cast<double>(stats_.counters.l1_accesses + stats_.counters.l2_accesses);
  }

 private:
  RunReport Run(Fw fw, Algo algo, bool traced) const {
    const eta::graph::VertexId src = eta::graph::kQuerySource;
    eta::sim::DeviceSpec spec;
    spec.device_memory_bytes = static_cast<uint64_t>(device_mb_ * 1024 * 1024);
    switch (fw) {
      case Fw::kCusha: return eta::baselines::Cusha({.spec = spec}).Run(csr_, algo, src);
      case Fw::kGunrock: return eta::baselines::Gunrock({.spec = spec}).Run(csr_, algo, src);
      case Fw::kTigr: return eta::baselines::Tigr({.spec = spec}).Run(csr_, algo, src);
      case Fw::kEta:
      case Fw::kEtaNoUmp: {
        eta::core::EtaGraphOptions options;
        options.spec = spec;
        options.profile = traced;
        options.trace_requests = traced;
        if (fw == Fw::kEtaNoUmp) options.memory_mode = eta::core::MemoryMode::kUnifiedOnDemand;
        return eta::core::EtaGraph(options).Run(csr_, algo, src);
      }
    }
    return {};
  }

  /// Folds one run into the pass statistics and the digest.
  void Fold(Fw fw, const RunReport& r, Digest* d) {
    PassStats& s = stats_;
    ++s.cells;
    d->U(static_cast<uint64_t>(fw));
    d->U(static_cast<uint64_t>(r.algo));
    d->U(r.oom);
    if (r.oom) {
      ++s.oom_cells;
      d->U(r.oom_request_bytes);
      return;
    }
    const eta::sim::Counters& c = r.counters;
    s.counters += c;
    for (uint64_t v : {c.warp_instructions, c.thread_instructions, c.l1_accesses, c.l1_hits,
                       c.l2_accesses, c.l2_hits, c.dram_read_transactions,
                       c.dram_write_transactions, c.shared_accesses, c.atomic_operations,
                       c.mem_latency_cycles, c.launches}) {
      d->U(v);
    }
    d->F(c.elapsed_cycles);
    using eta::sim::SpanKind;
    const double compute = r.timeline.TotalMs(SpanKind::kCompute);
    const double h2d = r.timeline.TotalMs(SpanKind::kTransferH2D);
    const double d2h = r.timeline.TotalMs(SpanKind::kTransferD2H);
    const double stall = r.timeline.TotalMs(SpanKind::kStall);
    const double overlap = r.timeline.OverlapMs();
    s.compute_ms += compute;
    s.h2d_ms += h2d;
    s.d2h_ms += d2h;
    s.stall_ms += stall;
    s.overlap_ms += overlap;
    s.migrated_bytes += r.migrated_bytes;
    s.migrations += r.migration_sizes.size();
    for (double v : {r.kernel_ms, r.total_ms, r.query_ms, compute, h2d, d2h, stall, overlap}) {
      d->F(v);
    }
    d->U(r.iterations);
    d->U(r.activated);
    d->U(r.migrated_bytes);
    d->U(r.migration_sizes.size());
    d->U(r.device_bytes_peak);
    uint64_t shadow = 0;
    for (const eta::core::IterationStat& it : r.iteration_stats) {
      shadow += it.shadow_vertices;
      d->U(it.active_vertices);
      d->U(it.shadow_vertices);
      d->F(it.end_ms);
    }
    Digest labels;
    for (eta::graph::Weight w : r.labels) labels.U(w);
    d->U(labels.Value());
    if (fw == Fw::kEta || fw == Fw::kEtaNoUmp) {
      s.iterations += r.iterations;
      s.activated += r.activated;
      s.shadow_vertices += shadow;
      if (fw == Fw::kEtaNoUmp) s.ondemand_total_ms += r.total_ms;
      s.profile_records += r.kernel_profiles.size() + r.attempts.size();
      for (const eta::sim::KernelProfile& p : r.kernel_profiles) {
        ++s.launches;
        const double ms = p.DurationMs();
        if (p.name == "udc") {
          s.udc_ms += ms;
        } else if (p.name.rfind("traverse", 0) == 0) {
          s.traverse_ms += ms;
        } else {
          s.other_kernel_ms += ms;
        }
      }
    }
  }

  std::string dataset_;
  double scale_;
  double device_mb_;
  uint64_t seed_;
  eta::graph::Csr csr_;
  std::array<std::vector<eta::graph::Weight>, kAlgos.size()> refs_;
  PassStats stats_;
};

}  // namespace

std::unique_ptr<Workload> MakeTable3(const std::string& dataset, double scale,
                                     double device_mb, uint64_t seed) {
  return std::make_unique<Table3>(dataset, scale, device_mb, seed);
}

}  // namespace perfbench
