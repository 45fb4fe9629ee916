// Shared pieces of the perfbench program: host-clock spans, the digest of
// simulated outputs, metric maps, and the workload interface.
//
// Two clocks run through everything here. Host time (steady_clock seconds)
// is what the simulator costs to run; simulated time (milliseconds on the
// modelled GPU) is what the library reports. Names carry the clock:
// `*_host_s` / `*_s` are host, `sim_*` / `*_ms` are simulated.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

inline double HostSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `values`; 0 when empty.
double Median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1]; 0 when empty.
double Percentile(std::vector<double> values, double q);
/// Geometric mean of positive values; 0 when empty.
double GeoMean(const std::vector<double>& values);

/// FNV-1a over the bit patterns of every simulated value the benchmark
/// reads. Two runs with equal digests produced the same simulated outputs.
class Digest {
 public:
  void U(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 1099511628211ULL;
    }
  }
  void F(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U(bits);
  }
  uint64_t Value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

/// In-memory host spans around the benchmark's calls into the library.
/// Spans nest (RAII scopes); each carries the phase it ran in ("setup#0",
/// "pass#3", ...) and the run id shared by every span of one process.
class SpanLog {
 public:
  explicit SpanLog(std::string run_id) : run_id_(std::move(run_id)) {}

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  void SetPhase(std::string phase) { phase_ = std::move(phase); }

  class Scope {
   public:
    Scope(SpanLog& log, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Relabels the span once its outcome is known (e.g. an O.O.M run).
    void Rename(std::string name) { log_.spans_[index_].name = std::move(name); }

   private:
    SpanLog& log_;
    size_t index_;
  };

  /// Self time (duration minus child spans) summed per span name within
  /// each phase whose name starts with `phase_prefix`; returns, per name,
  /// the median over those phases (a phase without the name counts as 0).
  std::map<std::string, double> MedianSelfSeconds(const std::string& phase_prefix) const;

  size_t Size() const { return spans_.size(); }

  /// {"run_id":..,"spans":[{"id","parent","phase","name","start_s","end_s"}..]}
  /// with times relative to the first span.
  std::string Json() const;

 private:
  struct Span {
    std::string name;
    std::string phase;
    double start_s = 0;
    double end_s = 0;
    int64_t parent = -1;
  };

  std::string run_id_;
  std::string phase_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Metric values by name; units live in main.cpp's metric tables.
using MetricMap = std::map<std::string, double>;

/// Outcome of one timed pass over a workload.
struct PassOutcome {
  uint64_t attempted = 0;    // answers checked against the CPU reference
  uint64_t wrong = 0;        // answers that disagreed with it
  uint64_t fingerprint = 0;  // digest of every simulated value read
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds graphs, CPU reference answers and arrivals from the seed.
  /// Repeatable: each call rebuilds everything anew.
  virtual void Setup(SpanLog& spans) = 0;

  /// One pass over the workload's simulated work, checked against the CPU
  /// reference. `traced` turns on etaprof/etatrace in the library.
  virtual PassOutcome Pass(SpanLog& spans, bool traced) = 0;

  /// Simulated end-to-end metrics of the last pass, plus answered_share.
  virtual void EndToEnd(MetricMap* out) const = 0;

  /// Simulated per-layer metrics of the last pass (which must be traced).
  virtual void PerLayer(MetricMap* out) const = 0;

  /// Bytes of graph data the workload keeps resident (sizes probe streams).
  virtual uint64_t FootprintBytes() const = 0;

  /// SectorCache::Access calls the last traced pass made, or an estimate
  /// when the library does not expose the count. Run after Pass().
  virtual double CacheProbes(SpanLog& spans) = 0;
};

/// Table III matrix on `dataset` at `scale` on a device with `device_mb`
/// MiB of memory.
std::unique_ptr<Workload> MakeTable3(const std::string& dataset, double scale,
                                     double device_mb, uint64_t seed);
std::unique_ptr<Workload> MakeServeOverload(uint64_t seed);
std::unique_ptr<Workload> MakeServeCatalog(uint64_t seed);

/// Saturating classless burst on the serve_overload fleet; returns its
/// simulated throughput (qps). Used once to fix the overload rate.
double CalibrateOverloadCapacity(uint64_t seed);

/// Host cost per call of the simulator's hot primitives, measured through
/// their public entry points on fixed seeded streams (the same streams in
/// every run, sized by the workload's footprint).
struct ProbeCosts {
  double cache_access_ns = 0;
  double coalesce_ns = 0;
  double um_touch_ns = 0;
  uint64_t checksum = 0;  // keeps the probe loops observable
};
ProbeCosts RunProbes(SpanLog& spans, uint64_t footprint_bytes);

}  // namespace perfbench
