// Open-loop arrival processes for overload experiments (DESIGN.md §13).
//
// GenerateTrace (trace.hpp) drives closed-ish fixed bursts; this module
// models the load a serving fleet actually faces: an *open-loop* request
// stream whose rate is set by the outside world, not by the server's
// completion pace — so offered load can exceed capacity indefinitely.
// Profiles: homogeneous Poisson, bursty on/off, and diurnal (sinusoidal)
// rate modulation, all normalized so rate_qps is the *time-averaged* rate
// (capacity multiples in bench_overload stay meaningful across profiles).
// Requests carry SLO classes (gold/silver/bronze), hot-graph catalog skew,
// and per-tenant algorithm mixes. Every attribute draws from its own seeded
// util::SplitMix64 stream, so a (seed, options) pair names one exact trace
// forever and double runs replay byte-identically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/types.hpp"
#include "serve/types.hpp"

namespace eta::serve {

enum class ArrivalProfile : uint8_t {
  kPoisson,  // homogeneous Poisson at rate_qps
  kBursty,   // on/off: full rate for on_ms, off_rate_scale * rate for off_ms
  kDiurnal,  // sinusoidal between trough_scale * peak and peak, period_ms
};
const char* ArrivalProfileName(ArrivalProfile profile);

/// Per-tenant traffic description. Tenants are picked per request by
/// weight; each tenant has its own algorithm mix (remainder after
/// bfs + sssp is SSWP, as in TraceOptions).
struct TenantMix {
  double weight = 1.0;
  double bfs_fraction = 0.5;
  double sssp_fraction = 0.35;
};

struct ArrivalOptions {
  ArrivalProfile profile = ArrivalProfile::kPoisson;
  /// Time-averaged arrival rate, queries per simulated second.
  double rate_qps = 1000.0;
  uint32_t num_requests = 256;
  /// Bursty profile: burst length, gap length, and the rate multiplier
  /// applied during the gap (0 = fully silent between bursts).
  double on_ms = 20.0;
  double off_ms = 80.0;
  double off_rate_scale = 0.1;
  /// Diurnal profile: modulation period and the trough-to-peak rate ratio.
  double period_ms = 1000.0;
  double trough_scale = 0.2;
  /// Catalog skew: graph 0 is "hot" and receives hot_graph_fraction of the
  /// traffic; the rest spreads uniformly over graphs 1..num_graphs-1.
  uint32_t num_graphs = 1;
  double hot_graph_fraction = 0.8;
  /// Tenant set; empty means one default tenant (TenantMix{}).
  std::vector<TenantMix> tenants;
  /// Whole-graph query mix (DESIGN.md section 15): each request first draws
  /// connected-components / PageRank with these fleet-wide fractions; the
  /// per-source remainder then follows the tenant's bfs/sssp/sswp mix.
  /// Both default 0, and at 0 every draw (and its RNG consumption) is
  /// exactly the per-source mix's.
  double cc_fraction = 0;
  double pr_fraction = 0;
  /// SLO class mix: gold + silver fractions, remainder bronze. When
  /// assign_slo is false, requests are classless (SloClass::kNone) and
  /// the deadline fields below are ignored.
  bool assign_slo = true;
  double gold_fraction = 0.2;
  double silver_fraction = 0.3;
  /// Per-class queueing deadlines (Request::deadline_ms); kNoDeadline
  /// disables a class's deadline.
  double gold_deadline_ms = kNoDeadline;
  double silver_deadline_ms = kNoDeadline;
  double bronze_deadline_ms = kNoDeadline;
  uint64_t seed = 1;
};

/// Generates `options.num_requests` requests over sources in
/// [0, num_vertices), sorted by arrival time, ids 0..n-1 in arrival order.
/// Classed requests get SloPriority(class) as their scheduler priority.
std::vector<Request> GenerateArrivals(graph::VertexId num_vertices,
                                      const ArrivalOptions& options);

/// Upper bounds ParseArrivalSpec accepts for the sized keys: `n` (requests
/// in the generated trace) and `tenants`.
inline constexpr uint32_t kMaxArrivalRequests = 1u << 20;
inline constexpr uint32_t kMaxArrivalTenants = 1024;

/// Parses a CLI arrival spec: "profile:key=value,key=value,...", e.g.
/// "poisson:rate=2000,n=512,gold=0.25,seed=7" or
/// "bursty:rate=1500,on=10,off=90,offscale=0" or
/// "diurnal:rate=800,period=500,trough=0.1,graphs=4,hot=0.7".
/// Keys: rate, n, on, off, offscale, period, trough, graphs, hot, tenants,
/// slo (0/1), gold, silver, gd, sd, bd (per-class deadlines ms), seed.
/// Every value must be a finite number in its key's range; n, graphs,
/// tenants, slo and seed are decimal integers (no fraction or exponent)
/// that fit their fields (n at most kMaxArrivalRequests, tenants at most
/// kMaxArrivalTenants). Returns false and sets *error on a malformed or
/// out-of-range spec.
bool ParseArrivalSpec(const std::string& spec, ArrivalOptions* options,
                      std::string* error);

}  // namespace eta::serve
