#include "serve/arrivals.hpp"

#include <cmath>
#include <cstdlib>
#include <limits>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace eta::serve {
namespace {

constexpr double kPi = 3.14159265358979323846;

// Raw (unnormalized) rate-modulation factor of a profile at time t. The
// generator divides by the factor's time average so rate_qps stays the mean
// rate of every profile, and thins candidate arrivals by factor/max_factor.
double RawFactor(const ArrivalOptions& o, double t) {
  switch (o.profile) {
    case ArrivalProfile::kPoisson: return 1.0;
    case ArrivalProfile::kBursty: {
      const double phase = std::fmod(t, o.on_ms + o.off_ms);
      return phase < o.on_ms ? 1.0 : o.off_rate_scale;
    }
    case ArrivalProfile::kDiurnal:
      return o.trough_scale +
             (1.0 - o.trough_scale) * 0.5 * (1.0 + std::sin(2.0 * kPi * t / o.period_ms));
  }
  return 1.0;
}

double MeanFactor(const ArrivalOptions& o) {
  switch (o.profile) {
    case ArrivalProfile::kPoisson: return 1.0;
    case ArrivalProfile::kBursty:
      return (o.on_ms + o.off_ms * o.off_rate_scale) / (o.on_ms + o.off_ms);
    case ArrivalProfile::kDiurnal: return o.trough_scale + (1.0 - o.trough_scale) * 0.5;
  }
  return 1.0;
}

double MaxFactor(const ArrivalOptions& o) {
  switch (o.profile) {
    case ArrivalProfile::kPoisson: return 1.0;
    case ArrivalProfile::kBursty: return std::max(1.0, o.off_rate_scale);
    case ArrivalProfile::kDiurnal: return 1.0;
  }
  return 1.0;
}

}  // namespace

const char* ArrivalProfileName(ArrivalProfile profile) {
  switch (profile) {
    case ArrivalProfile::kPoisson: return "poisson";
    case ArrivalProfile::kBursty: return "bursty";
    case ArrivalProfile::kDiurnal: return "diurnal";
  }
  return "?";
}

std::vector<Request> GenerateArrivals(graph::VertexId num_vertices,
                                      const ArrivalOptions& options) {
  ETA_CHECK(num_vertices > 0);
  ETA_CHECK(options.rate_qps > 0);
  ETA_CHECK(options.num_graphs >= 1);
  ETA_CHECK(options.hot_graph_fraction >= 0 && options.hot_graph_fraction <= 1.0);
  ETA_CHECK(options.gold_fraction + options.silver_fraction <= 1.0 + 1e-9);
  ETA_CHECK(options.cc_fraction >= 0 && options.pr_fraction >= 0);
  ETA_CHECK(options.cc_fraction + options.pr_fraction <= 1.0 + 1e-9);
  if (options.profile == ArrivalProfile::kBursty) {
    ETA_CHECK(options.on_ms > 0 && options.off_ms >= 0 && options.off_rate_scale >= 0);
    ETA_CHECK(options.on_ms + options.off_ms * options.off_rate_scale > 0);
  }
  if (options.profile == ArrivalProfile::kDiurnal) {
    ETA_CHECK(options.period_ms > 0);
    ETA_CHECK(options.trough_scale >= 0 && options.trough_scale <= 1.0);
  }

  const std::vector<TenantMix> tenants =
      options.tenants.empty() ? std::vector<TenantMix>{TenantMix{}} : options.tenants;
  double tenant_weight = 0;
  for (const TenantMix& t : tenants) {
    ETA_CHECK(t.weight >= 0);
    ETA_CHECK(t.bfs_fraction + t.sssp_fraction <= 1.0 + 1e-9);
    tenant_weight += t.weight;
  }
  ETA_CHECK(tenant_weight > 0);

  // Independent streams per attribute (trace.cpp idiom): changing e.g. the
  // SLO mix leaves arrival times, sources and graph picks untouched.
  util::SplitMix64 arrivals = util::SplitMix64::Stream(options.seed, 1);
  util::SplitMix64 sources = util::SplitMix64::Stream(options.seed, 2);
  util::SplitMix64 algos = util::SplitMix64::Stream(options.seed, 3);
  util::SplitMix64 slos = util::SplitMix64::Stream(options.seed, 4);
  util::SplitMix64 graphs = util::SplitMix64::Stream(options.seed, 5);
  util::SplitMix64 tenant_picks = util::SplitMix64::Stream(options.seed, 6);

  // Lewis–Shedler thinning for the time-varying profiles: draw candidate
  // gaps from a homogeneous Poisson at the profile's *peak* rate, keep each
  // candidate with probability factor(t) / max_factor. The normalized peak
  // rate divides by the factor's mean so rate_qps is the time average.
  const double mean = MeanFactor(options);
  const double peak_rate_per_ms = options.rate_qps * MaxFactor(options) / mean / 1000.0;
  const double mean_gap_ms = 1.0 / peak_rate_per_ms;

  std::vector<Request> trace;
  trace.reserve(options.num_requests);
  double t = 0;
  for (uint32_t i = 0; i < options.num_requests; ++i) {
    for (;;) {
      t += -mean_gap_ms * std::log1p(-arrivals.NextDouble());
      if (options.profile == ArrivalProfile::kPoisson) break;
      const double keep = RawFactor(options, t) / MaxFactor(options);
      if (arrivals.NextDouble() < keep) break;
    }

    Request r;
    r.id = i;
    r.arrival_ms = t;
    r.source = static_cast<graph::VertexId>(sources.NextBounded(num_vertices));

    // Hot-graph skew: graph 0 absorbs hot_graph_fraction of the traffic.
    if (options.num_graphs > 1) {
      if (graphs.NextDouble() < options.hot_graph_fraction) {
        r.graph_id = 0;
      } else {
        r.graph_id = 1 + static_cast<uint32_t>(graphs.NextBounded(options.num_graphs - 1));
      }
    }

    // Tenant by weight, then that tenant's algorithm mix.
    double pick = tenant_picks.NextDouble() * tenant_weight;
    uint32_t tenant = 0;
    for (; tenant + 1 < tenants.size(); ++tenant) {
      pick -= tenants[tenant].weight;
      if (pick < 0) break;
    }
    r.tenant = tenant;
    const TenantMix& mix = tenants[tenant];
    // One draw decides both the whole-graph carve-out and the per-source
    // mix: with cc+pr == 0 the rescaled v equals u, so the per-source
    // draw is unchanged.
    const double u = algos.NextDouble();
    const double whole = options.cc_fraction + options.pr_fraction;
    if (u < options.cc_fraction) {
      r.algo = core::Algo::kCc;
    } else if (u < whole) {
      r.algo = core::Algo::kPr;
    } else {
      const double v = whole > 0 ? (u - whole) / (1.0 - whole) : u;
      r.algo = v < mix.bfs_fraction ? core::Algo::kBfs
               : v < mix.bfs_fraction + mix.sssp_fraction ? core::Algo::kSssp
                                                          : core::Algo::kSswp;
    }

    if (options.assign_slo) {
      const double c = slos.NextDouble();
      r.slo = c < options.gold_fraction ? SloClass::kGold
              : c < options.gold_fraction + options.silver_fraction ? SloClass::kSilver
                                                                    : SloClass::kBronze;
      r.priority = SloPriority(r.slo);
      r.deadline_ms = r.slo == SloClass::kGold     ? options.gold_deadline_ms
                      : r.slo == SloClass::kSilver ? options.silver_deadline_ms
                                                   : options.bronze_deadline_ms;
    }
    trace.push_back(r);
  }
  return trace;
}

bool ParseArrivalSpec(const std::string& spec, ArrivalOptions* options,
                      std::string* error) {
  ETA_CHECK(options != nullptr && error != nullptr);
  const size_t colon = spec.find(':');
  const std::string profile = spec.substr(0, colon);
  if (profile == "poisson") {
    options->profile = ArrivalProfile::kPoisson;
  } else if (profile == "bursty") {
    options->profile = ArrivalProfile::kBursty;
  } else if (profile == "diurnal") {
    options->profile = ArrivalProfile::kDiurnal;
  } else {
    *error = "unknown arrival profile '" + profile + "' (poisson|bursty|diurnal)";
    return false;
  }
  if (colon == std::string::npos) return true;

  std::string rest = spec.substr(colon + 1);
  while (!rest.empty()) {
    const size_t comma = rest.find(',');
    const std::string kv = rest.substr(0, comma);
    rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
    const size_t eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
      *error = "malformed arrival key=value '" + kv + "'";
      return false;
    }
    const std::string key = kv.substr(0, eq);
    const std::string value = kv.substr(eq + 1);
    char* end = nullptr;
    const double num = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || !std::isfinite(num)) {
      *error = "bad number '" + value + "' for arrival key '" + key + "'";
      return false;
    }
    // Integer-valued keys: a fraction, or a value the target type cannot
    // hold, is out of range (casting it would be undefined behaviour).
    auto integral_in = [num](double lo, double hi) {
      return num == std::floor(num) && num >= lo && num <= hi;
    };
    if (key == "rate" && num > 0) {
      options->rate_qps = num;
    } else if (key == "n" && integral_in(1, kMaxArrivalRequests)) {
      options->num_requests = static_cast<uint32_t>(num);
    } else if (key == "on" && num > 0) {
      options->on_ms = num;
    } else if (key == "off" && num >= 0) {
      options->off_ms = num;
    } else if (key == "offscale" && num >= 0) {
      options->off_rate_scale = num;
    } else if (key == "period" && num > 0) {
      options->period_ms = num;
    } else if (key == "trough" && num >= 0 && num <= 1) {
      options->trough_scale = num;
    } else if (key == "graphs" && integral_in(1, std::numeric_limits<uint32_t>::max())) {
      options->num_graphs = static_cast<uint32_t>(num);
    } else if (key == "hot" && num >= 0 && num <= 1) {
      options->hot_graph_fraction = num;
    } else if (key == "tenants" && integral_in(1, kMaxArrivalTenants)) {
      // K tenants with deterministically spread algo mixes and unequal
      // weights, so multi-tenant runs exercise the weighted pick.
      const uint32_t k = static_cast<uint32_t>(num);
      options->tenants.clear();
      for (uint32_t i = 0; i < k; ++i) {
        TenantMix mix;
        mix.weight = 1.0 + i;
        mix.bfs_fraction = k == 1 ? 0.5 : 0.2 + 0.6 * i / (k - 1);
        mix.sssp_fraction = 0.8 * (1.0 - mix.bfs_fraction);
        options->tenants.push_back(mix);
      }
    } else if (key == "slo" && (num == 0 || num == 1)) {
      options->assign_slo = num != 0;
    } else if (key == "cc" && num >= 0 && num <= 1) {
      options->cc_fraction = num;
    } else if (key == "pr" && num >= 0 && num <= 1) {
      options->pr_fraction = num;
    } else if (key == "gold" && num >= 0 && num <= 1) {
      options->gold_fraction = num;
    } else if (key == "silver" && num >= 0 && num <= 1) {
      options->silver_fraction = num;
    } else if (key == "gd" && num > 0) {
      options->gold_deadline_ms = num;
    } else if (key == "sd" && num > 0) {
      options->silver_deadline_ms = num;
    } else if (key == "bd" && num > 0) {
      options->bronze_deadline_ms = num;
    } else if (key == "seed" && integral_in(0, 0x1.fffffffffffffp63)) {  // < 2^64
      options->seed = static_cast<uint64_t>(num);
    } else {
      *error = "unknown or out-of-range arrival key '" + key + "'";
      return false;
    }
  }
  if (options->gold_fraction + options->silver_fraction > 1.0 + 1e-9) {
    *error = "gold + silver fractions exceed 1";
    return false;
  }
  if (options->cc_fraction + options->pr_fraction > 1.0 + 1e-9) {
    *error = "cc + pr fractions exceed 1";
    return false;
  }
  return true;
}

}  // namespace eta::serve
