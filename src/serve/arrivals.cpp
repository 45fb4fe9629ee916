#include "serve/arrivals.hpp"

#include <cmath>
#include <limits>
#include <optional>
#include <string_view>
#include <tuple>

#include "util/check.hpp"
#include "util/number.hpp"
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

  // Every real-valued key and its domain; util::kAboveZero marks "> 0".
  constexpr double kMax = std::numeric_limits<double>::max();
  static constexpr std::tuple<std::string_view, double ArrivalOptions::*, double, double>
      kRealKeys[] = {
      {"rate", &ArrivalOptions::rate_qps, util::kAboveZero, kMax},
      {"on", &ArrivalOptions::on_ms, util::kAboveZero, kMax},
      {"off", &ArrivalOptions::off_ms, 0, kMax},
      {"offscale", &ArrivalOptions::off_rate_scale, 0, kMax},
      {"period", &ArrivalOptions::period_ms, util::kAboveZero, kMax},
      {"trough", &ArrivalOptions::trough_scale, 0, 1},
      {"hot", &ArrivalOptions::hot_graph_fraction, 0, 1},
      {"cc", &ArrivalOptions::cc_fraction, 0, 1},
      {"pr", &ArrivalOptions::pr_fraction, 0, 1},
      {"gold", &ArrivalOptions::gold_fraction, 0, 1},
      {"silver", &ArrivalOptions::silver_fraction, 0, 1},
      {"gd", &ArrivalOptions::gold_deadline_ms, util::kAboveZero, kMax},
      {"sd", &ArrivalOptions::silver_deadline_ms, util::kAboveZero, kMax},
      {"bd", &ArrivalOptions::bronze_deadline_ms, util::kAboveZero, kMax},
  };
  const std::vector<std::string_view> items =
      util::Split(std::string_view(spec).substr(colon + 1), ',');
  for (size_t i = 0; i < items.size(); ++i) {
    const std::string_view kv = items[i];
    if (kv.empty() && i + 1 == items.size()) break;  // a trailing comma is allowed
    const size_t eq = kv.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      *error = "malformed arrival key=value '" + std::string(kv) + "'";
      return false;
    }
    const std::string_view key = kv.substr(0, eq);
    const std::string_view value = kv.substr(eq + 1);
    // Integer keys parse as integers: a fraction, an exponent or a value
    // the field cannot hold is an error, never a cast.
    std::optional<std::string> why;  // unset: unknown key; empty: parsed
    uint32_t count = 0;
    for (const auto& [name, field, lo, hi] : kRealKeys) {
      if (key == name) why = util::ParseInto(value, lo, hi, &(options->*field));
    }
    if (key == "n") {
      why = util::ParseInto(value, 1u, kMaxArrivalRequests, &options->num_requests);
    } else if (key == "graphs") {
      why = util::ParseInto(value, 1u, std::numeric_limits<uint32_t>::max(),
                            &options->num_graphs);
    } else if (key == "seed") {
      why = util::ParseInto(value, uint64_t{0}, std::numeric_limits<uint64_t>::max(),
                            &options->seed);
    } else if (key == "slo") {
      why = util::ParseInto(value, 0u, 1u, &count);
      if (why->empty()) options->assign_slo = count != 0;
    } else if (key == "tenants") {
      why = util::ParseInto(value, 1u, kMaxArrivalTenants, &count);
      // K tenants with deterministically spread algo mixes and unequal
      // weights, so multi-tenant runs exercise the weighted pick.
      if (why->empty()) options->tenants.clear();
      for (uint32_t t = 0; t < count; ++t) {
        TenantMix mix;
        mix.weight = 1.0 + t;
        mix.bfs_fraction = count == 1 ? 0.5 : 0.2 + 0.6 * t / (count - 1);
        mix.sssp_fraction = 0.8 * (1.0 - mix.bfs_fraction);
        options->tenants.push_back(mix);
      }
    }
    if (!why) {
      *error = "unknown arrival key '" + std::string(key) + "'";
      return false;
    }
    if (!why->empty()) {
      *error = "arrival key '" + std::string(key) + "' " + *why;
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
