#include "serve/types.hpp"

namespace eta::serve {

const char* QueryStatusName(QueryStatus status) {
  switch (status) {
    case QueryStatus::kOk: return "ok";
    case QueryStatus::kRejected: return "rejected";
    case QueryStatus::kTimedOut: return "timed-out";
    case QueryStatus::kDegraded: return "degraded";
    case QueryStatus::kShedded: return "shedded";
  }
  return "?";
}

std::optional<QueryStatus> ParseQueryStatus(std::string_view name) {
  if (name == "ok") return QueryStatus::kOk;
  if (name == "rejected") return QueryStatus::kRejected;
  if (name == "timed-out") return QueryStatus::kTimedOut;
  if (name == "degraded") return QueryStatus::kDegraded;
  if (name == "shedded") return QueryStatus::kShedded;
  return std::nullopt;
}

const char* SloClassName(SloClass slo) {
  switch (slo) {
    case SloClass::kNone: return "none";
    case SloClass::kBronze: return "bronze";
    case SloClass::kSilver: return "silver";
    case SloClass::kGold: return "gold";
  }
  return "?";
}

std::optional<SloClass> ParseSloClass(std::string_view name) {
  if (name == "none") return SloClass::kNone;
  if (name == "bronze") return SloClass::kBronze;
  if (name == "silver") return SloClass::kSilver;
  if (name == "gold") return SloClass::kGold;
  return std::nullopt;
}

int32_t SloPriority(SloClass slo) {
  switch (slo) {
    case SloClass::kNone: return 0;
    case SloClass::kBronze: return 0;
    case SloClass::kSilver: return 1;
    case SloClass::kGold: return 2;
  }
  return 0;
}

double SloTargetMs(const OverloadOptions& options, SloClass slo) {
  switch (slo) {
    case SloClass::kNone: return kNoDeadline;
    case SloClass::kBronze: return options.bronze_slo_ms;
    case SloClass::kSilver: return options.silver_slo_ms;
    case SloClass::kGold: return options.gold_slo_ms;
  }
  return kNoDeadline;
}

}  // namespace eta::serve
