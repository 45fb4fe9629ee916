#include "util/number.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <type_traits>
#include <utility>

namespace eta::util {
namespace {

template <typename T>
std::string Format(T value) {
  char buf[32];  // the shortest round-trip form of a double is at most 24 chars
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

// "must be >= LO" or "must be <= HI"; the open bound kAboveZero reads "> 0".
template <typename T>
Parsed<T> OutOfRange(bool below, T lo, T hi) {
  if (!below) return {T{}, "must be <= " + Format(hi)};
  if (std::is_floating_point_v<T> && lo == static_cast<T>(kAboveZero)) {
    return {T{}, "must be > 0"};
  }
  return {T{}, "must be >= " + Format(lo)};
}

template <typename T, typename V>
Parsed<T> InRange(V value, T lo, T hi) {
  if (std::cmp_less(value, lo)) return OutOfRange(true, lo, hi);
  if (std::cmp_greater(value, hi)) return OutOfRange(false, lo, hi);
  return {static_cast<T>(value), {}};
}

}  // namespace

template <typename T>
Parsed<T> ParseNumber(std::string_view text, T lo, T hi) {
  const char* last = text.data() + text.size();
  if constexpr (std::is_integral_v<T>) {
    // A leading '-' takes the signed parse; both reject '+', spaces and hex.
    const bool minus = text.starts_with('-');
    int64_t negative = 0;
    uint64_t positive = 0;
    const auto [end, ec] = minus ? std::from_chars(text.data(), last, negative)
                                 : std::from_chars(text.data(), last, positive);
    if (end != last || (ec != std::errc() && ec != std::errc::result_out_of_range)) {
      return {T{}, "must be an integer (got '" + std::string(text) + "')"};
    }
    if (ec == std::errc::result_out_of_range) return OutOfRange(minus, lo, hi);
    return minus ? InRange(negative, lo, hi) : InRange(positive, lo, hi);
  } else {
    T value = 0;
    const auto [end, ec] = std::from_chars(text.data(), last, value, std::chars_format::general);
    const bool whole =
        end == last && (ec == std::errc() || ec == std::errc::result_out_of_range);
    if (whole && ec == std::errc::result_out_of_range) {
      // from_chars leaves `value` unset. strtod on the same, fully consumed
      // text tells overflow (+-inf) from underflow (kept as strtod rounds it).
      value = std::strtod(std::string(text).c_str(), nullptr);
      if (std::isinf(value)) return OutOfRange(value < 0, lo, hi);
    }
    if (!whole || !std::isfinite(value)) {
      return {T{}, "must be a number (got '" + std::string(text) + "')"};
    }
    if (value < lo || value > hi) return OutOfRange(value < lo, lo, hi);
    return {value, {}};
  }
}

template <typename T>
std::string ParseInto(std::string_view text, T lo, T hi, T* field) {
  const Parsed<T> parsed = ParseNumber(text, lo, hi);
  if (parsed) *field = parsed.value;
  return parsed.error;
}

#define ETA_INSTANTIATE(T)                                        \
  template Parsed<T> ParseNumber(std::string_view, T, T);         \
  template std::string ParseInto(std::string_view, T, T, T*);
ETA_INSTANTIATE(int32_t)
ETA_INSTANTIATE(uint32_t)
ETA_INSTANTIATE(int64_t)
ETA_INSTANTIATE(uint64_t)
ETA_INSTANTIATE(double)
#undef ETA_INSTANTIATE

std::vector<std::string_view> Split(std::string_view text, char sep) {
  std::vector<std::string_view> items;
  size_t pos = 0;
  for (size_t at = text.find(sep); at != std::string_view::npos; at = text.find(sep, pos)) {
    items.push_back(text.substr(pos, at - pos));
    pos = at + 1;
  }
  items.push_back(text.substr(pos));
  return items;
}

bool ParseDoubleList(std::string_view text, const std::vector<double*>& out, double lo,
                     double hi, std::string* error) {
  const std::vector<std::string_view> items = Split(text, ',');
  for (size_t i = 0; i < items.size(); ++i) {
    const std::string why =
        i < out.size() ? ParseInto(items[i], lo, hi, out[i])
                       : "is one too many (at most " + std::to_string(out.size()) + ")";
    if (!why.empty()) {
      *error = "item " + std::to_string(i + 1) + " " + why;
      return false;
    }
  }
  return true;
}

}  // namespace eta::util
