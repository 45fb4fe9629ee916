// Checked number parsing for every number read from outside the process:
// CLI flags, --faults/--arrivals/--slo-alerts specs, trace and replay
// files, and edge lists. One grammar and one set of error messages for all
// of them; the range is checked on the parsed value before any cast. Also
// the comma splitter and list parser the spec parsers share.
#pragma once

#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace eta::util {

/// Lower bound of an open "> 0" range of doubles: the smallest positive
/// double, so [kAboveZero, hi] is exactly (0, hi]. Errors print "> 0".
inline constexpr double kAboveZero = std::numeric_limits<double>::denorm_min();

/// ParseNumber's result: `value` is set iff `error` is empty.
template <typename T>
struct Parsed {
  T value{};
  std::string error;
  explicit operator bool() const { return error.empty(); }
};

/// Parses all of `text` as a T in [lo, hi]. Integers are decimal with an
/// optional '-'; doubles use the <charconv> general format and must
/// be finite. A leading '+' or whitespace, hex, trailing bytes, and an
/// exponent or fraction for an integer type are all rejected. On failure
/// `error` reads "must be >= LO", "must be <= HI", "must be a number (got
/// 'V')" or "must be an integer (got 'V')"; callers prefix the flag, key or
/// line. Instantiated for int32_t, uint32_t, int64_t, uint64_t and double.
template <typename T>
Parsed<T> ParseNumber(std::string_view text, T lo = std::numeric_limits<T>::lowest(),
                      T hi = std::numeric_limits<T>::max());

/// ParseNumber into *field: on success stores the value and returns "";
/// otherwise returns the error and leaves *field alone.
template <typename T>
std::string ParseInto(std::string_view text, T lo, T hi, T* field);

/// Splits `text` at every `sep`: "a,,b" gives {"a", "", "b"} and "" gives
/// {""}. Callers decide what an empty item means. Views point into `text`.
std::vector<std::string_view> Split(std::string_view text, char sep);

/// Parses "A" or "A,B[,C...]" — one to out.size() comma-separated doubles,
/// each in [lo, hi] — into the leading slots of `out`; later slots keep
/// their values. Returns false and sets *error on an empty, malformed or
/// out-of-range item, or on more items than slots.
bool ParseDoubleList(std::string_view text, const std::vector<double*>& out, double lo,
                     double hi, std::string* error);

}  // namespace eta::util
