// Tiny command-line flag parser shared by the bench and example binaries.
//
// Supports "--name=value", "--name value" and boolean "--name" forms.
// Unknown flags are an error: bench binaries are the reproducibility
// surface of this repo and a silently-ignored typo in a sweep parameter
// would invalidate results.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace eta::util {

class CommandLine {
 public:
  /// Parses argv. On error (malformed flag) returns std::nullopt and writes
  /// a message to *error.
  static std::optional<CommandLine> Parse(int argc, const char* const* argv,
                                          std::string* error);

  /// Flag accessors with defaults. GetInt/GetDouble parse through
  /// util::ParseNumber and take the flag's domain [lo, hi]; a malformed or
  /// out-of-range value prints "<prog>: --NAME must be ..." and exits 2 (a
  /// sweep must not continue with a bogus parameter).
  std::string GetString(const std::string& name, const std::string& def) const;
  int64_t GetInt(const std::string& name, int64_t def,
                 int64_t lo = std::numeric_limits<int64_t>::min(),
                 int64_t hi = std::numeric_limits<int64_t>::max()) const;
  double GetDouble(const std::string& name, double def,
                   double lo = std::numeric_limits<double>::lowest(),
                   double hi = std::numeric_limits<double>::max()) const;
  bool GetBool(const std::string& name, bool def) const;

  bool Has(const std::string& name) const { return flags_.contains(name); }

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& Positional() const { return positional_; }

  /// Flags seen but never read; used by binaries to reject typos.
  std::vector<std::string> UnusedFlags() const;

 private:
  /// The flag's value, or nullptr when it was not given; marks it read.
  const std::string* Find(const std::string& name) const;

  std::string prog_;  // basename of argv[0], prefixes flag errors
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> read_;
  std::vector<std::string> positional_;
};

}  // namespace eta::util
