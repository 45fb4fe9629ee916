// Which etacheck checkers run. Mirrors compute-sanitizer's tool selection
// (--tool memcheck|racecheck|synccheck), except the simulator can run all
// three in one pass because instrumentation is exact, not sampled.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/number.hpp"

namespace eta::sanitizer {

struct Config {
  bool memcheck = false;   // out-of-bounds, use-after-free, uninitialized reads
  bool racecheck = false;  // unsynchronized same-address conflicts within a launch
  bool synccheck = false;  // divergent or missed block barriers
  bool leakcheck = false;  // device buffers still allocated at session teardown

  /// Anything on? Off (the default) means no observer is attached anywhere
  /// and the simulation runs byte-identical to an unchecked build.
  bool Enabled() const { return memcheck || racecheck || synccheck || leakcheck; }

  static Config All() { return Config{true, true, true, true}; }

  /// Parses a comma-separated tool list: "memcheck,racecheck", "leakcheck",
  /// "all", or "" (empty also means all — `--check` with no value enables
  /// everything). Returns nullopt on an unknown tool name.
  static std::optional<Config> Parse(std::string_view list) {
    if (list.empty() || list == "all" || list == "true") return All();
    Config config;
    const std::vector<std::string_view> tools = util::Split(list, ',');
    for (size_t i = 0; i < tools.size(); ++i) {
      const std::string_view tool = tools[i];
      if (tool.empty() && i + 1 == tools.size()) break;  // a trailing comma is allowed
      if (tool == "memcheck") {
        config.memcheck = true;
      } else if (tool == "racecheck") {
        config.racecheck = true;
      } else if (tool == "synccheck") {
        config.synccheck = true;
      } else if (tool == "leakcheck") {
        config.leakcheck = true;
      } else {
        return std::nullopt;
      }
    }
    return config;
  }
};

}  // namespace eta::sanitizer
