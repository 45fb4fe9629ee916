#include "util/cli.hpp"

#include <cstdio>
#include <cstdlib>

#include "util/number.hpp"

namespace eta::util {
namespace {

/// The parsed value, or "<prog>: --NAME <error>" on stderr and exit 2.
template <typename T>
T ValueOrExit(const Parsed<T>& value, const std::string& prog, const std::string& name) {
  if (value) return value.value;
  std::fprintf(stderr, "%s: --%s %s\n", prog.c_str(), name.c_str(), value.error.c_str());
  std::exit(2);
}

}  // namespace

std::optional<CommandLine> CommandLine::Parse(int argc, const char* const* argv,
                                              std::string* error) {
  CommandLine cl;
  cl.prog_ = argc > 0 ? argv[0] : "";
  cl.prog_.erase(0, cl.prog_.rfind('/') + 1);  // npos + 1 == 0: no slash
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      cl.positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty()) {
      if (error) *error = "bare '--' is not a valid flag";
      return std::nullopt;
    }
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      cl.flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--name value" form only when the next token is not itself a flag;
    // otherwise treat as boolean.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      cl.flags_[body] = argv[++i];
    } else {
      cl.flags_[body] = "true";
    }
  }
  return cl;
}

const std::string* CommandLine::Find(const std::string& name) const {
  read_[name] = true;
  auto it = flags_.find(name);
  return it == flags_.end() ? nullptr : &it->second;
}

std::string CommandLine::GetString(const std::string& name, const std::string& def) const {
  const std::string* value = Find(name);
  return value == nullptr ? def : *value;
}

int64_t CommandLine::GetInt(const std::string& name, int64_t def, int64_t lo,
                            int64_t hi) const {
  const std::string* text = Find(name);
  return text == nullptr ? def : ValueOrExit(ParseNumber(*text, lo, hi), prog_, name);
}

double CommandLine::GetDouble(const std::string& name, double def, double lo,
                              double hi) const {
  const std::string* text = Find(name);
  return text == nullptr ? def : ValueOrExit(ParseNumber(*text, lo, hi), prog_, name);
}

bool CommandLine::GetBool(const std::string& name, bool def) const {
  const std::string* value = Find(name);
  return value == nullptr ? def : *value != "false" && *value != "0";
}

std::vector<std::string> CommandLine::UnusedFlags() const {
  std::vector<std::string> unused;
  for (const auto& [name, value] : flags_) {
    (void)value;
    if (!read_.contains(name)) unused.push_back(name);
  }
  return unused;
}

}  // namespace eta::util
