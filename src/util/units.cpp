#include "util/units.hpp"

#include <cstdio>

namespace eta::util {

std::string FormatBytes(uint64_t bytes) {
  char buf[64];
  if (bytes >= kGiB) {
    std::snprintf(buf, sizeof(buf), "%.2f GB", static_cast<double>(bytes) / kGiB);
  } else if (bytes >= kMiB) {
    std::snprintf(buf, sizeof(buf), "%.2f MB", static_cast<double>(bytes) / kMiB);
  } else if (bytes >= kKiB) {
    std::snprintf(buf, sizeof(buf), "%.1f KB", static_cast<double>(bytes) / kKiB);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B", static_cast<unsigned long long>(bytes));
  }
  return buf;
}

}  // namespace eta::util
