// Byte-size constants and human-readable formatting.
#pragma once

#include <cstdint>
#include <string>

namespace eta::util {

inline constexpr uint64_t kKiB = 1024;
inline constexpr uint64_t kMiB = 1024 * kKiB;
inline constexpr uint64_t kGiB = 1024 * kMiB;

/// "1.5 MB", "12 KB", "3 B" — binary units with short suffixes, matching
/// the paper's table style.
std::string FormatBytes(uint64_t bytes);

}  // namespace eta::util
