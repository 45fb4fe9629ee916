// Graph file I/O.
//
// The paper stores graphs on disk in the Galois CSR binary format
// (".gr", version 1) and loads them from there; this module implements that
// format faithfully (64-bit header, end-offset index array, 32-bit
// destination array, optional 32-bit edge data) plus a plain-text edge-list
// reader/writer for interoperability with SNAP-style downloads.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace eta::graph {

/// Writes `csr` (and its weights, if any) as a Galois version-1 .gr file.
/// Aborts on I/O failure.
void WriteGaloisGr(const Csr& csr, const std::string& path);

/// Reads a Galois version-1 .gr file. The header's node and edge counts are
/// checked against the file size before any array is sized from them. On
/// unreadable or malformed input returns std::nullopt and, when `error` is
/// non-null, a message naming the file and the fault.
std::optional<Csr> ReadGaloisGr(const std::string& path, std::string* error);

/// Writes "src dst [weight]" lines.
void WriteEdgeListText(const Csr& csr, const std::string& path);

/// Reads "src dst [weight]" lines; '#'- or '%'-prefixed lines are comments
/// (SNAP convention). If any line carries a third column, all must. Ids
/// must be below 2^32-1, the largest id may imply at most 64 vertices per
/// edge line (plus 64), and weights are in 1..2^32-1. On unreadable or
/// malformed input returns std::nullopt and, when `error` is non-null, a
/// message naming the file, the line and the fault.
std::optional<Csr> ReadEdgeListText(const std::string& path, std::string* error);

}  // namespace eta::graph
